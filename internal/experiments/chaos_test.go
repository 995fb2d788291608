package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// chaosTestPlan is an aggressive-but-survivable schedule: transient errors
// well under the retry budget, plus every degradation mode at a visible
// rate.
func chaosTestPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan("seed=1,dev-err=0.02,spike=0.01,brownout=4000:200,wb-fail=0.05,torn=0.05,h2-exhaust=0.02")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	return p
}

// TestChaosSurvivesFaultSchedule is the harness's core claim: under an
// aggressive fault plan with the verifier on, every run ends in a typed
// outcome — degraded, faulted, or OOM — and none panics.
func TestChaosSurvivesFaultSchedule(t *testing.T) {
	res := new(Env).RunChaos(chaosTestPlan(t))
	healthy, recovered, degraded, faulted, oom, panicked := res.Counts()
	if panicked != 0 {
		t.Fatalf("chaos run panicked:\n%s", res.Format())
	}
	if len(res.Runs) != len(chaosSpecs(nil)) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(chaosSpecs(nil)))
	}
	if healthy+recovered+degraded+faulted+oom+panicked != len(res.Runs) {
		t.Fatalf("outcome buckets don't partition the runs: %d+%d+%d+%d+%d+%d != %d",
			healthy, recovered, degraded, faulted, oom, panicked, len(res.Runs))
	}
	// The plan injects at visible rates into I/O-heavy runs: at least one
	// run must have absorbed faults (degraded or worse) or the plane is
	// not actually wired in.
	anyInjected := false
	for _, run := range res.Runs {
		if run.FaultStats.Any() {
			anyInjected = true
		}
	}
	if !anyInjected {
		t.Fatalf("no run recorded injected faults:\n%s", res.Format())
	}
	if !strings.Contains(res.Format(), "verifier on") {
		t.Fatalf("report missing verifier marker:\n%s", res.Format())
	}
}

// TestChaosSameSeedIsDeterministic runs the schedule twice under the same
// plan and requires byte-identical reports.
func TestChaosSameSeedIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos schedules in -short mode")
	}
	plan := chaosTestPlan(t)
	a := new(Env).RunChaos(plan).Format()
	b := new(Env).RunChaos(plan).Format()
	if a != b {
		t.Fatalf("same-seed chaos reports differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestChaosGlobalsRestored checks RunChaos leaves its environment the way
// it found it: the schedule runs on scoped layers (verifier on, the given
// plan) and never writes them back into the Env it was called on.
func TestChaosGlobalsRestored(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos schedule in -short mode")
	}
	env := &Env{Jobs: 2}
	env.RunChaos(chaosTestPlan(t))
	if env.Layers != (rt.Layers{}) {
		t.Errorf("RunChaos changed the environment's layers: %+v", env.Layers)
	}
}

// TestChaosHonoursGCWorkers checks the schedule runs at the
// environment's gang size: a gang of four charges different GC time than
// the gang of one, while every run ends in the same outcome with the same
// checksum (the gang is cost attribution only).
func TestChaosHonoursGCWorkers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos schedules: skipped in -short mode and under the race detector")
	}
	serial := new(Env).RunChaos(nil)
	gang := (&Env{Layers: rt.Layers{GCWorkers: 4}}).RunChaos(nil)
	gcTime := func(r RunResult) time.Duration { return r.B.Get(simclock.MinorGC) + r.B.Get(simclock.MajorGC) }
	differ := false
	for i, run := range gang.Runs {
		base := serial.Runs[i]
		if run.status() != base.status() || run.Checksum != base.Checksum {
			t.Errorf("%s: gang of four ended %s (checksum %g), gang of one %s (checksum %g)",
				run.Name, run.status(), run.Checksum, base.status(), base.Checksum)
		}
		if gcTime(run) != gcTime(base) {
			differ = true
		}
	}
	if !differ {
		t.Fatalf("-gc-workers 4 charged the same GC time as the serial gang on every run:\n%s", gang.Format())
	}
}

// TestChaosRecoversFromPersistentRegionFailure is the self-healing layer's
// end-to-end claim: a persistent-failure plan that pre-recovery ended runs
// Faulted now completes every run, marks the TeraHeap runs Recovered, and
// — because failed regions stay readable and salvage remaps every
// reference — produces exactly the checksums of a fault-free execution.
func TestChaosRecoversFromPersistentRegionFailure(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos schedules: skipped in -short mode and under the race detector (deterministic-replay property, no concurrency; the package would exceed the default test timeout)")
	}
	plan, err := fault.ParsePlan("seed=1,region-fail=0.02")
	if err != nil {
		t.Fatal(err)
	}
	res := new(Env).RunChaos(plan)
	_, recovered, _, faulted, oom, panicked := res.Counts()
	if panicked != 0 {
		t.Fatalf("chaos run panicked:\n%s", res.Format())
	}
	if faulted != 0 || oom != 0 {
		t.Fatalf("faulted=%d oom=%d under a survivable plan, want 0/0:\n%s", faulted, oom, res.Format())
	}
	if recovered == 0 {
		t.Fatalf("no run recovered under a persistent region-failure plan:\n%s", res.Format())
	}
	base := new(Env).RunChaos(nil)
	for i, run := range res.Runs {
		if run.Checksum != base.Runs[i].Checksum {
			t.Errorf("%s: checksum %g after salvage != fault-free %g — recovery changed the answer",
				run.Name, run.Checksum, base.Runs[i].Checksum)
		}
	}
	for _, run := range res.Runs {
		if run.Recovered() && (run.Recovery.RegionsQuarantined == 0 || run.Recovery.SalvagedObjects == 0) {
			t.Errorf("%s marked recovered without salvage activity: %s", run.Name, run.Recovery)
		}
	}
}
