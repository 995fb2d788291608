package experiments

import (
	"reflect"
	"sync"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// bleedTestPlan injects at rates high enough that a short TeraHeap run is
// guaranteed to record injected faults if (and only if) the plan is
// actually wired into it.
func bleedTestPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan("seed=5,dev-err=0.02,spike=0.05,wb-fail=0.1,torn=0.1")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	return p
}

// TestRunContextNoBleed is the config-bleed regression test: runs with a
// scoped verified+faulted Ctx and runs with a nil Ctx execute
// concurrently on a 4-worker environment whose own layers are zero, and
// neither inherits the other's settings — the scoped runs record
// injected faults, the nil-Ctx runs (which run under the environment's
// layers) record none.
func TestRunContextNoBleed(t *testing.T) {
	ctx := &rt.Layers{Verify: true, FaultPlan: bleedTestPlan(t)}
	mk := func(c *rt.Layers) Spec {
		return SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80,
			DatasetScale: 0.05, Ctx: c})
	}
	// Interleave scoped and nil-Ctx runs so the pool runs both at once.
	specs := []Spec{mk(ctx), mk(nil), mk(ctx), mk(nil)}
	env := &Env{Jobs: 4}
	runs := env.RunAll(specs)

	for i, run := range runs {
		scoped := i%2 == 0
		if run.Failed {
			t.Fatalf("run %d (%s) panicked: %s", i, run.Name, run.FailErr)
		}
		if scoped && !run.FaultStats.Any() {
			t.Errorf("run %d (%s): scoped faulted context injected nothing: %s",
				i, run.Name, run.FaultStats.String())
		}
		if !scoped && run.FaultStats.Any() {
			t.Errorf("run %d (%s): nil-Ctx run absorbed the scoped run's fault plan: %s",
				i, run.Name, run.FaultStats.String())
		}
	}
	// Identical scoped runs must make identical fault decisions regardless
	// of worker interleaving.
	if runs[0].FaultStats != runs[2].FaultStats {
		t.Errorf("same-plan runs diverged: %s vs %s",
			runs[0].FaultStats.String(), runs[2].FaultStats.String())
	}
	if env.Layers != (rt.Layers{}) || specs[1].Spark.Ctx != nil {
		t.Error("RunAll wrote the environment's layers back into the env or a spec")
	}
}

// TestEnvIsolation runs the same figure on two environments that differ
// in every setting — verification, fault plan, GC gang and worker count —
// concurrently in one process, and requires each result (and each
// environment's unhealthy-run count) to equal that environment's run
// alone. A process-global default could not pass this: whichever
// environment installed its settings last would leak into the other.
func TestEnvIsolation(t *testing.T) {
	plan, err := fault.ParsePlan("seed=1,dev-err=0.9,max-retries=1")
	if err != nil {
		t.Fatal(err)
	}
	mkEnvs := func() (*Env, *Env) {
		return &Env{Layers: rt.Layers{Verify: true, FaultPlan: plan, GCWorkers: 4}, Jobs: 2},
			&Env{Layers: rt.Layers{GCWorkers: 1}, Jobs: 1}
	}
	faulted, plain := mkEnvs()
	aloneF, aloneP := faulted.Fig7(), plain.Fig7()
	if aloneF.Format() == aloneP.Format() {
		t.Fatal("the two environments produced the same figure; the test would prove nothing")
	}
	if faulted.Unhealthy() == 0 || plain.Unhealthy() != 0 {
		t.Fatalf("alone: unhealthy counts %d/%d, want >0/0", faulted.Unhealthy(), plain.Unhealthy())
	}

	faulted2, plain2 := mkEnvs()
	var gotF, gotP Fig7Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotF = faulted2.Fig7() }()
	go func() { defer wg.Done(); gotP = plain2.Fig7() }()
	wg.Wait()

	if !reflect.DeepEqual(gotF, aloneF) {
		t.Errorf("faulted env: concurrent result differs from its run alone:\n%s\nvs\n%s", gotF.Format(), aloneF.Format())
	}
	if !reflect.DeepEqual(gotP, aloneP) {
		t.Errorf("plain env: concurrent result differs from its run alone:\n%s\nvs\n%s", gotP.Format(), aloneP.Format())
	}
	if faulted2.Unhealthy() != faulted.Unhealthy() || plain2.Unhealthy() != plain.Unhealthy() {
		t.Errorf("unhealthy counts bled: concurrent %d/%d, alone %d/%d",
			faulted2.Unhealthy(), plain2.Unhealthy(), faulted.Unhealthy(), plain.Unhealthy())
	}
}
