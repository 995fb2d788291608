package experiments

import (
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

// TestRunContextNoBleed is the config-bleed regression test: a run with a
// scoped verified+faulted context and a run on the process default
// (verification off, no plan) execute concurrently under an explicit
// 4-worker pool, and neither inherits the other's settings — the faulted
// runs record injected faults, the default runs record none, and the
// process-default context is untouched afterwards.
func TestRunContextNoBleed(t *testing.T) {
	if DefaultContext().Verify || FaultPlan() != nil {
		t.Fatal("test requires pristine process defaults")
	}
	defer ResetBadRuns()

	ctx := &RunContext{Verify: true, FaultPlan: bleedTestPlan(t)}
	mk := func(c *RunContext) Spec {
		return SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80,
			DatasetScale: 0.05, Ctx: c})
	}
	// Interleave scoped and default-context runs so the pool runs both
	// kinds at once.
	specs := []Spec{mk(ctx), mk(nil), mk(ctx), mk(nil)}
	runs := RunAllWorkers(specs, 4)

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
			t.Errorf("run %d (%s): default-context run absorbed the scoped run's fault plan: %s",
				i, run.Name, run.FaultStats.String())
		}
	}
	// Identical scoped runs must make identical fault decisions regardless
	// of worker interleaving.
	if runs[0].FaultStats != runs[2].FaultStats {
		t.Errorf("same-plan runs diverged: %s vs %s",
			runs[0].FaultStats.String(), runs[2].FaultStats.String())
	}
	if DefaultContext().Verify || FaultPlan() != nil {
		t.Error("scoped runs mutated the process-default context")
	}
}

// TestSetVerifySetFaultPlanShims: the CLI-facing setters are shims over
// the default context — they swap values atomically and report the
// previous setting, and scoped contexts never observe them.
func TestSetVerifySetFaultPlanShims(t *testing.T) {
	if prev := SetVerify(true); prev {
		t.Error("SetVerify(true): previous setting should have been false")
	}
	if !DefaultContext().Verify {
		t.Error("DefaultContext().Verify should be true after SetVerify(true)")
	}
	plan := bleedTestPlan(t)
	if prev := SetFaultPlan(plan); prev != nil {
		t.Errorf("SetFaultPlan: previous plan should have been nil, got %v", prev)
	}
	if FaultPlan() != plan {
		t.Error("FaultPlan() should return the installed plan")
	}
	// A scoped context is unaffected by the default's settings.
	scoped := &RunContext{}
	if got := orDefault(scoped); got != scoped {
		t.Error("an explicit context must resolve to itself, not the default")
	}
	if prev := SetFaultPlan(nil); prev != plan {
		t.Errorf("SetFaultPlan(nil): previous plan should have been the installed one")
	}
	if prev := SetVerify(false); !prev {
		t.Error("SetVerify(false): previous setting should have been true")
	}
}
