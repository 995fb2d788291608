package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// ChaosResult captures one chaos-harness execution: the plan it ran under
// and every run's outcome, in schedule order.
type ChaosResult struct {
	Plan *fault.Plan
	Runs []RunResult
}

// Counts buckets the runs by outcome. A run lands in exactly one bucket:
// panicked (executor-recovered), faulted (latched persistent device
// failure), oom, recovered (the self-healing layer repaired a persistent
// failure and the run finished with a correct result), degraded (absorbed
// injected faults and still finished), or healthy.
func (r ChaosResult) Counts() (healthy, recovered, degraded, faulted, oom, panicked int) {
	for _, run := range r.Runs {
		switch {
		case run.Failed:
			panicked++
		case run.Faulted:
			faulted++
		case run.OOM:
			oom++
		case run.Recovered():
			recovered++
		case run.Degraded():
			degraded++
		default:
			healthy++
		}
	}
	return
}

// status labels the run's outcome bucket in the chaos reports.
func (r RunResult) status() string {
	switch {
	case r.Failed:
		return "PANIC"
	case r.Faulted:
		return "FAULTED"
	case r.OOM:
		return "OOM"
	case r.Recovered():
		return "RECOVERED"
	case r.Degraded():
		return "degraded"
	}
	return "ok"
}

// Panicked reports whether any run died by panic — the one outcome the
// chaos harness treats as a bug. Faulted and OOM runs are expected under
// an aggressive plan; a panic means a fault escaped the typed-error paths.
func (r ChaosResult) Panicked() bool {
	for _, run := range r.Runs {
		if run.Failed {
			return true
		}
	}
	return false
}

// Format renders the chaos report. The output is a pure function of the
// plan and the run outcomes, so two executions under the same seed are
// byte-identical.
func (r ChaosResult) Format() string {
	plan := "(no faults)"
	if r.Plan != nil {
		plan = r.Plan.String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== chaos: %d runs under plan [%s], verifier on ==\n", len(r.Runs), plan)
	for _, run := range r.Runs {
		status := run.status()
		fmt.Fprintf(&sb, "%-28s %-9s total=%-14v %s\n", run.Name, status,
			run.B.Total().Round(time.Microsecond), run.FaultStats.String())
		if run.Recovered() {
			fmt.Fprintf(&sb, "  recovery: %s\n", run.Recovery.String())
		}
		if run.FailErr != "" {
			fmt.Fprintf(&sb, "  cause: %s\n", firstLine(run.FailErr))
		}
	}
	healthy, recovered, degraded, faulted, oom, panicked := r.Counts()
	fmt.Fprintf(&sb, "healthy=%d recovered=%d degraded=%d faulted=%d oom=%d panicked=%d\n",
		healthy, recovered, degraded, faulted, oom, panicked)
	return sb.String()
}

// chaosSpecs is the chaos schedule: the Fig 7 pair (Spark PR under PS and
// TeraHeap — major-GC heavy, so promotion buffers and writeback are
// exercised), a streaming ML run at its reduced DRAM point (read-dominated,
// so latency spikes and brown-outs land on the page-cache fault path), and
// the Fig 9a hint pair for Giraph PR (mutable stores forced to H2, so
// device read-modify-writes absorb the injected errors). Every spec
// carries ctx explicitly, so chaos runs can interleave with any other
// figure's runs. The
// NG2C run uses the pretenure figure's hints-off configuration so its
// placement policy is actually exercised (pretenured allocations, policy
// promotions, demotion feedback) while faults land; Deca's epoch regions
// live on a DRAM device, so its chaos coverage is the H2 region plane
// (region-fail, corrupt) without the storage latency model.
func chaosSpecs(ctx *rt.Layers) []Spec {
	return []Spec{
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindPS, DramGB: 80, Ctx: ctx}),
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80, Ctx: ctx}),
		SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: 43, Ctx: ctx}),
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindNG2C, DramGB: 44, DatasetScale: 30.0 / 80.0, Ctx: ctx,
			THConfig: func(c *core.Config) { c.EnableMoveHint = false }}),
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindDeca, DramGB: 44, DatasetScale: 30.0 / 80.0, Ctx: ctx}),
		GiraphSpec(GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 74, Ctx: ctx,
			THConfig: func(c *core.Config) {
				c.EnableMoveHint = false
				c.LowThreshold = 0
			}}),
		GiraphSpec(GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 74, Ctx: ctx,
			THConfig: func(c *core.Config) { c.LowThreshold = 0 }}),
	}
}

// RunChaos executes the chaos schedule under the given fault plan with the
// full-heap invariant verifier enabled for every run. The plan and the
// verifier ride a scoped rt.Layers; the GC gang size, the writeback depth
// and the job count come from e. A nil plan runs the schedule fault-free
// (the baseline the determinism CI job compares against).
func (e *Env) RunChaos(plan *fault.Plan) ChaosResult {
	ctx := &rt.Layers{Verify: true, FaultPlan: plan,
		GCWorkers: e.Layers.GCWorkers, WritebackDepth: e.Layers.WritebackDepth}
	return ChaosResult{Plan: plan, Runs: e.RunAll(chaosSpecs(ctx))}
}
