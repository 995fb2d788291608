package experiments

import (
	"sync/atomic"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// RunContext carries the cross-cutting per-run configuration — heap
// verification, fault injection, GC gang size and writeback depth — as
// an explicit, immutable value. It is rt.Layers, the same struct rt.Spec
// embeds, so a run hands it to its session whole. Runs that leave their
// Ctx field nil pick up the process default (set by the CLI's flags via
// SetVerify/SetFaultPlan/SetGCWorkers/SetWritebackDepth); runs with an
// explicit context are completely scoped by it, so two runs with
// different settings execute concurrently without bleeding into each
// other (the chaos harness relies on this).
//
// A RunContext must not be mutated after it is handed to a run.
type RunContext = rt.Layers

// defaultCtx holds the process-default RunContext. It is the one
// sanctioned piece of package-level state (besides the badRuns counter):
// a pointer swap on flag parsing, read-only during runs.
var defaultCtx atomic.Pointer[RunContext]

func init() { defaultCtx.Store(&RunContext{}) }

// DefaultContext returns the current process-default run context (never
// nil). The returned value is shared: treat it as read-only.
func DefaultContext() *RunContext { return defaultCtx.Load() }

// orDefault resolves a run's context field.
func orDefault(c *RunContext) *RunContext {
	if c == nil {
		return DefaultContext()
	}
	return c
}

// SetVerify toggles heap verification in the process-default context and
// returns the previous setting. It is a shim over DefaultContext for the
// teraheap-bench -verify flag; runs wanting scoped behaviour pass their
// own RunContext instead.
func SetVerify(v bool) bool {
	for {
		old := defaultCtx.Load()
		if old.Verify == v {
			return old.Verify
		}
		next := *old
		next.Verify = v
		if defaultCtx.CompareAndSwap(old, &next) {
			return old.Verify
		}
	}
}

// SetFaultPlan installs the fault plan in the process-default context
// (nil disables injection) and returns the previous plan. Like SetVerify
// it is a shim for the -fault flag.
func SetFaultPlan(p *fault.Plan) *fault.Plan {
	for {
		old := defaultCtx.Load()
		next := *old
		next.FaultPlan = p
		if defaultCtx.CompareAndSwap(old, &next) {
			return old.FaultPlan
		}
	}
}

// FaultPlan returns the process-default fault plan, or nil.
func FaultPlan() *fault.Plan { return DefaultContext().FaultPlan }

// SetGCWorkers sets the simulated GC gang size in the process-default
// context (values below 1 normalize to 1) and returns the previous
// setting. It is a shim for the -gc-workers flag.
func SetGCWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	for {
		old := defaultCtx.Load()
		if old.GCWorkers == n {
			return old.GCWorkers
		}
		next := *old
		next.GCWorkers = n
		if defaultCtx.CompareAndSwap(old, &next) {
			return old.GCWorkers
		}
	}
}

// SetWritebackDepth sets the device writeback queue depth in the
// process-default context (values below 0 normalize to 0 = disabled) and
// returns the previous setting. It is a shim for the -wb-depth flag.
func SetWritebackDepth(n int) int {
	if n < 0 {
		n = 0
	}
	for {
		old := defaultCtx.Load()
		if old.WritebackDepth == n {
			return old.WritebackDepth
		}
		next := *old
		next.WritebackDepth = n
		if defaultCtx.CompareAndSwap(old, &next) {
			return old.WritebackDepth
		}
	}
}
