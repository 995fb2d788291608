package experiments

import (
	"fmt"
	"sync/atomic"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/runner"
)

// Env is one run environment: the cross-cutting layer settings (heap
// verification, fault plan, GC gang size, writeback depth) that every run
// inherits unless it scopes its own Ctx, and the executor's worker count.
// The CLI builds one from its flags and hands it to every figure; the
// package keeps no process-global run state, so two environments run
// side by side in one process without observing each other.
//
// An Env must not be copied or have its fields changed once a figure is
// running on it.
type Env struct {
	Layers rt.Layers
	// Jobs is the executor's worker count (<= 0 means GOMAXPROCS).
	Jobs int

	unhealthy atomic.Int64
}

// RunAll executes the specs on Jobs workers and returns the results in
// submission order, so figure formatting over the result slice is
// byte-identical for every Jobs. A run whose Ctx is nil runs under
// e.Layers. A run that panics does not kill the suite: the executor
// recovers it into a failed-run result (name + error) in that run's slot,
// and the remaining runs complete.
func (e *Env) RunAll(specs []Spec) []RunResult {
	runs := runner.DoSafe(len(specs), e.Jobs, func(i int) RunResult {
		return specs[i].run(&e.Layers)
	}, func(i int, v any) RunResult {
		return RunResult{Name: specs[i].label(i), Failed: true, FailErr: fmt.Sprint(v)}
	})
	for _, r := range runs {
		if r.OOM || r.Faulted || r.Failed {
			e.unhealthy.Add(1)
		}
	}
	return runs
}

// Unhealthy returns how many runs of this environment ended OOM, faulted
// or panicked. The CLI turns a nonzero count into exit code 1 while still
// printing the full (partial) results.
func (e *Env) Unhealthy() int64 { return e.unhealthy.Load() }

// layersOf resolves a run's Ctx field: nil is the zero rt.Layers (no
// verification, no faults, serial GC charge, no writeback queue).
func layersOf(ctx *rt.Layers) rt.Layers {
	if ctx == nil {
		return rt.Layers{}
	}
	return *ctx
}
