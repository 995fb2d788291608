package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// badRuns counts runs in this process that ended OOM, faulted, or
// panicked. The CLI polls it to turn degraded results into a nonzero exit
// code while still printing the full (partial) results table.
var badRuns atomic.Int64

func noteOutcome(r RunResult) {
	if r.OOM || r.Faulted || r.Failed {
		badRuns.Add(1)
	}
}

// BadRuns returns the number of runs so far that ended OOM, faulted, or
// panicked.
func BadRuns() int64 { return badRuns.Load() }

// ResetBadRuns clears the bad-run counter and returns the old value
// (tests; reruns within one process).
func ResetBadRuns() int64 { return badRuns.Swap(0) }

// collect turns a finished session into the run's result, shared by
// RunSpark, RunGiraph and RunServe. It settles the writeback queue first (residual service time
// belongs to the run that submitted it; a no-op when disabled), snapshots
// the session's counters, and classifies the workload's error: a storage
// fault or an OOM is an outcome, anything else is a bug and panics. A
// device failure latched after the workload's last allocation (or on a
// runtime without collector-level polling, like the G1 baseline) still
// faults the run. The outcome is recorded for the CLI's exit code.
func collect(ses *rt.Session, name string, err error) RunResult {
	ses.Device.DrainWriteback()
	res := RunResult{
		Name:       name,
		B:          ses.Clock.Breakdown(),
		GCStats:    *ses.Runtime.GCStats(),
		DevStats:   ses.Device.Stats(),
		FaultStats: ses.Injector.Stats(),
		Recovery:   ses.RecoveryStats(),
		Placement:  ses.PlacementStats(),
	}
	if th := ses.TH; th != nil {
		s := th.Stats()
		res.THStats = &s
		res.PageFaults = th.Mapped().Cache().Faults
		res.FinalLowThreshold = th.LowThresholdNow()
		res.H2UsedBytes = th.UsedBytes()
	}
	if err != nil {
		var oom *gc.OOMError
		var flt *gc.FaultError
		switch {
		case errors.As(err, &flt):
			res.Faulted = true
			res.FailErr = flt.Error()
		case errors.As(err, &oom) || ses.Runtime.OOM() != nil:
			res.OOM = true
		default:
			panic(fmt.Sprintf("experiments: %s failed: %v", name, err))
		}
	}
	if e := ses.Fault(); e != nil && !res.Faulted {
		res.Faulted = true
		res.FailErr = e.Error()
	}
	noteOutcome(res)
	return res
}
