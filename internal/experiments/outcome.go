package experiments

import (
	"errors"
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// collect turns a finished session into the run's result, shared by
// RunSpark, RunGiraph and RunServe. It settles the writeback queue first (residual service time
// belongs to the run that submitted it; a no-op when disabled), snapshots
// the session's counters, and classifies the workload's error: a storage
// fault or an OOM is an outcome, anything else is a bug and panics. A
// device failure latched after the workload's last allocation (or on a
// runtime without collector-level polling, like the G1 baseline) still
// faults the run.
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
	return res
}
