package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// TestCollectClassifiesOutcome pins the outcome classification that
// RunSpark, RunGiraph and RunServe share: typed OOM and storage-fault errors are outcomes, a fault
// latched on the session faults even a run whose workload returned
// cleanly (and adds to an OOM), and any other error is a bug that panics.
func TestCollectClassifiesOutcome(t *testing.T) {
	faultErr := &gc.FaultError{Cause: errors.New("device gone")}
	for _, tc := range []struct {
		name        string
		err         error
		latch       bool
		wantOOM     bool
		wantFaulted bool
		wantFailErr string
		wantPanic   bool
	}{
		{name: "healthy"},
		{name: "oom", err: fmt.Errorf("stage 3: %w", &gc.OOMError{Where: "test"}), wantOOM: true},
		{name: "fault", err: fmt.Errorf("stage 3: %w", faultErr), wantFaulted: true, wantFailErr: faultErr.Error()},
		{name: "latched-after-success", latch: true, wantFaulted: true, wantFailErr: "region"},
		{name: "oom-and-latched", err: &gc.OOMError{Where: "test"}, latch: true,
			wantOOM: true, wantFaulted: true, wantFailErr: "region"},
		{name: "other-error", err: errors.New("checksum mismatch"), wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ses := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 4 * storage.MB,
				Layers: rt.Layers{FaultPlan: &fault.Plan{Seed: 1, RegionFailRate: 1}}})
			if tc.latch && !ses.Injector.RegionFlushFailed(0) {
				t.Fatal("plan with RegionFailRate=1 did not latch a region failure")
			}
			defer func() {
				r := recover()
				if (r != nil) != tc.wantPanic {
					t.Fatalf("panic = %v, want panic %v", r, tc.wantPanic)
				}
				if r != nil && !strings.Contains(fmt.Sprint(r), "run/x failed: checksum mismatch") {
					t.Errorf("panic %q does not name the run and its error", r)
				}
			}()
			res := collect(ses, "run/x", tc.err)
			if res.Name != "run/x" || res.OOM != tc.wantOOM || res.Faulted != tc.wantFaulted {
				t.Errorf("got OOM=%v Faulted=%v, want OOM=%v Faulted=%v", res.OOM, res.Faulted, tc.wantOOM, tc.wantFaulted)
			}
			if !strings.Contains(res.FailErr, tc.wantFailErr) || (tc.wantFailErr == "") != (res.FailErr == "") {
				t.Errorf("FailErr = %q, want it to contain %q", res.FailErr, tc.wantFailErr)
			}
		})
	}
}
