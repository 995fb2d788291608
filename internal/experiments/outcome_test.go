package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/server"
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

// TestFailedRunLabelsMatchRunNames: a run whose goroutine panics is named
// exactly as its Run function names the run, so failed runs that differ
// only in mode or kind never share a row name.
func TestFailedRunLabelsMatchRunNames(t *testing.T) {
	invalid := server.DefaultConfig()
	invalid.Requests = 0 // rejected by server.Run's validation
	specs := []Spec{
		GiraphSpec(GiraphRun{Workload: "NOPE", Mode: giraph.ModeOOC, DramGB: 74}),
		GiraphSpec(GiraphRun{Workload: "NOPE", Mode: giraph.ModeTH, DramGB: 74}),
		SparkSpec(SparkRun{Workload: "NOPE", Runtime: rt.KindG1TH, DramGB: 70}),
		{Serve: &ServeRun{Kind: rt.KindTH, Cfg: invalid}},
	}
	want := []string{"NOPE/ooc/74GB", "NOPE/th/74GB", "NOPE/g1+th/70GB", "serve/th/56GB/r60k"}
	env := &Env{Jobs: 1}
	for i, r := range env.RunAll(specs) {
		if !r.Failed || r.Name != want[i] {
			t.Errorf("spec %d: Failed=%v Name=%q, want a failed run named %q", i, r.Failed, r.Name, want[i])
		}
	}
	if got := (ServeRun{Kind: rt.KindTH, Cfg: server.DefaultConfig()}).name(); got != want[3] {
		t.Errorf("RunServe name %q, want %q", got, want[3])
	}
	if got := (GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 74}).name(); got != "PR/th/74GB" {
		t.Errorf("RunGiraph name %q, want PR/th/74GB", got)
	}
}

// TestG1THRegionFailIsFaulted: region failures reach the second heap of a
// G1+TeraHeap run, which ends Faulted with the typed region error rather
// than panicking or running on as if the plan were empty.
func TestG1THRegionFailIsFaulted(t *testing.T) {
	plan, err := fault.ParsePlan("seed=1,region-fail=0.1")
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Layers: rt.Layers{FaultPlan: plan}, Jobs: 1}
	r := env.RunAll([]Spec{SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindG1TH, DramGB: 70})})[0]
	if r.Failed || !r.Faulted || !strings.Contains(r.FailErr, "H2 region") {
		t.Fatalf("Failed=%v Faulted=%v FailErr=%q, want a Faulted run with a region error", r.Failed, r.Faulted, r.FailErr)
	}
}
