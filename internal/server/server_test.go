package server

import (
	"reflect"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// testSession builds a small session of the given kind, mirroring the
// sizing used by the rt package's own factory tests.
func testSession(kind rt.Kind, plan *fault.Plan) *rt.Session {
	spec := rt.Spec{Kind: kind, H1Size: 4 * storage.MB, Layers: rt.Layers{Verify: true}}
	if kind == rt.KindTH || kind == rt.KindG1TH {
		cfg := core.DefaultConfig(16 * storage.MB)
		cfg.RegionSize = 64 * storage.KB
		spec.TH = &cfg
	}
	spec.FaultPlan = plan
	return rt.NewSession(spec)
}

// testConfig shrinks the default workload so one run stays fast.
func testConfig() Config {
	c := DefaultConfig()
	c.Requests = 3000
	c.Keys = 1024
	c.Clients = 50000
	return c
}

// TestRunDeterminism: two fresh sessions under the same seed produce
// deeply equal Stats — the in-process half of the CLI's two-process
// byte-identical contract.
func TestRunDeterminism(t *testing.T) {
	for _, kind := range []rt.Kind{rt.KindPS, rt.KindTH, rt.KindG1} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() *Stats {
				s, err := Run(testSession(kind, nil), testConfig())
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return s
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same-seed runs diverged:\n a: %v\n b: %v", a, b)
			}
		})
	}
}

// TestRunAccounting checks the conservation laws every run must satisfy:
// offered splits exactly into served + shed, percentiles are monotone,
// and elapsed time covers the full arrival grid.
func TestRunAccounting(t *testing.T) {
	cfg := testConfig()
	s, err := Run(testSession(rt.KindTH, nil), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Offered != int64(cfg.Requests) {
		t.Errorf("Offered = %d, want %d", s.Offered, cfg.Requests)
	}
	if s.Served+s.Shed != s.Offered+s.Retries {
		t.Errorf("served(%d) + shed(%d) != offered(%d) + retries(%d)", s.Served, s.Shed, s.Offered, s.Retries)
	}
	if !(s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.MaxLatency) {
		t.Errorf("percentiles not monotone: %v %v %v max=%v", s.P50, s.P99, s.P999, s.MaxLatency)
	}
	ia, _ := cfg.Interarrival()
	if minElapsed := time.Duration(cfg.Requests) * ia; s.Elapsed < minElapsed {
		t.Errorf("Elapsed = %v shorter than the arrival grid %v", s.Elapsed, minElapsed)
	}
	var winServed, winShed int64
	for _, w := range s.Windows {
		winServed += w.Served
		winShed += w.Shed
	}
	if winServed != s.Served || winShed != s.Shed {
		t.Errorf("windows sum served=%d shed=%d, totals served=%d shed=%d", winServed, winShed, s.Served, s.Shed)
	}
}

// TestRunShedsUnderOverload: at an arrival rate far past the service
// capacity with a tight deadline, the bounded admission queue must shed
// rather than queue without bound, and every shed is final (no retry).
func TestRunShedsUnderOverload(t *testing.T) {
	cfg := testConfig()
	cfg.RatePerSec = 5_000_000 // ~200ns interarrival, below the base service cost
	cfg.Deadline = 20 * time.Microsecond
	cfg.QueueDepth = 8
	s, err := Run(testSession(rt.KindPS, nil), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Shed == 0 {
		t.Errorf("no sheds under a 5M req/s open loop with a 20µs deadline: %v", s)
	}
	if s.Retries != 0 {
		t.Errorf("sheds must be final on a healthy run, got retries=%d", s.Retries)
	}
}

// TestRunDegradedUnderFaults: a TeraHeap session under an aggressive
// fault plan with recovery enabled completes without a fatal error, and
// the SLO report shows the degradation: recovered faults surface as
// degraded replies and client retries, never as a crash.
func TestRunDegradedUnderFaults(t *testing.T) {
	plan, err := fault.ParsePlan("seed=1,region-fail=0.1,wb-fail=0.1,torn=0.1,corrupt=0.1,brownout=500:200x8")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	ses := testSession(rt.KindTH, plan)
	cfg := testConfig()
	cfg.Requests = 20000 // fault injection rides on device traffic; give it a full serve phase
	s, err := Run(ses, cfg)
	if err != nil {
		t.Fatalf("Run under faults: %v", err)
	}
	if ses.Fault() != nil {
		t.Fatalf("session latched a fatal fault: %v", ses.Fault())
	}
	if s.Degraded == 0 {
		t.Errorf("no degraded replies under a 10%% fault plan: %v", s)
	}
	if s.Retries == 0 {
		t.Errorf("no retries under a 10%% fault plan: %v", s)
	}
	if ses.Recovery == nil {
		t.Fatalf("no recovery manager on a KindTH session")
	}
	rs := ses.Recovery.Stats()
	if rs.RecoveredFaults+rs.RegionsQuarantined+rs.SalvagedObjects+rs.BreakerTrips == 0 {
		t.Errorf("recovery manager saw no activity; degradation signal untested: %v", rs.String())
	}
}

// TestPauseCollectorAttribution: the pause-latency collector must observe
// GC pauses during the serve phase and attribute overlapping requests,
// and its histogram must only cover the serve phase (warmup pauses are
// excluded by registration order).
func TestPauseCollectorAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 20000
	s, err := Run(testSession(rt.KindPS, nil), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.GCPauses == 0 {
		t.Errorf("no GC pauses observed during a 20k-request serve phase")
	}
	if s.PauseTime <= 0 {
		t.Errorf("PauseTime = %v, want > 0", s.PauseTime)
	}
}
