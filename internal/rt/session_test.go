package rt

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// allKinds lists every runtime kind the factory must construct.
var allKinds = []Kind{KindPS, KindTH, KindG1, KindMO, KindPanthera, KindG1TH, KindNG2C, KindDeca}

// testSpec builds a small-but-valid Spec for the kind.
func testSpec(k Kind) Spec {
	spec := Spec{Kind: k, H1Size: 4 * storage.MB}
	switch k {
	case KindTH, KindG1TH, KindNG2C, KindDeca:
		cfg := core.DefaultConfig(16 * storage.MB)
		cfg.RegionSize = 64 * storage.KB
		spec.TH = &cfg
	case KindMO:
		spec.DRAMCacheBytes = 1 * storage.MB
	case KindPanthera:
		spec.DRAMOldBytes = 1 * storage.MB
	}
	return spec
}

// driveMutator runs a small allocation/barrier workload ending in a
// forced major collection — enough to exercise allocation, barriers, and
// the hook plane on every runtime kind.
func driveMutator(tb testing.TB, r Runtime) {
	tb.Helper()
	node := r.Classes().MustFixed("sess.Node", 1, 2)
	h := r.NewHandle(vm.NullAddr)
	for i := 0; i < 400; i++ {
		a, err := r.Alloc(node)
		if err != nil {
			tb.Fatalf("Alloc %d: %v", i, err)
		}
		r.WriteRef(a, 0, h.Addr())
		if i%3 == 0 {
			h.Set(a)
		}
	}
	if err := r.FullGC(); err != nil {
		tb.Fatalf("FullGC: %v", err)
	}
}

// TestNewSessionAllKinds is the factory's acceptance table: every runtime
// kind × verify on/off × fault plan nil/non-nil builds a wired session
// whose hook plane, injector, and second heap match the spec, and which
// survives a smoke workload.
func TestNewSessionAllKinds(t *testing.T) {
	// The CI verify job exports TH_VERIFY=1, which force-registers the
	// verifier at the collector level regardless of the spec.
	envVerify := os.Getenv("TH_VERIFY") == "1"
	for _, kind := range allKinds {
		for _, verify := range []bool{false, true} {
			for _, withPlan := range []bool{false, true} {
				name := fmt.Sprintf("%v/verify=%v/fault=%v", kind, verify, withPlan)
				t.Run(name, func(t *testing.T) {
					spec := testSpec(kind)
					spec.Verify = verify
					if withPlan {
						spec.FaultPlan = &fault.Plan{Seed: 7} // zero rates: injector wired, no injections
					}
					ses := NewSession(spec)
					if ses.Runtime == nil || ses.Clock == nil || ses.Classes == nil || ses.Device == nil {
						t.Fatalf("session has nil core resources: %+v", ses)
					}
					wantTH := kind == KindTH || kind == KindG1TH || kind == KindNG2C || kind == KindDeca
					if (ses.TH != nil) != wantTH {
						t.Errorf("TH presence: got %v want %v", ses.TH != nil, wantTH)
					}
					if (ses.Injector != nil) != withPlan {
						t.Errorf("injector presence: got %v want %v", ses.Injector != nil, withPlan)
					}
					wantVerify := verify || envVerify
					ve, ok := ses.Runtime.(interface{ VerifyEnabled() bool })
					if !ok {
						t.Fatalf("runtime %T does not expose VerifyEnabled", ses.Runtime)
					}
					if ve.VerifyEnabled() != wantVerify {
						t.Errorf("VerifyEnabled: got %v want %v", ve.VerifyEnabled(), wantVerify)
					}
					wantHooks := 1 // EventStats
					if wantVerify {
						wantHooks++
					}
					if kind == KindTH || kind == KindNG2C || kind == KindDeca {
						wantHooks++ // recovery.Manager (default policy)
					}
					if got := ses.Runtime.Hooks().Len(); got != wantHooks {
						t.Errorf("hook count: got %d want %d", got, wantHooks)
					}
					wantRec := kind == KindTH || kind == KindNG2C || kind == KindDeca
					if (ses.Recovery != nil) != wantRec {
						t.Errorf("recovery presence: got %v want %v", ses.Recovery != nil, wantRec)
					}
					driveMutator(t, ses.Runtime)
					if ses.Events.MajorGCs < 1 {
						t.Errorf("EventStats.MajorGCs = %d after FullGC, want >= 1", ses.Events.MajorGCs)
					}
					if ses.Events.Faults != 0 || ses.Events.OOMs != 0 {
						t.Errorf("unexpected fault/OOM events: %+v", ses.Events)
					}
					if ses.Fault() != nil {
						t.Errorf("Fault() = %v on a healthy run", ses.Fault())
					}
				})
			}
		}
	}
}

// TestTeraHeapKindsRequireTH: every registry row flagged TeraHeap refuses
// a spec without a TeraHeap configuration, naming the kind, and the set
// of flagged rows is exactly the kinds the factory gives a second heap.
func TestTeraHeapKindsRequireTH(t *testing.T) {
	var flagged []Kind
	for _, info := range Kinds() {
		if !info.TeraHeap {
			continue
		}
		flagged = append(flagged, info.Kind)
		t.Run(info.Name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := "Spec.TH is required for kind " + info.Name; !strings.Contains(msg, want) {
					t.Errorf("NewSession with nil TH: panic %q, want it to contain %q", msg, want)
				}
			}()
			NewSession(Spec{Kind: info.Kind, H1Size: 4 * storage.MB})
		})
	}
	want := []Kind{KindTH, KindG1TH, KindNG2C, KindDeca}
	if fmt.Sprint(flagged) != fmt.Sprint(want) {
		t.Errorf("TeraHeap rows = %v, want %v", flagged, want)
	}
}

// legacyRuntime constructs the kind the way the experiment runners did
// before the session factory existed.
func legacyRuntime(spec Spec) Runtime {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	switch spec.Kind {
	case KindPS:
		return NewJVM(Options{H1Size: spec.H1Size}, nil, clock)
	case KindTH:
		return NewJVM(Options{H1Size: spec.H1Size, TH: spec.TH, H2Device: dev}, nil, clock)
	case KindG1:
		return g1.New(g1.DefaultConfig(spec.H1Size), nil, clock)
	case KindG1TH:
		g, _ := g1.NewWithTeraHeap(g1.DefaultConfig(spec.H1Size), *spec.TH, dev, nil, clock)
		return g
	case KindMO:
		return NewMemoryModeJVM(spec.H1Size, spec.DRAMCacheBytes, dev, nil, clock)
	case KindPanthera:
		return NewPantheraJVM(spec.H1Size, spec.DRAMOldBytes, dev, nil, clock)
	case KindNG2C:
		j := NewJVM(Options{H1Size: spec.H1Size, TH: spec.TH, H2Device: dev}, nil, clock)
		j.SetPlacementPolicy(placement.NewNG2C(placement.DefaultNG2CConfig()))
		return j
	case KindDeca:
		// Deca's lifetime regions live on a DRAM-cost device.
		j := NewJVM(Options{H1Size: spec.H1Size, TH: spec.TH,
			H2Device: storage.NewDevice(storage.DRAM, clock)}, nil, clock)
		j.SetPlacementPolicy(placement.NewDeca())
		return j
	}
	panic("unknown kind")
}

// TestSessionMatchesLegacyConstruction: the factory is a pure refactor of
// the old per-runner construction code, so a session-built runtime and a
// legacy-built one must produce identical simulated time and GC activity
// on the same workload.
func TestSessionMatchesLegacyConstruction(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(build func(Spec) Runtime) (time.Duration, int, int) {
				spec := testSpec(kind)
				r := build(spec)
				driveMutator(t, r)
				st := r.GCStats()
				return r.Breakdown().Total(), st.MinorCount, st.MajorCount
			}
			lt, lminor, lmajor := run(legacyRuntime)
			st, sminor, smajor := run(func(s Spec) Runtime { return NewSession(s).Runtime })
			if lt != st || lminor != sminor || lmajor != smajor {
				t.Errorf("session diverges from legacy construction: legacy(total=%v minor=%d major=%d) session(total=%v minor=%d major=%d)",
					lt, lminor, lmajor, st, sminor, smajor)
			}
		})
	}
}

// TestConcurrentSessionsDoNotShareConfig: two sessions with opposite
// verify/fault settings, driven concurrently, each keep their own
// configuration — the property that lets verified chaos runs interleave
// with unverified baseline runs in one process.
func TestConcurrentSessionsDoNotShareConfig(t *testing.T) {
	if os.Getenv("TH_VERIFY") == "1" {
		t.Skip("TH_VERIFY=1 force-enables the verifier on every collector")
	}
	var wg sync.WaitGroup
	check := func(verify, withPlan bool) {
		defer wg.Done()
		spec := testSpec(KindTH)
		spec.Verify = verify
		if withPlan {
			spec.FaultPlan = &fault.Plan{Seed: 11}
		}
		ses := NewSession(spec)
		driveMutator(t, ses.Runtime)
		if got := ses.Runtime.(interface{ VerifyEnabled() bool }).VerifyEnabled(); got != verify {
			t.Errorf("verify=%v session observed VerifyEnabled=%v", verify, got)
		}
		if (ses.Injector != nil) != withPlan {
			t.Errorf("withPlan=%v session observed injector=%v", withPlan, ses.Injector != nil)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go check(true, true)
		go check(false, false)
	}
	wg.Wait()
}
