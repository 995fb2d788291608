package rt

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
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
	// The CI verify job exports TH_VERIFY=1, which makes NewSession
	// register the verifier regardless of the spec.
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
					if got := ses.verifier != nil; got != wantVerify {
						t.Errorf("verifier registered: got %v want %v", got, wantVerify)
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

// drivePressure follows driveMutator with enough young garbage to force
// minor collections and enough cold arrays to reach Panthera's NVM part
// of the old generation and MO's NVM behind its DRAM cache.
func drivePressure(tb testing.TB, r Runtime) {
	tb.Helper()
	node := r.Classes().ByName("sess.Node")
	cold := r.Classes().MustPrimArray("sess.cold[]")
	for i := 0; i < 600; i++ {
		a, err := r.AllocColdPrimArray(cold, 256)
		if err != nil {
			tb.Fatalf("AllocColdPrimArray %d: %v", i, err)
		}
		r.WritePrim(a, i%256, uint64(i))
	}
	h := r.NewHandle(vm.NullAddr)
	for i := 0; i < 30000; i++ {
		a, err := r.Alloc(node)
		if err != nil {
			tb.Fatalf("Alloc %d: %v", i, err)
		}
		r.WriteRef(a, 0, h.Addr())
		if i%100 == 0 {
			h.Set(a)
		}
	}
	if err := r.FullGC(); err != nil {
		tb.Fatalf("FullGC: %v", err)
	}
}

// TestSessionMatchesLegacyConstruction pins each kind's simulated time and
// collection counts on testSpec: after driveMutator, and again after
// drivePressure. The literals were recorded when every kind still had a
// standalone constructor beside NewSession and the two agreed, so they
// hold each registry row to the behaviour of the construction code it
// replaced.
func TestSessionMatchesLegacyConstruction(t *testing.T) {
	type pin struct {
		total        time.Duration
		minor, major int
	}
	want := []struct {
		kind             Kind
		mutator, pressed pin
	}{
		{KindPS, pin{207344, 0, 1}, pin{861384, 2, 2}},
		{KindTH, pin{207744, 0, 1}, pin{891784, 2, 2}},
		{KindG1, pin{206004, 0, 1}, pin{858497, 2, 2}},
		{KindMO, pin{544266, 0, 1}, pin{21564196, 2, 2}},
		{KindPanthera, pin{207344, 0, 1}, pin{2436937, 1, 2}},
		{KindG1TH, pin{206004, 0, 1}, pin{858497, 2, 2}},
		{KindNG2C, pin{207744, 0, 1}, pin{891784, 2, 2}},
		{KindDeca, pin{207744, 0, 1}, pin{891784, 2, 2}},
	}
	if len(want) != len(allKinds) {
		t.Fatalf("pinned %d kinds, registry has %d", len(want), len(allKinds))
	}
	for _, w := range want {
		t.Run(w.kind.String(), func(t *testing.T) {
			r := NewSession(testSpec(w.kind)).Runtime
			observe := func() pin {
				st := r.GCStats()
				return pin{r.Breakdown().Total(), st.MinorCount, st.MajorCount}
			}
			driveMutator(t, r)
			if got := observe(); got != w.mutator {
				t.Errorf("after driveMutator: got %+v, want %+v", got, w.mutator)
			}
			drivePressure(t, r)
			if got := observe(); got != w.pressed {
				t.Errorf("after drivePressure: got %+v, want %+v", got, w.pressed)
			}
		})
	}
}

// TestConcurrentSessionsDoNotShareConfig: two sessions with opposite
// verify/fault settings, driven concurrently, each keep their own
// configuration — the property that lets verified chaos runs interleave
// with unverified baseline runs in one process.
func TestConcurrentSessionsDoNotShareConfig(t *testing.T) {
	t.Setenv("TH_VERIFY", "") // the environment would verify every session
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
		if got := ses.verifier != nil; got != verify {
			t.Errorf("verify=%v session observed a registered verifier=%v", verify, got)
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
