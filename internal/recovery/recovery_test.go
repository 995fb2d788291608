package recovery_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// salvageEnv builds a verified TH session under the given plan with a
// tagged+advised closure: one root ref-array holding count 1024-word prim
// arrays, each stamped with a distinctive pattern so post-salvage reads
// can prove the data survived the device failure.
func salvageEnv(t *testing.T, plan *fault.Plan, count int) (*rt.Session, rt.Runtime, *vm.Handle, []*vm.Handle) {
	t.Helper()
	classes := vm.NewClassTable()
	classes.MustRefArray("root[]")
	classes.MustPrimArray("big[]")
	cfg := core.DefaultConfig(64 * storage.MB)
	cfg.RegionSize = 32 * storage.KB
	ses := rt.NewSession(rt.Spec{
		Kind: rt.KindTH, H1Size: 4 * storage.MB, TH: &cfg,
		Classes: classes, Layers: rt.Layers{Verify: true, FaultPlan: plan},
	})
	jvm := ses.Runtime

	root, err := jvm.AllocRefArray(classes.ByName("root[]"), count)
	if err != nil {
		t.Fatal(err)
	}
	h := jvm.NewHandle(root)
	const label = 7
	jvm.TagRoot(h, label)
	var members []*vm.Handle
	for i := 0; i < count; i++ {
		b, err := jvm.AllocPrimArray(classes.ByName("big[]"), 1024) // 8 KB each
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			jvm.WritePrim(b, j, stamp(i, j))
		}
		jvm.WriteRef(h.Addr(), i, b)
		members = append(members, jvm.NewHandle(b))
	}
	jvm.MoveHint(label)
	return ses, jvm, h, members
}

func stamp(i, j int) uint64 { return uint64(i)*1_000_003 + uint64(j) + 1 }

// TestRegionFailureSalvagesClosure is the tentpole end-to-end claim: with
// every region flush failing persistently (region-fail=1), a verified
// major GC must complete, the whole closure must be re-materialized in H1
// with its contents intact, every failed region must be quarantined, the
// latched fault must be absorbed, and the breaker must trip to H1-only.
func TestRegionFailureSalvagesClosure(t *testing.T) {
	ses, jvm, h, members := salvageEnv(t, &fault.Plan{Seed: 7, RegionFailRate: 1}, 16)
	th := ses.TH
	if got := ses.Recovery.Repairs(); got != 0 {
		t.Fatalf("Repairs = %d before any fault, want 0", got)
	}

	if err := jvm.FullGC(); err != nil {
		t.Fatalf("FullGC under region-fail=1: %v", err)
	}
	if f := ses.Fault(); f != nil {
		t.Fatalf("fault still latched after recovery: %v", f)
	}
	if jvm.InSecondHeap(h.Addr()) {
		t.Error("root left in a failed H2 region")
	}
	for i, m := range members {
		if jvm.InSecondHeap(m.Addr()) {
			t.Errorf("member %d left in a failed H2 region", i)
		}
		for j := 0; j < 8; j++ {
			if got := jvm.ReadPrim(m.Addr(), j); got != stamp(i, j) {
				t.Fatalf("member %d word %d = %d after salvage, want %d", i, j, got, stamp(i, j))
			}
		}
	}
	if used := th.UsedBytes(); used != 0 {
		t.Errorf("H2 used %d bytes after quarantining every region, want 0", used)
	}

	rs := ses.RecoveryStats()
	if rs == nil {
		t.Fatal("RecoveryStats = nil on a KindTH session")
	}
	if rs.RegionsQuarantined == 0 || rs.SalvagedObjects == 0 || rs.RecoveredFaults == 0 {
		t.Errorf("recovery did not engage: %s", rs)
	}
	if got, want := ses.Recovery.Repairs(), rs.RecoveredFaults+rs.RegionsQuarantined+rs.BreakerTrips; got != want {
		t.Errorf("Repairs = %d, want %d (faults + quarantines + trips)", got, want)
	}
	if rs.TombstonedObjects != 0 {
		t.Errorf("tombstoned %d objects under a fail-after-write model, want 0 (data stays readable)", rs.TombstonedObjects)
	}
	if ths := th.Stats(); ths.RegionsFailed == 0 || ths.RegionsQuarantined != ths.RegionsFailed {
		t.Errorf("core counters: failed=%d quarantined=%d, want equal and nonzero", ths.RegionsFailed, ths.RegionsQuarantined)
	}

	// The closure spans >= 4 regions at 32 KB, so >= 4 strikes landed:
	// the breaker must have tripped, and a second verified GC must keep
	// the closure in H1 (probes cannot succeed at region-fail=1).
	if rs.BreakerTrips == 0 {
		t.Errorf("breaker did not trip after %d strikes: %s", rs.Strikes, rs)
	}
	if err := jvm.FullGC(); err != nil {
		t.Fatalf("second FullGC in H1-only mode: %v", err)
	}
	if jvm.InSecondHeap(h.Addr()) {
		t.Error("root promoted to H2 while the breaker is open")
	}
	if used := th.UsedBytes(); used != 0 {
		t.Errorf("H2 used %d bytes in H1-only mode, want 0", used)
	}
	if ses.RecoveryStats().BreakerRejects == 0 {
		t.Error("no PrepareMove was rejected while open: the admission gate is not wired")
	}
}

// TestCorruptImageScrubAndTombstone drives silent flush corruption
// (corrupt=1): the scrubber must detect the checksum mismatch, quarantine
// the region, salvage the readable objects, and tombstone — not silently
// drop, not return as wrong data — the objects whose image the device
// lost. The run must stay verifier-clean throughout.
func TestCorruptImageScrubAndTombstone(t *testing.T) {
	ses, jvm, _, _ := salvageEnv(t, &fault.Plan{Seed: 3, CorruptRate: 1}, 16)
	th := ses.TH

	// The scrub visits one region per GC; loop enough pauses to cover every
	// region the first GC created (plus re-promotions until the breaker
	// trips).
	for i := 0; i < 12; i++ {
		if err := jvm.FullGC(); err != nil {
			t.Fatalf("FullGC %d under corrupt=1: %v", i, err)
		}
	}
	if f := ses.Fault(); f != nil {
		t.Fatalf("fault latched: %v", f)
	}
	rs := ses.RecoveryStats()
	if rs.CorruptDetected == 0 {
		t.Fatalf("scrubber never detected the corrupted images: %s (scrubbed=%d)", rs, rs.RegionsScrubbed)
	}
	if rs.TombstonedObjects == 0 {
		t.Errorf("no unreadable object was tombstoned under corrupt=1: %s", rs)
	}
	if ths := th.Stats(); ths.ScrubMismatches == 0 {
		t.Errorf("core ScrubMismatches = 0, want > 0")
	}
	if got := ses.Injector.Stats().CorruptImages; got == 0 {
		t.Error("injector CorruptImages = 0: corruption was never injected")
	}
}
