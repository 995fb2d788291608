package gc_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// TestShadowModelVerified runs the shadow-model property test with the
// heap invariant verifier enabled: every GC of the run is bracketed by a
// full-heap, full-metadata verification pass that panics on the first
// violation.
func TestShadowModelVerified(t *testing.T) {
	for _, withTH := range []bool{false, true} {
		newShadowModel(t, withTH, true, 99).run(1500)
	}
}

// verifyEnv builds a small PS collector (no TeraHeap) with an already-tenured
// object holding a young reference, the setup the H1 card rules are about.
func verifyEnv(t *testing.T) (c *gc.Collector, old, young vm.Addr) {
	t.Helper()
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	c = rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB, Classes: classes}).Runtime.(*gc.Collector)
	a, err := c.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewHandle(a)
	for i := 0; i < c.H1.Cfg.TenureAge+1; i++ {
		if err := c.MinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	old = h.Addr()
	if !c.H1.InOld(old) {
		t.Fatalf("object %v not tenured after %d minor GCs", old, c.H1.Cfg.TenureAge+1)
	}
	y, err := c.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteRef(old, 0, y)
	return c, old, y
}

// TestVerifyCatchesCardCorruption pins the structured failure the verifier
// must produce when an old-to-young card is lost: the violation names the
// holder object and the card.
func TestVerifyCatchesCardCorruption(t *testing.T) {
	c, old, _ := verifyEnv(t)
	if fails := c.VerifyNow(); len(fails) != 0 {
		t.Fatalf("clean heap reported violations: %v", fails)
	}
	ci := c.H1.Cards.Index(old)
	c.H1.Cards.Set(ci, heap.CardClean)
	fails := c.VerifyNow()
	if len(fails) == 0 {
		t.Fatal("cleared old-to-young card not detected")
	}
	f := fails[0]
	if f.Rule != "h1-card-missing-dirty" || f.Holder != old || f.Card != ci {
		t.Fatalf("wrong diagnosis: %+v (want rule=h1-card-missing-dirty holder=%v card=%d)", f, old, ci)
	}
}

// TestVerifyCatchesDanglingRef pins the failure for a reference targeting
// a non-object address.
func TestVerifyCatchesDanglingRef(t *testing.T) {
	c, old, young := verifyEnv(t)
	// Point the old object's second field one word past the young object's
	// header — inside the heap but not an object start.
	c.Mem().SetRefAt(old, 1, young+vm.WordSize)
	fails := c.VerifyNow()
	found := false
	for _, f := range fails {
		if f.Rule == "ref-dangling" && f.Holder == old && f.Field == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dangling reference not diagnosed: %v", fails)
	}
}

// TestCardWalkPromotionKeepsSharing is the regression test for the
// dirty-card-walk bound: the walk used to read the old generation's live
// top, so an object promoted earlier in the same scavenge — landing in a
// card that was dirty at scavenge start — was scanned by the card walk
// before drain() got to it. The card walk resolved its young references
// to to-space copies, and the later worklist scan then re-copied those
// to-space copies, splitting shared structure and leaving a forwarding
// husk behind in a survivor space.
func TestCardWalkPromotionKeepsSharing(t *testing.T) {
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	c := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB, Classes: classes}).Runtime.(*gc.Collector)

	// X: tenured, the last (only) old-generation object, so the next
	// promotion lands in X's card.
	x, err := c.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	hx := c.NewHandle(x)
	for i := 0; i < c.H1.Cfg.TenureAge+1; i++ {
		if err := c.MinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.H1.InOld(hx.Addr()) {
		t.Fatal("X not tenured")
	}

	// Y: aged to the brink, promoted by the NEXT scavenge.
	y, err := c.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	hy := c.NewHandle(y)
	for i := 0; i < c.H1.Cfg.TenureAge-1; i++ {
		if err := c.MinorGC(); err != nil {
			t.Fatal(err)
		}
	}

	// S: fresh young object shared by X (dirtying X's card) and Y.
	s, err := c.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteRef(hx.Addr(), 0, s)
	c.WriteRef(hy.Addr(), 0, s)

	if err := c.MinorGC(); err != nil {
		t.Fatal(err)
	}
	if !c.H1.InOld(hy.Addr()) {
		t.Fatal("Y not promoted")
	}
	sx, sy := c.ReadRef(hx.Addr(), 0), c.ReadRef(hy.Addr(), 0)
	if sx != sy {
		t.Fatalf("shared child split by scavenge: X sees %v, Y sees %v", sx, sy)
	}
	if fails := c.VerifyNow(); len(fails) != 0 {
		t.Fatalf("post-scavenge heap invalid: %v", fails)
	}
}

// TestH2ImageStatusMinorVsMajor pins the status word an object carries
// into H2 to be identical whether it travels the minor-GC direct-promotion
// path or the major-GC closure move, even when a stale mark or closure bit
// is set on the original (as an aborted prior marking cycle would leave
// it). The minor path used to clear only the mark bit, leaking the
// closure bit into the H2 image.
func TestH2ImageStatusMinorVsMajor(t *testing.T) {
	// The heap deliberately holds stale GC bits mid-test: keep the
	// environment's verifier off so the run is deterministic under
	// TH_VERIFY=1.
	t.Setenv("TH_VERIFY", "")
	build := func(viaMinor bool) uint64 {
		classes := vm.NewClassTable()
		node := classes.MustFixed("Node", 2, 1)
		cfg := core.DefaultConfig(64 * storage.MB)
		cfg.RegionSize = 32 * storage.KB
		jvm := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 1 * storage.MB, TH: &cfg, Classes: classes}).Runtime.(*gc.Collector)
		a, err := jvm.Alloc(node)
		if err != nil {
			t.Fatal(err)
		}
		h := jvm.NewHandle(a)
		jvm.TagRoot(h, 7)
		jvm.MoveHint(7)
		m := jvm.Mem()
		m.SetMarked(h.Addr(), true)
		m.SetInClosure(h.Addr(), true)
		if viaMinor {
			if err := jvm.MinorGC(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := jvm.FullGC(); err != nil {
				t.Fatal(err)
			}
		}
		dst := h.Addr()
		if !jvm.InSecondHeap(dst) {
			t.Fatalf("tagged object not moved to H2 (viaMinor=%v)", viaMinor)
		}
		return m.Status(dst)
	}
	minor, major := build(true), build(false)
	if minor&(vm.FlagMark|vm.FlagClosure) != 0 {
		t.Fatalf("minor-path H2 image carries stale GC bits: status=0x%x", minor)
	}
	if major&(vm.FlagMark|vm.FlagClosure) != 0 {
		t.Fatalf("major-path H2 image carries stale GC bits: status=0x%x", major)
	}
	if minor != major {
		t.Fatalf("H2 image status differs by path: minor=0x%x major=0x%x", minor, major)
	}
}
