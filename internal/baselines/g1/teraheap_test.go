package g1_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func newG1TH(t *testing.T, h1Size int64) (*g1.G1, *core.TeraHeap, *vm.Class, *vm.Class) {
	t.Helper()
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	parr := classes.MustPrimArray("long[]")
	thCfg := core.DefaultConfig(64 * storage.MB)
	thCfg.RegionSize = 32 * storage.KB
	ses := rt.NewSession(rt.Spec{Kind: rt.KindG1TH, H1Size: h1Size, TH: &thCfg, Classes: classes})
	return ses.Runtime.(*g1.G1), ses.TH, node, parr
}

// buildGroup makes a partition-shaped group behind a rooted handle.
func buildGroup(t *testing.T, g *g1.G1, node *vm.Class, n int) *vm.Handle {
	t.Helper()
	arr := g.Classes().ByName("Object[]")
	if arr == nil {
		arr = g.Classes().MustRefArray("Object[]")
	}
	root, err := g.AllocRefArray(arr, n)
	if err != nil {
		t.Fatal(err)
	}
	h := g.NewHandle(root)
	for i := 0; i < n; i++ {
		a, err := g.Alloc(node)
		if err != nil {
			t.Fatal(err)
		}
		g.WritePrim(a, 0, uint64(i))
		g.WriteRef(h.Addr(), i, a)
	}
	return h
}

func TestG1THMovesClosureDuringMarking(t *testing.T) {
	g, th, node, _ := newG1TH(t, 1<<21)
	h := buildGroup(t, g, node, 200)
	g.TagRoot(h, 7)
	g.MoveHint(7)
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if !g.InSecondHeap(h.Addr()) {
		t.Fatal("group never moved to H2 under G1")
	}
	// Still directly readable, whole closure travelled.
	for i := 0; i < 200; i++ {
		el := g.ReadRef(h.Addr(), i)
		if !g.InSecondHeap(el) {
			t.Fatalf("element %d stayed in H1", i)
		}
		if v := g.ReadPrim(el, 0); v != uint64(i) {
			t.Fatalf("element %d = %d", i, v)
		}
	}
	if th.Stats().ObjectsMoved < 201 {
		t.Fatalf("moved %d objects", th.Stats().ObjectsMoved)
	}
}

func TestG1THHumongousMovesFreeRuns(t *testing.T) {
	g, th, _, parr := newG1TH(t, 1<<21)
	humWords := int(g.RegionSize()/8) * 3 / 2 // 1.5 regions
	a, err := g.AllocPrimArray(parr, humWords)
	if err != nil {
		t.Fatal(err)
	}
	h := g.NewHandle(a)
	g.WritePrim(a, 0, 42)
	g.WritePrim(a, humWords-1, 99)
	g.TagRoot(h, 3)
	g.MoveHint(3)
	used0, _ := g.HeapUsed()
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if !g.InSecondHeap(h.Addr()) {
		t.Fatal("humongous object never moved to H2")
	}
	if g.ReadPrim(h.Addr(), 0) != 42 || g.ReadPrim(h.Addr(), humWords-1) != 99 {
		t.Fatal("humongous contents corrupted by move")
	}
	used1, _ := g.HeapUsed()
	if used1 >= used0 {
		t.Fatalf("humongous run not freed: %d -> %d", used0, used1)
	}
	if th.UsedBytes() == 0 {
		t.Fatal("H2 empty after humongous move")
	}
}

func TestG1THBackwardRefsSurvive(t *testing.T) {
	g, _, node, _ := newG1TH(t, 1<<21)
	h := buildGroup(t, g, node, 50)
	g.TagRoot(h, 5)
	g.MoveHint(5)
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if !g.InSecondHeap(h.Addr()) {
		t.Fatal("group not moved")
	}
	// Mutate an H2 element to reference a fresh H1 object; young GCs must
	// keep it alive via the H2 card table.
	el := g.ReadRef(h.Addr(), 10)
	young, err := g.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	g.WritePrim(young, 0, 777)
	g.WriteRef(el, 0, young)
	for i := 0; i < 10; i++ {
		tmp := buildGroup(t, g, node, 400)
		g.Release(tmp)
	}
	back := g.ReadRef(el, 0)
	if back.IsNull() || g.InSecondHeap(back) {
		t.Fatalf("backward ref wrong: %v", back)
	}
	if v := g.ReadPrim(back, 0); v != 777 {
		t.Fatalf("backward target = %d", v)
	}
	// And across a full GC (the target is packed to a new address).
	if err := g.FullGC(); err != nil {
		t.Fatal(err)
	}
	if v := g.ReadPrim(g.ReadRef(el, 0), 0); v != 777 {
		t.Fatal("backward ref broken by full GC")
	}
}

func TestG1THRegionReclamation(t *testing.T) {
	g, th, node, _ := newG1TH(t, 1<<21)
	h := buildGroup(t, g, node, 150)
	g.TagRoot(h, 9)
	g.MoveHint(9)
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if !g.InSecondHeap(h.Addr()) {
		t.Fatal("group not moved")
	}
	g.Release(h)
	// The next marking cycle reclaims the dead regions in bulk.
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if th.UsedBytes() != 0 {
		t.Fatalf("H2 still holds %d bytes", th.UsedBytes())
	}
}
