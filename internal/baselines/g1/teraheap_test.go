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

// TestG1THMarkingCycleFixesEveryHolder builds, under the verifier, the
// three reference holders a marking cycle must rewrite beyond handle
// roots: an H2 backward reference into a mixed collection set, an H1
// field pointing at an object the cycle moves to H2, and an H2 backward
// reference to such an object. Each fixed reference must equal the
// address its rooted twin reaches and read back its payload, before and
// after a full GC.
func TestG1THMarkingCycleFixesEveryHolder(t *testing.T) {
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	thCfg := core.DefaultConfig(64 * storage.MB)
	thCfg.RegionSize = 32 * storage.KB
	ses := rt.NewSession(rt.Spec{Kind: rt.KindG1TH, H1Size: 1 << 21, TH: &thCfg, Classes: classes,
		Layers: rt.Layers{Verify: true}})
	g := ses.Runtime.(*g1.G1)

	// Cycle 1 moves group a to H2; its elements become the H2 holders.
	a := buildGroup(t, g, node, 50)
	g.TagRoot(a, 5)
	g.MoveHint(5)
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if !g.InSecondHeap(a.Addr()) {
		t.Fatal("group a not moved")
	}

	// Group b stays in H1 until cycle 2; holder is an H1 object outside
	// every closure whose field points into b.
	b := buildGroup(t, g, node, 50)
	holder, err := g.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	hh := g.NewHandle(holder)
	g.WriteRef(holder, 0, g.ReadRef(b.Addr(), 7))
	// This group stays live, so the regions it packs into are denser than the
	// target's.
	buildGroup(t, g, node, 600)

	// tgt sits among garbage, so after the full GC packs it into an old
	// region and the garbage dies, that region is the sparsest mixed
	// candidate.
	before := buildGroup(t, g, node, 300)
	tgt, err := g.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	g.WritePrim(tgt, 0, 4242)
	th := g.NewHandle(tgt)
	after := buildGroup(t, g, node, 300)
	if err := g.FullGC(); err != nil {
		t.Fatal(err)
	}
	g.Release(before)
	g.Release(after)
	if !g.InOldForTest(th.Addr()) {
		t.Fatal("target not in an old region after full GC")
	}

	// H2 backward references: one to the mixed candidate, one into b.
	toTgt := g.ReadRef(a.Addr(), 10)
	toB := g.ReadRef(a.Addr(), 20)
	g.WriteRef(toTgt, 0, th.Addr())
	g.WriteRef(toB, 0, g.ReadRef(b.Addr(), 3))

	tgt0, b0 := th.Addr(), b.Addr()
	g.TagRoot(b, 6)
	g.MoveHint(6)
	if err := g.MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if th.Addr() == tgt0 {
		t.Fatal("mixed collection did not evacuate the target")
	}
	if b.Addr() == b0 || !g.InSecondHeap(b.Addr()) {
		t.Fatal("group b not moved to H2")
	}

	check := func(when string) {
		t.Helper()
		cases := []struct {
			name      string
			got, want vm.Addr
			payload   uint64
		}{
			{"H2 backward ref into the mixed collection set", g.ReadRef(toTgt, 0), th.Addr(), 4242},
			{"H1 field to an object moved to H2", g.ReadRef(hh.Addr(), 0), g.ReadRef(b.Addr(), 7), 7},
			{"H2 backward ref to an object moved to H2", g.ReadRef(toB, 0), g.ReadRef(b.Addr(), 3), 3},
		}
		for _, c := range cases {
			if c.got != c.want {
				t.Errorf("%s: %s reads %v, its rooted twin is at %v", when, c.name, c.got, c.want)
				continue
			}
			if v := g.ReadPrim(c.got, 0); v != c.payload {
				t.Errorf("%s: %s payload %d, want %d", when, c.name, v, c.payload)
			}
		}
	}
	check("after marking")
	if err := g.FullGC(); err != nil {
		t.Fatal(err)
	}
	check("after full GC")
}
