package g1_test

import (
	"os"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

type env struct {
	g    *g1.G1
	node *vm.Class
	arr  *vm.Class
	parr *vm.Class
}

func newEnv(t *testing.T, h1Size int64) *env {
	t.Helper()
	classes := vm.NewClassTable()
	e := &env{
		node: classes.MustFixed("Node", 2, 1),
		arr:  classes.MustRefArray("Object[]"),
		parr: classes.MustPrimArray("long[]"),
	}
	e.g = g1.New(g1.DefaultConfig(h1Size), classes, simclock.New())
	verifyFromEnv(e.g)
	return e
}

// verifyFromEnv gives a G1 built directly by g1.New the verifier that
// rt.NewSession registers on sessions: with TH_VERIFY=1 the full heap is
// checked before and after every pause, and the first violation panics
// with a check.Report.
func verifyFromEnv(g *g1.G1) {
	if os.Getenv("TH_VERIFY") == "1" {
		g.Hooks().Register(&envVerifier{g: g})
	}
}

type envVerifier struct {
	gc.BaseHook
	g *g1.G1
}

func (h *envVerifier) BeforeGC(p gc.Phase) { h.verify("before ", p) }
func (h *envVerifier) AfterGC(p gc.Phase)  { h.verify("after ", p) }

func (h *envVerifier) verify(when string, p gc.Phase) {
	if failures := h.g.VerifyNow(); len(failures) > 0 {
		panic(check.Report(when+p.String()+" GC", failures))
	}
}

func (e *env) node3(t *testing.T, left, right vm.Addr, v uint64) vm.Addr {
	t.Helper()
	a, err := e.g.Alloc(e.node)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	e.g.WriteRef(a, 0, left)
	e.g.WriteRef(a, 1, right)
	e.g.WritePrim(a, 0, v)
	return a
}

func (e *env) list(t *testing.T, n int) *vm.Handle {
	t.Helper()
	h := e.g.NewHandle(vm.NullAddr)
	for i := n - 1; i >= 0; i-- {
		// Allocate first, then read the handle: the allocation may trigger
		// a GC, and a raw address captured before it would be stale.
		a := e.node3(t, vm.NullAddr, vm.NullAddr, uint64(i))
		e.g.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	return h
}

func (e *env) check(t *testing.T, h *vm.Handle, n int) {
	t.Helper()
	a := h.Addr()
	for i := 0; i < n; i++ {
		if a.IsNull() {
			t.Fatalf("list truncated at %d", i)
		}
		if v := e.g.ReadPrim(a, 0); v != uint64(i) {
			t.Fatalf("node %d = %d", i, v)
		}
		a = e.g.ReadRef(a, 0)
	}
}

func TestG1SurvivesYoungCollections(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 100)
	// Churn garbage to force several young GCs.
	for i := 0; i < 20; i++ {
		g := e.list(t, 500)
		e.g.Release(g)
	}
	if e.g.GCStats().MinorCount == 0 {
		t.Fatal("no young GCs ran")
	}
	e.check(t, h, 100)
}

func TestG1FullGCPreservesGraph(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 200)
	g := e.list(t, 1000)
	e.g.Release(g)
	if err := e.g.FullGC(); err != nil {
		t.Fatalf("full GC: %v", err)
	}
	e.check(t, h, 200)
}

func TestG1MixedCollectionsReclaim(t *testing.T) {
	e := newEnv(t, 1<<21)
	// Small young target → frequent young GCs → fast tenuring into old
	// regions, driving occupancy past the IHOP.
	cfg := g1.DefaultConfig(1 << 21)
	cfg.YoungTarget = 8
	cfg.IHOP = 0.25
	classes := vm.NewClassTable()
	e.node = classes.MustFixed("Node", 2, 1)
	e.arr = classes.MustRefArray("Object[]")
	e.parr = classes.MustPrimArray("long[]")
	e.g = g1.New(cfg, classes, simclock.New())
	verifyFromEnv(e.g)
	h := e.list(t, 100)
	// Create long-lived garbage in old regions: tenure lists, then drop.
	var dead []*vm.Handle
	for i := 0; i < 32; i++ {
		dead = append(dead, e.list(t, 800))
		// Churn to age them into old regions.
		for j := 0; j < 4; j++ {
			tmp := e.list(t, 400)
			e.g.Release(tmp)
		}
	}
	for _, d := range dead {
		e.g.Release(d)
	}
	// Keep allocating: IHOP-triggered marking + mixed GCs reclaim.
	for i := 0; i < 30; i++ {
		tmp := e.list(t, 800)
		e.g.Release(tmp)
	}
	if e.g.OOM() != nil {
		t.Fatalf("unexpected OOM: %v", e.g.OOM())
	}
	e.check(t, h, 100)
	if e.g.GCStats().MajorCount == 0 {
		t.Fatal("no marking/mixed cycles ran")
	}
}

func TestG1HumongousAllocAndReclaim(t *testing.T) {
	e := newEnv(t, 1<<21) // region size 8KB → humongous > 4KB
	cfg := g1.DefaultConfig(1 << 21)
	humWords := int(cfg.RegionSize) // definitely humongous
	a, err := e.g.AllocPrimArray(e.parr, humWords)
	if err != nil {
		t.Fatalf("humongous alloc: %v", err)
	}
	h := e.g.NewHandle(a)
	e.g.WritePrim(a, 0, 99)
	e.g.WritePrim(a, humWords-1, 77)
	// Survive a full GC in place.
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	if h.Addr() != a {
		t.Fatalf("humongous object moved: %v -> %v", a, h.Addr())
	}
	if e.g.ReadPrim(a, 0) != 99 || e.g.ReadPrim(a, humWords-1) != 77 {
		t.Fatal("humongous contents corrupted")
	}
	// Release and confirm the space comes back.
	used1, _ := e.g.HeapUsed()
	e.g.Release(h)
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	used2, _ := e.g.HeapUsed()
	if used2 >= used1 {
		t.Fatalf("humongous run not reclaimed: %d -> %d", used1, used2)
	}
}

func TestG1HumongousFragmentationOOM(t *testing.T) {
	e := newEnv(t, 1<<20) // 128 regions of 8KB (wait: 1MB/256=4KB regions)
	cfg := g1.DefaultConfig(1 << 20)
	humWords := int(cfg.RegionSize/vm.WordSize) * 3 / 4 // ~0.75 region each
	var held []*vm.Handle
	var sawOOM bool
	for i := 0; i < 4096; i++ {
		a, err := e.g.AllocPrimArray(e.parr, humWords)
		if err != nil {
			if _, ok := err.(*gc.OOMError); !ok {
				t.Fatalf("unexpected error type %T", err)
			}
			sawOOM = true
			break
		}
		held = append(held, e.g.NewHandle(a))
	}
	if !sawOOM {
		t.Fatal("expected humongous fragmentation OOM")
	}
	// Each humongous object wasted ~25% of its region: held objects must
	// number fewer than perfect packing would allow.
	if len(held) == 0 {
		t.Fatal("no humongous allocations succeeded")
	}
}

func TestG1SharedStructure(t *testing.T) {
	e := newEnv(t, 1<<20)
	// Root every node while allocating: each allocation may move the others.
	hs := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 5))
	ha := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 1))
	hb := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 2))
	e.g.WriteRef(ha.Addr(), 0, hs.Addr())
	e.g.WriteRef(hb.Addr(), 0, hs.Addr())
	e.g.Release(hs)
	for i := 0; i < 10; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	if err := e.g.FullGC(); err != nil {
		t.Fatal(err)
	}
	sa, sb := e.g.ReadRef(ha.Addr(), 0), e.g.ReadRef(hb.Addr(), 0)
	if sa != sb {
		t.Fatalf("shared object duplicated: %v vs %v", sa, sb)
	}
	if e.g.ReadPrim(sa, 0) != 5 {
		t.Fatal("shared value corrupted")
	}
}

func TestG1CardTableOldToYoung(t *testing.T) {
	e := newEnv(t, 1<<20)
	h := e.list(t, 1)
	// Tenure the node.
	for i := 0; i < 8; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	// Allocate the young node before reading the old node's address: the
	// allocation may move the (not yet tenured) holder.
	hy := e.g.NewHandle(e.node3(t, vm.NullAddr, vm.NullAddr, 321))
	e.g.WriteRef(h.Addr(), 1, hy.Addr())
	e.g.Release(hy) // now kept alive only by the old-to-young edge
	// Force young GCs via churn.
	for i := 0; i < 8; i++ {
		tmp := e.list(t, 400)
		e.g.Release(tmp)
	}
	got := e.g.ReadRef(h.Addr(), 1)
	if got.IsNull() {
		t.Fatal("young target lost")
	}
	if v := e.g.ReadPrim(got, 0); v != 321 {
		t.Fatalf("young target = %d", v)
	}
}
