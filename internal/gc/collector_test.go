package gc_test

import (
	"os"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// testEnv bundles a small vanilla-JVM collector for tests.
type testEnv struct {
	clock   *simclock.Clock
	classes *vm.ClassTable
	col     *gc.Collector
	node    *vm.Class // 2 refs, 1 prim
	cell    *vm.Class // 0 refs, 1 prim
	arr     *vm.Class // ref array
	parr    *vm.Class // prim array
}

func newTestEnv(t *testing.T, h1Size int64) *testEnv {
	t.Helper()
	clock := simclock.New()
	classes := vm.NewClassTable()
	e := &testEnv{
		clock:   clock,
		classes: classes,
		node:    classes.MustFixed("Node", 2, 1),
		cell:    classes.MustFixed("Cell", 0, 1),
		arr:     classes.MustRefArray("Object[]"),
		parr:    classes.MustPrimArray("long[]"),
	}
	as := &vm.AddressSpace{}
	e.col = gc.New(heap.New(heap.DefaultConfig(h1Size), as), as, classes, clock, nil)
	verifyFromEnv(e.col)
	return e
}

// verifyFromEnv gives a collector built directly by gc.New the verifier
// that rt.NewSession registers on sessions: with TH_VERIFY=1 the full heap
// is checked before and after every pause, and the first violation panics
// with a check.Report.
func verifyFromEnv(col *gc.Collector) {
	if os.Getenv("TH_VERIFY") == "1" {
		col.Hooks().Register(&envVerifier{col: col})
	}
}

type envVerifier struct {
	gc.BaseHook
	col *gc.Collector
}

func (h *envVerifier) BeforeGC(p gc.Phase) { h.verify("before ", p) }
func (h *envVerifier) AfterGC(p gc.Phase)  { h.verify("after ", p) }

func (h *envVerifier) verify(when string, p gc.Phase) {
	if failures := h.col.VerifyNow(); len(failures) > 0 {
		panic(check.Report(when+p.String()+" GC", failures))
	}
}

// allocNode builds a Node{left, right, value}.
func (e *testEnv) allocNode(t *testing.T, left, right vm.Addr, value uint64) vm.Addr {
	t.Helper()
	a, err := e.col.Alloc(e.node)
	if err != nil {
		t.Fatalf("alloc node: %v", err)
	}
	e.col.WriteRef(a, 0, left)
	e.col.WriteRef(a, 1, right)
	e.col.WritePrim(a, 0, value)
	return a
}

// buildList builds a linked list of n nodes (next in ref 0), values 0..n-1,
// returning a rooted handle to the head.
func (e *testEnv) buildList(t *testing.T, n int) *vm.Handle {
	t.Helper()
	head := e.col.NewHandle(vm.NullAddr)
	for i := n - 1; i >= 0; i-- {
		a := e.allocNode(t, head.Addr(), vm.NullAddr, uint64(i))
		head.Set(a)
	}
	return head
}

// checkList verifies the list under h holds values 0..n-1.
func (e *testEnv) checkList(t *testing.T, h *vm.Handle, n int) {
	t.Helper()
	a := h.Addr()
	for i := 0; i < n; i++ {
		if a.IsNull() {
			t.Fatalf("list truncated at %d/%d", i, n)
		}
		if got := e.col.ReadPrim(a, 0); got != uint64(i) {
			t.Fatalf("node %d: value %d, want %d", i, got, i)
		}
		a = e.col.ReadRef(a, 0)
	}
	if !a.IsNull() {
		t.Fatalf("list longer than %d nodes", n)
	}
}

func TestAllocAndRead(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	a := e.allocNode(t, vm.NullAddr, vm.NullAddr, 42)
	if got := e.col.ReadPrim(a, 0); got != 42 {
		t.Fatalf("prim = %d, want 42", got)
	}
	if got := e.col.ReadRef(a, 0); !got.IsNull() {
		t.Fatalf("fresh ref field = %v, want null", got)
	}
	if e.col.Mem().ClassOf(a).Name != "Node" {
		t.Fatalf("class = %q", e.col.Mem().ClassOf(a).Name)
	}
}

func TestMinorGCPreservesGraph(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	h := e.buildList(t, 50)
	if err := e.col.MinorGC(); err != nil {
		t.Fatalf("minor GC: %v", err)
	}
	e.checkList(t, h, 50)
	if e.col.GCStats().MinorCount != 1 {
		t.Fatalf("minor count = %d", e.col.GCStats().MinorCount)
	}
}

func TestMinorGCDropsGarbage(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	h := e.buildList(t, 10)
	g := e.buildList(t, 1000) // garbage after release
	e.col.Release(g)
	usedBefore := e.col.H1.YoungUsed()
	if err := e.col.MinorGC(); err != nil {
		t.Fatalf("minor GC: %v", err)
	}
	e.checkList(t, h, 10)
	usedAfter := e.col.H1.YoungUsed() + e.col.H1.Old.Used()
	if usedAfter >= usedBefore {
		t.Fatalf("no reclamation: before=%d after=%d", usedBefore, usedAfter)
	}
}

func TestTenuringPromotesToOld(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	h := e.buildList(t, 20)
	for i := 0; i < e.col.H1.Cfg.TenureAge+1; i++ {
		if err := e.col.MinorGC(); err != nil {
			t.Fatalf("minor GC %d: %v", i, err)
		}
	}
	if !e.col.H1.InOld(h.Addr()) {
		t.Fatalf("head not tenured: %v", h.Addr())
	}
	e.checkList(t, h, 20)
}

func TestCardTableTracksOldToYoung(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	// Tenure a node into the old generation.
	h := e.buildList(t, 1)
	for i := 0; i < e.col.H1.Cfg.TenureAge+1; i++ {
		if err := e.col.MinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	old := h.Addr()
	if !e.col.H1.InOld(old) {
		t.Fatalf("setup: node not in old gen")
	}
	// Point the old node at a fresh young node; the ONLY reference to the
	// young node is the old->young edge, so survival proves the card
	// table works.
	young := e.allocNode(t, vm.NullAddr, vm.NullAddr, 777)
	e.col.WriteRef(old, 1, young)
	if err := e.col.MinorGC(); err != nil {
		t.Fatal(err)
	}
	got := e.col.ReadRef(old, 1)
	if got.IsNull() {
		t.Fatal("young target lost")
	}
	if v := e.col.ReadPrim(got, 0); v != 777 {
		t.Fatalf("young target value = %d, want 777", v)
	}
}

func TestMajorGCCompactsAndPreserves(t *testing.T) {
	e := newTestEnv(t, 1<<21)
	h := e.buildList(t, 200)
	g := e.buildList(t, 2000)
	// Push everything into the old generation.
	for i := 0; i < 5; i++ {
		if err := e.col.MinorGC(); err != nil {
			t.Fatal(err)
		}
	}
	e.col.Release(g)
	oldUsedBefore := e.col.H1.Old.Used()
	if err := e.col.FullGC(); err != nil {
		t.Fatalf("major GC: %v", err)
	}
	e.checkList(t, h, 200)
	if got := e.col.H1.Old.Used(); got >= oldUsedBefore {
		t.Fatalf("compaction reclaimed nothing: before=%d after=%d", oldUsedBefore, got)
	}
	if e.col.H1.YoungUsed() != 0 {
		t.Fatalf("young not empty after major GC: %d", e.col.H1.YoungUsed())
	}
}

func TestRefArrayAndPrimArray(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	arr, err := e.col.AllocRefArray(e.arr, 16)
	if err != nil {
		t.Fatal(err)
	}
	ah := e.col.NewHandle(arr)
	for i := 0; i < 16; i++ {
		n := e.allocNode(t, vm.NullAddr, vm.NullAddr, uint64(i*i))
		e.col.WriteRef(ah.Addr(), i, n)
	}
	p, err := e.col.AllocPrimArray(e.parr, 8)
	if err != nil {
		t.Fatal(err)
	}
	ph := e.col.NewHandle(p)
	for i := 0; i < 8; i++ {
		e.col.WritePrim(ph.Addr(), i, uint64(100+i))
	}
	if err := e.col.MinorGC(); err != nil {
		t.Fatal(err)
	}
	if err := e.col.FullGC(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		n := e.col.ReadRef(ah.Addr(), i)
		if v := e.col.ReadPrim(n, 0); v != uint64(i*i) {
			t.Fatalf("arr[%d] = %d, want %d", i, v, i*i)
		}
	}
	for i := 0; i < 8; i++ {
		if v := e.col.ReadPrim(ph.Addr(), i); v != uint64(100+i) {
			t.Fatalf("prim[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

func TestOOMOnHeapExhaustion(t *testing.T) {
	e := newTestEnv(t, 1<<17) // 128 KB heap
	h := e.col.NewHandle(vm.NullAddr)
	var err error
	for i := 0; i < 1_000_000; i++ {
		var a vm.Addr
		a, err = e.col.Alloc(e.node)
		if err != nil {
			break
		}
		e.col.WriteRef(a, 0, h.Addr())
		h.Set(a) // keep everything live
	}
	if err == nil {
		t.Fatal("expected OOM, got none")
	}
	if _, ok := err.(*gc.OOMError); !ok {
		t.Fatalf("error type %T, want *gc.OOMError", err)
	}
	if e.col.OOM() == nil {
		t.Fatal("OOM not latched")
	}
}

func TestSharedStructurePreservedAcrossGC(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	shared := e.allocNode(t, vm.NullAddr, vm.NullAddr, 9)
	a := e.allocNode(t, shared, vm.NullAddr, 1)
	b := e.allocNode(t, shared, vm.NullAddr, 2)
	ha, hb := e.col.NewHandle(a), e.col.NewHandle(b)
	if err := e.col.MinorGC(); err != nil {
		t.Fatal(err)
	}
	if err := e.col.FullGC(); err != nil {
		t.Fatal(err)
	}
	sa := e.col.ReadRef(ha.Addr(), 0)
	sb := e.col.ReadRef(hb.Addr(), 0)
	if sa != sb {
		t.Fatalf("shared object duplicated: %v vs %v", sa, sb)
	}
	if v := e.col.ReadPrim(sa, 0); v != 9 {
		t.Fatalf("shared value = %d", v)
	}
}

func TestGCTimeIsCharged(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	_ = e.buildList(t, 500)
	if err := e.col.MinorGC(); err != nil {
		t.Fatal(err)
	}
	if err := e.col.FullGC(); err != nil {
		t.Fatal(err)
	}
	b := e.clock.Breakdown()
	if b.Get(simclock.MinorGC) <= 0 {
		t.Fatal("no minor GC time charged")
	}
	if b.Get(simclock.MajorGC) <= 0 {
		t.Fatal("no major GC time charged")
	}
	cys := e.col.GCStats().Cycles
	if len(cys) != 2 {
		t.Fatalf("cycles = %d, want 2", len(cys))
	}
	var phases int
	for p := 0; p < int(gc.NumMajorPhases); p++ {
		if cys[1].Phases[p] > 0 {
			phases++
		}
	}
	if phases == 0 {
		t.Fatal("no major GC phase durations recorded")
	}
}

func TestMajorGCOOMWhenLiveExceedsOld(t *testing.T) {
	e := newTestEnv(t, 1<<17)
	// Keep everything live until compaction cannot fit it.
	h := e.col.NewHandle(vm.NullAddr)
	var err error
	for i := 0; i < 100000; i++ {
		var a vm.Addr
		a, err = e.col.Alloc(e.node)
		if err != nil {
			break
		}
		e.col.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	var oom *gc.OOMError
	if err == nil {
		t.Fatal("no OOM")
	}
	if !errorsAs(err, &oom) {
		t.Fatalf("error %T", err)
	}
	// Latched: all further allocations fail fast.
	if _, err2 := e.col.Alloc(e.node); err2 == nil {
		t.Fatal("allocation succeeded after OOM")
	}
}

func errorsAs(err error, target **gc.OOMError) bool {
	o, ok := err.(*gc.OOMError)
	if ok {
		*target = o
	}
	return ok
}

func TestLargeObjectGoesDirectlyOld(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	// Bigger than half of eden: bypasses the young generation.
	edenCap := e.col.H1.Eden.Capacity()
	n := int(edenCap/8/2) + 64
	a, err := e.col.AllocPrimArray(e.parr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !e.col.H1.InOld(a) {
		t.Fatalf("large object in young gen: %v", a)
	}
}

func TestBarrierCountsExecutions(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	a := e.allocNode(t, vm.NullAddr, vm.NullAddr, 1)
	n0 := e.col.GCStats().BarrierExecutions
	e.col.WriteRef(a, 0, vm.NullAddr)
	e.col.WriteRef(a, 1, vm.NullAddr)
	if got := e.col.GCStats().BarrierExecutions - n0; got != 2 {
		t.Fatalf("barriers = %d", got)
	}
}

func TestHandleReleasedMidGraphIsCollected(t *testing.T) {
	e := newTestEnv(t, 1<<20)
	keep := e.buildList(t, 10)
	drop := e.buildList(t, 500)
	usedBefore := e.col.H1.Used()
	e.col.Release(drop)
	if !drop.IsNull() {
		t.Fatal("release did not null the handle")
	}
	if err := e.col.FullGC(); err != nil {
		t.Fatal(err)
	}
	if e.col.H1.Used() >= usedBefore {
		t.Fatal("garbage survived")
	}
	e.checkList(t, keep, 10)
}
