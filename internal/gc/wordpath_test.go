package gc_test

import (
	"reflect"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// sliceMemory is plain word memory that is not a *vm.RAM: an H1 mapped on
// it has no Words(), so the major GC takes its per-word path, at no
// simulated cost, exactly as the DRAM slice path charges nothing.
type sliceMemory struct{ words []uint64 }

func (m *sliceMemory) Load(a vm.Addr) uint64     { return m.words[a.Word(vm.H1Base)] }
func (m *sliceMemory) Store(a vm.Addr, v uint64) { m.words[a.Word(vm.H1Base)] = v }

// pathEnv is one PS+TeraHeap collector running the scripted workload.
type pathEnv struct {
	t        *testing.T
	clock    *simclock.Clock
	col      *gc.Collector
	th       *core.TeraHeap
	h1       []uint64 // H1's words, whichever memory backs them
	h2Size   int64
	node     *vm.Class // 2 refs, 1 prim
	arr, big *vm.Class // ref array, prim array
}

func newPathEnv(t *testing.T, perWord bool) *pathEnv {
	t.Helper()
	clock := simclock.New()
	classes := vm.NewClassTable()
	e := &pathEnv{
		t:      t,
		clock:  clock,
		h2Size: 4 * 32 * storage.KB,
		node:   classes.MustFixed("Node", 2, 1),
		arr:    classes.MustRefArray("Object[]"),
		big:    classes.MustPrimArray("long[]"),
	}
	cfg := core.DefaultConfig(e.h2Size)
	cfg.RegionSize = 32 * storage.KB
	as := &vm.AddressSpace{}
	e.th = core.New(cfg, storage.NewDevice(storage.NVMeSSD, clock), as, classes, clock)
	var h1 *heap.H1
	if perWord {
		h1 = heap.NewUnmapped(heap.DefaultConfig(1 * storage.MB))
		mem := &sliceMemory{words: make([]uint64, h1.Cfg.H1Size/vm.WordSize)}
		as.Map(vm.H1Base, vm.H1Base+vm.Addr(h1.Cfg.H1Size), mem)
		e.h1 = mem.words
		if h1.Words() != nil {
			t.Fatal("an H1 the caller mapped exposes Words()")
		}
	} else {
		h1 = heap.New(heap.DefaultConfig(1*storage.MB), as)
		e.h1 = h1.Words()
		if e.h1 == nil {
			t.Fatal("a DRAM H1 exposes no Words()")
		}
	}
	e.col = gc.New(h1, as, classes, clock, e.th)
	verifyFromEnv(e.col)
	return e
}

func (e *pathEnv) must(a vm.Addr, err error) vm.Addr {
	e.t.Helper()
	if err != nil {
		e.t.Fatal(err)
	}
	return a
}

// push allocates a node holding v, links it in front of h's list (ref 0)
// with a shortcut to the node after that (ref 1), and makes it the head.
func (e *pathEnv) push(h *vm.Handle, v uint64) {
	e.t.Helper()
	a := e.must(e.col.Alloc(e.node))
	e.col.WritePrim(a, 0, v)
	if prev := h.Addr(); !prev.IsNull() {
		e.col.WriteRef(a, 0, prev)
		if !e.col.InSecondHeap(prev) {
			e.col.WriteRef(a, 1, e.col.ReadRef(prev, 0))
		}
	}
	h.Set(a)
}

// closure roots a tagged, move-advised ref array of n prim arrays of
// words words each under label.
func (e *pathEnv) closure(label uint64, n, words int) *vm.Handle {
	e.t.Helper()
	h := e.col.NewHandle(e.must(e.col.AllocRefArray(e.arr, n)))
	for i := 0; i < n; i++ {
		b := e.must(e.col.AllocPrimArray(e.big, words))
		e.col.WritePrim(b, 0, label<<32|uint64(i))
		e.col.WriteRef(h.Addr(), i, b)
	}
	e.col.TagRoot(h, label)
	e.col.MoveHint(label)
	return h
}

func (e *pathEnv) fullGC() {
	e.t.Helper()
	if err := e.col.FullGC(); err != nil {
		e.t.Fatal(err)
	}
}

func (e *pathEnv) minorGC() {
	e.t.Helper()
	if err := e.col.MinorGC(); err != nil {
		e.t.Fatal(err)
	}
}

// script drives the workload, calling check after every full GC. It
// exercises each path difference: tenured lists, dead old objects, two
// closures moved to H2 (the second overflows H2, so part of it stays in
// H1 with its closure bit cleared there), a backward reference from H2,
// a forward reference into H2, and young survivors in eden and in a
// survivor space at a full GC.
func (e *pathEnv) script(check func(when string)) {
	rnd := workloads.NewRand(3)
	lists := make([]*vm.Handle, 8)
	for i := range lists {
		lists[i] = e.col.NewHandle(vm.NullAddr)
	}
	for i := 0; i < 600; i++ {
		e.push(lists[rnd.Intn(len(lists))], uint64(i))
	}
	for i := 0; i <= e.col.H1.Cfg.TenureAge; i++ {
		e.minorGC()
	}
	// Dead old objects: two whole lists and the tail of a third.
	lists[0].Set(vm.NullAddr)
	lists[1].Set(vm.NullAddr)
	tail := lists[2].Addr()
	for i := 0; i < 5; i++ {
		tail = e.col.ReadRef(tail, 0)
	}
	e.col.WriteRef(tail, 0, vm.NullAddr)
	e.col.WriteRef(tail, 1, vm.NullAddr)

	small := e.closure(5, 16, 200)
	spill := e.closure(6, 48, 250)
	for i := 0; i < 40; i++ {
		e.push(lists[3], uint64(1000+i)) // young survivors in eden
	}
	e.fullGC()
	check("first full GC")

	if !e.col.InSecondHeap(small.Addr()) {
		e.t.Fatal("label 5 closure root not moved to H2")
	}
	moved := 0
	for i := 0; i < 48; i++ {
		if e.col.InSecondHeap(e.col.ReadRef(spill.Addr(), i)) {
			moved++
		}
	}
	if moved == 0 || moved == 48 {
		e.t.Fatalf("%d of 48 label 6 arrays in H2: want a partial move", moved)
	}

	// A backward reference (H2 array slot to a fresh H1 node) and a
	// forward one (an H1 node's shortcut to the H2 array).
	fresh := e.must(e.col.Alloc(e.node))
	e.col.WritePrim(fresh, 0, 77)
	e.col.WriteRef(small.Addr(), 0, fresh)
	e.col.WriteRef(lists[4].Addr(), 1, small.Addr())

	for i := 0; i < 30; i++ {
		e.push(lists[5], uint64(2000+i))
	}
	e.minorGC() // survivors in a survivor space
	for i := 0; i < 30; i++ {
		e.push(lists[6], uint64(3000+i))
	}
	for i := 0; i < 2000; i++ {
		e.must(e.col.Alloc(e.node)) // young garbage
	}
	e.fullGC()
	check("second full GC")

	lists[4].Set(vm.NullAddr)
	spill.Set(vm.NullAddr)
	for i := 0; i < 200; i++ {
		e.push(lists[rnd.Intn(len(lists))], uint64(4000+i))
	}
	e.fullGC()
	check("third full GC")
	e.fullGC()
	check("fourth full GC")

	// The target follows its holder's label into H2 as a straggler.
	if got := e.col.ReadRef(small.Addr(), 0); e.col.Mem().PrimAt(got, 0) != 77 {
		e.t.Fatalf("backward reference target lost: %v", got)
	}
}

// pathSnapshot is every observable the two word paths must agree on.
type pathSnapshot struct {
	when   string
	h1, h2 []uint64
	cards  []byte
	starts []vm.Addr
	tops   [4]vm.Addr
	gc     gc.Stats
	th     core.Stats
	clock  simclock.Breakdown
}

func (e *pathEnv) snapshot(when string) pathSnapshot {
	s := pathSnapshot{when: when, h1: append([]uint64(nil), e.h1...), gc: *e.col.GCStats(), th: e.th.Stats(), clock: e.clock.Breakdown()}
	s.gc.Cycles = append([]gc.Cycle(nil), s.gc.Cycles...)
	s.th.RegionSnapshots = append([]core.RegionSnapshot(nil), s.th.RegionSnapshots...)
	for p := vm.H2Base; p < vm.H2Base+vm.Addr(e.h2Size); p += vm.WordSize {
		s.h2 = append(s.h2, e.col.Mem().AS.Peek(p))
	}
	cards := e.col.H1.Cards
	for i := 0; i < cards.NumCards(); i++ {
		s.cards = append(s.cards, cards.Get(i))
		s.starts = append(s.starts, cards.FirstStart(i))
	}
	h := e.col.H1
	s.tops = [4]vm.Addr{h.Eden.Top, h.From.Top, h.To.Top, h.Old.Top}
	return s
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestMajorGCWordPathsAgree runs one scripted workload on a DRAM H1, where
// the major GC reads and writes H1's word slice, and on an H1 mapped on
// other memory, where it calls the per-word accessors, and requires every
// observable to match after every full GC: all H1 and H2 words, the card
// table's cards and object starts, the space tops, the GC stats with
// their cycles, the TeraHeap stats and the simulated clock.
func TestMajorGCWordPathsAgree(t *testing.T) {
	run := func(perWord bool) (*pathEnv, []pathSnapshot) {
		e := newPathEnv(t, perWord)
		var snaps []pathSnapshot
		e.script(func(when string) { snaps = append(snaps, e.snapshot(when)) })
		return e, snaps
	}
	slice, got := run(false)
	_, want := run(true)
	if len(got) != len(want) {
		t.Fatalf("slice path took %d snapshots, per-word path %d", len(got), len(want))
	}
	for k, a := range got {
		b := want[k]
		if i := firstDiff(a.h1, b.h1); i >= 0 {
			t.Fatalf("after %s: H1 word at %v: slice path 0x%x, per-word path 0x%x",
				a.when, vm.H1Base+vm.Addr(i*vm.WordSize), a.h1[i], b.h1[i])
		}
		if i := firstDiff(a.h2, b.h2); i >= 0 {
			t.Fatalf("after %s: H2 word at %v: slice path 0x%x, per-word path 0x%x",
				a.when, vm.H2Base+vm.Addr(i*vm.WordSize), a.h2[i], b.h2[i])
		}
		if i := firstDiff(a.cards, b.cards); i >= 0 {
			t.Fatalf("after %s: card %d: slice path %d, per-word path %d", a.when, i, a.cards[i], b.cards[i])
		}
		if i := firstDiff(a.starts, b.starts); i >= 0 {
			t.Fatalf("after %s: card %d first start: slice path %v, per-word path %v", a.when, i, a.starts[i], b.starts[i])
		}
		if a.tops != b.tops {
			t.Fatalf("after %s: space tops: slice path %v, per-word path %v", a.when, a.tops, b.tops)
		}
		if !reflect.DeepEqual(a.gc, b.gc) {
			t.Fatalf("after %s: GC stats differ:\nslice    %+v\nper-word %+v", a.when, a.gc, b.gc)
		}
		if !reflect.DeepEqual(a.th, b.th) {
			t.Fatalf("after %s: TeraHeap stats differ:\nslice    %+v\nper-word %+v", a.when, a.th, b.th)
		}
		if a.clock != b.clock {
			t.Fatalf("after %s: clock breakdown differs:\nslice    %v\nper-word %v", a.when, a.clock, b.clock)
		}
	}
	st := slice.col.GCStats()
	var movedH2, reclaimed int64
	for _, cy := range st.Cycles {
		movedH2 += cy.ObjectsMovedH2
		if cy.Kind == gc.Major {
			reclaimed += cy.ReclaimedBytes
		}
	}
	if st.MajorCount != 4 || movedH2 == 0 || reclaimed == 0 {
		t.Fatalf("script ran %d full GCs, moved %d objects to H2, reclaimed %d bytes", st.MajorCount, movedH2, reclaimed)
	}
}
