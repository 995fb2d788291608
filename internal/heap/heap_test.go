package heap_test

import (
	"testing"
	"testing/quick"

	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func TestLayoutGeometry(t *testing.T) {
	cfg := heap.DefaultConfig(3 << 20)
	as := &vm.AddressSpace{}
	h := heap.New(cfg, as)

	if h.Eden.Start != vm.H1Base {
		t.Fatalf("eden start %v", h.Eden.Start)
	}
	// Spaces tile the heap without gaps or overlap.
	if h.From.Start != h.Eden.End || h.To.Start != h.From.End || h.Old.Start != h.To.End {
		t.Fatal("spaces do not tile")
	}
	if h.Old.End != vm.H1Base+vm.Addr(cfg.H1Size&^63) {
		t.Fatalf("old end %v", h.Old.End)
	}
	// Young is roughly a third, survivors a tenth of young each.
	young := h.Eden.Capacity() + h.From.Capacity() + h.To.Capacity()
	if r := float64(young) / float64(cfg.H1Size); r < 0.30 || r > 0.36 {
		t.Fatalf("young fraction %v", r)
	}
	if h.From.Capacity() != h.To.Capacity() {
		t.Fatal("survivor spaces differ")
	}
	// The mapped RAM covers every space (writable end to end).
	as.Store(h.Old.End-8, 42)
	if as.Load(h.Old.End-8) != 42 {
		t.Fatal("top of heap not mapped")
	}
}

func TestClassification(t *testing.T) {
	h := heap.New(heap.DefaultConfig(1<<20), &vm.AddressSpace{})
	if !h.InYoung(h.Eden.Start) || !h.InYoung(h.From.Start) || !h.InYoung(h.To.Start) {
		t.Fatal("young classification")
	}
	if h.InYoung(h.Old.Start) || !h.InOld(h.Old.Start) {
		t.Fatal("old classification")
	}
	if h.Contains(h.Old.End) {
		t.Fatal("one-past-end contained")
	}
}

func TestSwapSurvivors(t *testing.T) {
	h := heap.New(heap.DefaultConfig(1<<20), &vm.AddressSpace{})
	f, to := h.From, h.To
	h.SwapSurvivors()
	if h.From != to || h.To != f {
		t.Fatal("swap failed")
	}
}

func TestCardTableIndexBounds(t *testing.T) {
	ct := heap.NewCardTable(vm.H1Base, vm.H1Base+10_000)
	if ct.NumCards() != 20 {
		t.Fatalf("cards = %d", ct.NumCards())
	}
	f := func(off uint16) bool {
		a := vm.H1Base + vm.Addr(off)%10_000
		i := ct.Index(a)
		lo, hi := ct.CardBounds(i)
		return a >= lo && a < hi && i >= 0 && i < ct.NumCards()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Final card is clipped to the range end.
	_, hi := ct.CardBounds(19)
	if hi != vm.H1Base+10_000 {
		t.Fatalf("last card end %v", hi)
	}
}

func TestCardTableMarkAndClear(t *testing.T) {
	ct := heap.NewCardTable(vm.H1Base, vm.H1Base+1<<16)
	ct.MarkDirty(vm.H1Base + 1000)
	ct.MarkDirty(vm.H1Base + 40_000)
	ct.MarkDirty(vm.H1Base - 8) // out of range: ignored
	if ct.CountDirty() != 2 {
		t.Fatalf("dirty = %d", ct.CountDirty())
	}
	if ct.Get(ct.Index(vm.H1Base+1000)) != heap.CardDirty || ct.Get(ct.Index(vm.H1Base+40_000)) != heap.CardDirty {
		t.Fatal("marked cards are not dirty")
	}
	ct.ClearAll()
	if ct.CountDirty() != 0 {
		t.Fatal("clear failed")
	}
}

func TestCardTableStarts(t *testing.T) {
	ct := heap.NewCardTable(vm.H1Base, vm.H1Base+1<<16)
	// Two objects in card 1, noted out of order, and one in card 3.
	ct.NoteStart(vm.H1Base + 600)
	ct.NoteStart(vm.H1Base + 520)
	ct.NoteStart(vm.H1Base + 3*512 + 8)
	if got := ct.FirstStart(1); got != vm.H1Base+520 {
		t.Fatalf("card 1 first start %v", got)
	}
	if got := ct.FirstStart(2); !got.IsNull() {
		t.Fatalf("card 2 holds no object but records %v", got)
	}
	// Clearing [card 0, card 2) keeps card 3.
	ct.ClearStarts(vm.H1Base, vm.H1Base+2*512)
	if !ct.FirstStart(1).IsNull() || ct.FirstStart(3) != vm.H1Base+3*512+8 {
		t.Fatalf("range clear: card 1 %v, card 3 %v", ct.FirstStart(1), ct.FirstStart(3))
	}
	ct.MarkDirty(vm.H1Base + 3*512)
	ct.ClearAll()
	if !ct.FirstStart(3).IsNull() || ct.CountDirty() != 0 {
		t.Fatal("ClearAll kept a start or a dirty card")
	}
}

func TestOldOccupancy(t *testing.T) {
	h := heap.New(heap.DefaultConfig(1<<20), &vm.AddressSpace{})
	if h.OldOccupancy() != 0 {
		t.Fatal("fresh heap occupied")
	}
	if _, ok := h.Old.Alloc(int(h.Old.Capacity() / 2 / 8)); !ok {
		t.Fatal("alloc failed")
	}
	if occ := h.OldOccupancy(); occ < 0.49 || occ > 0.51 {
		t.Fatalf("occupancy %v", occ)
	}
}
