package heap

import "github.com/carv-repro/teraheap-go/internal/vm"

// CardSize is the H1 card segment size in bytes (the JVM default).
const CardSize = 512

// Card states for the H1 card table. H1 needs only clean/dirty; the richer
// four-state encoding lives in TeraHeap's H2 card table (internal/core).
const (
	CardClean byte = iota
	CardDirty
)

// CardTable maps a contiguous address range to byte-sized card entries,
// one per CardSize-byte segment, and records for each card the first
// object that starts in it (the object start array). The mutator's
// post-write barrier dirties the card covering the start of an updated
// old object; minor GC scans dirty cards, parsing forward from each
// card's first start, to find old-to-young references. Both collectors
// use it: Parallel Scavenge over its old generation, G1 over its whole
// heap.
type CardTable struct {
	Start  vm.Addr
	End    vm.Addr
	cards  []byte
	starts []vm.Addr
}

// NewCardTable covers [start, end) with cards of CardSize bytes.
func NewCardTable(start, end vm.Addr) *CardTable {
	n := (int64(end-start) + CardSize - 1) / CardSize
	return &CardTable{Start: start, End: end, cards: make([]byte, n), starts: make([]vm.Addr, n)}
}

// Covers reports whether a falls inside the table's range.
func (t *CardTable) Covers(a vm.Addr) bool { return a >= t.Start && a < t.End }

// Index returns the card index covering a.
func (t *CardTable) Index(a vm.Addr) int {
	return int(int64(a-t.Start) / CardSize)
}

// NumCards returns the number of cards.
func (t *CardTable) NumCards() int { return len(t.cards) }

// Get returns the state of card i.
func (t *CardTable) Get(i int) byte { return t.cards[i] }

// Set writes the state of card i.
func (t *CardTable) Set(i int, v byte) { t.cards[i] = v }

// MarkDirty dirties the card covering a. Addresses outside the range are
// ignored (young-generation stores need no card).
func (t *CardTable) MarkDirty(a vm.Addr) {
	if !t.Covers(a) {
		return
	}
	t.cards[t.Index(a)] = CardDirty
}

// CardBounds returns the address range [lo, hi) covered by card i.
func (t *CardTable) CardBounds(i int) (lo, hi vm.Addr) {
	lo = t.Start + vm.Addr(i*CardSize)
	hi = lo + vm.Addr(CardSize)
	if hi > t.End {
		hi = t.End
	}
	return lo, hi
}

// NoteStart records a, which must lie in the table's range, as an object
// start: it becomes its card's first start unless a lower one is known.
func (t *CardTable) NoteStart(a vm.Addr) {
	i := t.Index(a)
	if t.starts[i].IsNull() || a < t.starts[i] {
		t.starts[i] = a
	}
}

// FirstStart returns the lowest recorded object start in card i, or the
// null address when none is recorded.
func (t *CardTable) FirstStart(i int) vm.Addr { return t.starts[i] }

// ClearStarts forgets the object starts recorded in the cards covering
// [lo, hi).
func (t *CardTable) ClearStarts(lo, hi vm.Addr) {
	clear(t.starts[t.Index(lo) : t.Index(hi-1)+1])
}

// ClearAll resets every card to clean and forgets every object start.
func (t *CardTable) ClearAll() {
	clear(t.cards)
	clear(t.starts)
}
