package g1

import "github.com/carv-repro/teraheap-go/internal/vm"

// Test-only hooks: they inspect or damage G1's card metadata in the
// precise ways the verifier's rules exist to catch, so tests can pin the
// diagnosis.

// InOldForTest reports whether a lies in an old region.
func (g *G1) InOldForTest(a vm.Addr) bool {
	r := g.regionOf(a)
	return r != nil && r.kind == regOld
}

// CleanCardForTest cleans the card covering a and returns its index.
func (g *G1) CleanCardForTest(a vm.Addr) int {
	i := g.cards.Index(a)
	g.cards.Set(i, 0)
	return i
}

// CorruptStartForTest records an address that is not an object start as
// the first start of the card covering a, and returns the card index.
func (g *G1) CorruptStartForTest(a vm.Addr) int {
	g.cards.ClearStarts(a, a+1)
	g.cards.NoteStart(a + vm.WordSize)
	return g.cards.Index(a)
}
