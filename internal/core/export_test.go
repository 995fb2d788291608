package core

import "github.com/carv-repro/teraheap-go/internal/vm"

// Test-only corruption hooks: they damage H2 metadata in the precise ways
// the verifier's rules exist to catch, so tests can pin the diagnosis.

// CorruptSegFirstForTest overwrites the segFirst entry of the card segment
// holding a with an address that is not an object start. Returns false if
// a is not inside an allocated H2 region.
func (th *TeraHeap) CorruptSegFirstForTest(a vm.Addr) bool {
	r := th.regionOf(a)
	if r == nil {
		return false
	}
	seg := int(int64(a-r.start) / th.cfg.CardSegmentSize)
	r.segFirst[seg] = a + vm.WordSize
	return true
}

// DropDepsForTest erases the dependency list of the region holding a,
// simulating a lost cross-region liveness edge. Returns false if a is not
// inside an allocated H2 region.
func (th *TeraHeap) DropDepsForTest(a vm.Addr) bool {
	r := th.regionOf(a)
	if r == nil {
		return false
	}
	th.stats.DepNodes -= int64(len(r.deps))
	r.deps = make(map[int]struct{})
	return true
}

// Promotion-buffer reuse hooks.

// DropSpareBuffersForTest forgets the spare promotion-buffer arrays, so
// the next region that stages grows fresh ones.
func (th *TeraHeap) DropSpareBuffersForTest() { th.spareBufs = nil }

// SpareArenasForTest returns the backing array of each spare buffer's
// word arena, as a pointer to its first word, in spare-list order.
func (th *TeraHeap) SpareArenasForTest() []*uint64 {
	var out []*uint64
	for _, b := range th.spareBufs {
		out = append(out, &b.words[:1][0])
	}
	return out
}

// RegionSumsForTest returns every region's running checksum, in region
// order.
func (th *TeraHeap) RegionSumsForTest() []uint64 {
	var out []uint64
	for _, r := range th.regions {
		out = append(out, r.sum)
	}
	return out
}
