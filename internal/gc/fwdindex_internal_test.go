package gc

import (
	"math/rand"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// checkFwdIndex compares the indexed lookup with the full binary search
// for ref.
func checkFwdIndex(t *testing.T, x *FwdIndex, src, dst []vm.Addr, ref vm.Addr) {
	t.Helper()
	gotA, gotOK := x.Lookup(src, dst, ref)
	wantA, wantOK := adjustRef(src, dst, ref)
	if gotA != wantA || gotOK != wantOK {
		t.Fatalf("Lookup(%v) = %v,%v; full search %v,%v", ref, gotA, gotOK, wantA, wantOK)
	}
}

// TestFwdIndexMatchesFullSearch checks the block index against adjustRef
// over the whole table on randomised ascending tables, for every source,
// the words beside it, refs on and beside block boundaries, refs below
// the first entry and past the last, and absent refs. One index is
// rebuilt over every table, as the collector reuses it across cycles.
func TestFwdIndexMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x FwdIndex
	const block = 1 << fwdBlockShift
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		if trial%10 == 0 {
			n = 0
		}
		src := make([]vm.Addr, 0, n)
		dst := make([]vm.Addr, 0, n)
		a := vm.H1Base + vm.Addr(rng.Intn(4096))*vm.WordSize
		for i := 0; i < n; i++ {
			// Gaps from one word to many blocks, so some blocks are empty
			// and others hold many sources.
			if rng.Intn(4) == 0 {
				a += vm.Addr(rng.Intn(8*block)) &^ (vm.WordSize - 1)
			}
			a += vm.Addr(1+rng.Intn(8)) * vm.WordSize
			src = append(src, a)
			dst = append(dst, vm.H1Base+vm.Addr(i)*vm.WordSize)
		}
		x.Build(src)

		refs := []vm.Addr{vm.NullAddr, vm.H1Base, vm.H2Base, ^vm.Addr(0) &^ (vm.WordSize - 1)}
		for _, s := range src {
			refs = append(refs, s, s-vm.WordSize, s+vm.WordSize)
			b := s &^ (block - 1)
			refs = append(refs, b, b-vm.WordSize, b+block, b+block-vm.WordSize)
		}
		if n > 0 {
			refs = append(refs, src[0]-vm.WordSize, src[0]-block, src[n-1]+vm.WordSize, src[n-1]+block)
		}
		for _, ref := range refs {
			checkFwdIndex(t, &x, src, dst, ref)
		}
	}
}

// TestFwdIndexEdges pins the cases named in the index's contract.
func TestFwdIndexEdges(t *testing.T) {
	var x FwdIndex
	x.Build(nil)
	if _, ok := x.Lookup(nil, nil, vm.H1Base); ok {
		t.Fatal("empty table found a ref")
	}

	const block = 1 << fwdBlockShift
	base := vm.H1Base + 3*block
	src := []vm.Addr{base, base + block - vm.WordSize, base + block, base + 5*block + 16}
	dst := []vm.Addr{vm.H1Base, vm.H1Base + 8, vm.H1Base + 16, vm.H1Base + 24}
	x.Build(src)
	for i, s := range src {
		if got, ok := x.Lookup(src, dst, s); !ok || got != dst[i] {
			t.Errorf("Lookup(%v) = %v,%v, want %v,true", s, got, ok, dst[i])
		}
	}
	for _, ref := range []vm.Addr{
		base - vm.WordSize,  // below the first entry
		src[len(src)-1] + 8, // past the last
		base + 2*block,      // an empty block's boundary
		base + vm.WordSize,  // inside a block, not in the table
		base + 5*block,      // the last block's boundary, absent
		base + 6*block,      // one block past the index
		vm.H2Base,           // far past
	} {
		if got, ok := x.Lookup(src, dst, ref); ok {
			t.Errorf("Lookup(%v) = %v, want not found", ref, got)
		}
	}
}
