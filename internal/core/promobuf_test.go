package core_test

import (
	"slices"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// TestPromotionBuffersReuseArenas moves two partitions to H2 under two
// labels (regions A and C), then in one collection a third under a new
// label (region B) and a fourth under A's label, which A's open region
// takes; then it lets the first die. With reuse, regions A and B stage
// their images side by side in the arenas the first flush released;
// without it (the spare list dropped before each collection), every
// staging region grows its own. The verifier must pass after each
// collection, every partition must read back, and the H2 words, region
// checksums and flush count must be the same either way.
func TestPromotionBuffersReuseArenas(t *testing.T) {
	type result struct {
		words []uint64
		sums  []uint64
		flush int64
	}
	run := func(reuse bool) result {
		e := newTHEnv(t, 1<<20, nil)
		collect := func() {
			t.Helper()
			if !reuse {
				e.th.DropSpareBuffersForTest()
			}
			if err := e.jvm.FullGC(); err != nil {
				t.Fatal(err)
			}
			if fails := e.jvm.VerifyNow(); len(fails) != 0 {
				t.Fatalf("reuse %v: verifier: %v", reuse, fails)
			}
		}
		move := func(n int, label uint64) *vm.Handle {
			h := e.buildPartition(t, n)
			e.jvm.TagRoot(h, label)
			e.jvm.MoveHint(label)
			return h
		}
		hA, hC := move(300, 2), move(300, 4)
		collect()
		first := e.th.SpareArenasForTest()
		if len(first) != 2 {
			t.Fatalf("reuse %v: %d spare arenas after the first flush, want 2", reuse, len(first))
		}

		hB, hA2 := move(200, 3), move(100, 2)
		collect()
		if e.th.ActiveRegions() != 3 {
			t.Fatalf("reuse %v: %d active regions, want A, B and C", reuse, e.th.ActiveRegions())
		}
		// Regions A and B, each staging less than a first-round arena
		// holds, took both spares and gave them back at their flush.
		// Fresh arenas are new arrays (first keeps the old ones alive).
		second := e.th.SpareArenasForTest()
		reused := 0
		for _, a := range second {
			if slices.Contains(first, a) {
				reused++
			}
		}
		if want := map[bool]int{true: 2, false: 0}[reuse]; len(second) != 2 || reused != want {
			t.Fatalf("reuse %v: %d of %d spare arenas after the second flush are first-round ones, want %d of 2", reuse, reused, len(second), want)
		}
		for _, c := range []struct {
			h *vm.Handle
			n int
		}{{hA, 300}, {hC, 300}, {hB, 200}, {hA2, 100}} {
			if !e.jvm.InSecondHeap(c.h.Addr()) {
				t.Fatalf("reuse %v: a partition is not in H2", reuse)
			}
			e.checkPartition(t, c.h, c.n)
		}

		e.jvm.Release(hA)
		collect()
		e.checkPartition(t, hB, 200)
		f := e.th.Mapped()
		var res result
		for w := int64(0); w < 4*e.th.Config().RegionSize/vm.WordSize; w++ {
			res.words = append(res.words, f.PeekWord(w))
		}
		res.sums = e.th.RegionSumsForTest()
		res.flush = e.th.Stats().BufferFlushes
		return res
	}
	got, want := run(true), run(false)
	if !slices.Equal(got.words, want.words) {
		t.Error("H2 words differ between runs with and without arena reuse")
	}
	if !slices.Equal(got.sums, want.sums) {
		t.Errorf("region checksums %x, want %x", got.sums, want.sums)
	}
	if got.flush != want.flush || got.flush == 0 {
		t.Errorf("buffer flushes %d, want %d (nonzero)", got.flush, want.flush)
	}
}
