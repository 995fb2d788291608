package giraph

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// TestTargetMatchesDivision checks target's multiply-high against t / per
// for every vertex t of engines over several (N, Parts) pairs, among them
// one partition per vertex (per == 1) and a single partition.
func TestTargetMatchesDivision(t *testing.T) {
	for _, c := range []struct{ n, parts int }{
		{300, 1}, {64, 64}, {300, 7}, {997, 8}, {1000, 3}, {4099, 16},
	} {
		e := mustBuild(t, ModeOOC, 16*storage.MB, workloads.GenGraph(5, c.n, 4, 0.8), c.parts)
		per := (c.n + c.parts - 1) / c.parts
		for v := 0; v < c.n; v++ {
			if tp, l := e.target(v); tp != v/per || l != v%per {
				t.Fatalf("N %d, Parts %d: target(%d) = (%d, %d), want (%d, %d)", c.n, c.parts, v, tp, l, v/per, v%per)
			}
		}
	}
}

// TestTargetReciprocalAtLargeSizes checks the reciprocal where its error
// term is largest: partition sizes up to 2^31-1, at vertices next to each
// partition boundary and at the top of the vertex range, 2^31-1.
func TestTargetReciprocalAtLargeSizes(t *testing.T) {
	const top = 1<<31 - 1
	for _, per := range []int{1, 2, 3, 7, 1 << 20, 1<<20 + 1, 999_983, 1<<30 - 1, 1 << 30, 1<<31 - 1} {
		e := &Engine{}
		e.setPartitionSize(per)
		check := func(v int) {
			if v < 0 || v > top {
				return
			}
			if tp, l := e.target(v); tp != v/per || l != v%per {
				t.Fatalf("per %d: target(%d) = (%d, %d), want (%d, %d)", per, v, tp, l, v/per, v%per)
			}
		}
		for k := 1; k <= 64; k++ {
			b := top / per / k * per // a partition boundary
			for d := -2; d <= 2; d++ {
				check(b + d)
			}
		}
		for d := 0; d < 1000; d++ {
			check(top - d)
			check(d)
		}
	}
}
