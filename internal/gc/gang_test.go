package gc_test

import (
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// gangRun drives a fixed workload — allocation churn, surviving lists,
// several minor GCs, one major GC — under the given gang size and returns
// the GC time charged plus the collector stats.
func gangRun(t *testing.T, workers int) (minor, major time.Duration, st *gc.Stats, h *vm.Handle, e *testEnv) {
	t.Helper()
	e = newTestEnv(t, 1<<23)
	e.col.Workers = workers
	h = e.buildList(t, 4000)
	for round := 0; round < 4; round++ {
		g := e.buildList(t, 2000) // garbage
		e.col.Release(g)
		if err := e.col.MinorGC(); err != nil {
			t.Fatalf("minor GC (workers=%d): %v", workers, err)
		}
	}
	if err := e.col.FullGC(); err != nil {
		t.Fatalf("major GC (workers=%d): %v", workers, err)
	}
	st = e.col.GCStats()
	return st.MinorTime, st.MajorTime, st, h, e
}

// The gang never changes what the collector does — only how the pause is
// charged. Heap state, cycle counts, and allocation stats must be
// identical at every worker count.
func TestGangHeapStateInvariantAcrossWorkers(t *testing.T) {
	_, _, base, h1, e1 := gangRun(t, 1)
	for _, w := range []int{2, 4, 8} {
		_, _, st, h, e := gangRun(t, w)
		e.checkList(t, h, 4000)
		e1.checkList(t, h1, 4000)
		if st.MinorCount != base.MinorCount || st.MajorCount != base.MajorCount {
			t.Fatalf("workers=%d cycle counts diverged: %d/%d vs %d/%d",
				w, st.MinorCount, st.MajorCount, base.MinorCount, base.MajorCount)
		}
		if st.BytesAllocated != base.BytesAllocated || st.ObjectsAllocated != base.ObjectsAllocated {
			t.Fatalf("workers=%d allocation stats diverged", w)
		}
		if len(st.Cycles) != len(base.Cycles) {
			t.Fatalf("workers=%d cycle log length diverged", w)
		}
		for i := range st.Cycles {
			if st.Cycles[i].ReclaimedBytes != base.Cycles[i].ReclaimedBytes ||
				st.Cycles[i].BytesCopied != base.Cycles[i].BytesCopied {
				t.Fatalf("workers=%d cycle %d moved different bytes", w, i)
			}
		}
	}
}

// More gang workers never make a pause longer. Worker counts are chosen
// so each divides the next: the round-robin shards at 2w refine the
// shards at w, which pins max-over-workers to be non-increasing.
func TestGangPauseMonotoneNonIncreasing(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	var prevMinor, prevMajor time.Duration
	for i, w := range counts {
		minor, major, _, _, _ := gangRun(t, w)
		if i > 0 {
			if minor > prevMinor {
				t.Fatalf("minor GC time grew from workers=%d to %d: %v -> %v",
					counts[i-1], w, prevMinor, minor)
			}
			if major > prevMajor {
				t.Fatalf("major GC time grew from workers=%d to %d: %v -> %v",
					counts[i-1], w, prevMajor, major)
			}
		}
		prevMinor, prevMajor = minor, major
	}
}

// A gang of one is the serial charge: at Workers 0 and 1 the pause times
// equal the literal values the serial counters-times-costs aggregate
// charged for this workload before the gang became the only path, with
// no steal/sync overhead.
func TestGangOfOneChargesSerialAggregate(t *testing.T) {
	const wantMinor, wantMajor = 823460 * time.Nanosecond, 407976 * time.Nanosecond
	for _, w := range []int{0, 1} {
		minor, major, _, _, _ := gangRun(t, w)
		if minor != wantMinor || major != wantMajor {
			t.Fatalf("workers=%d: minor %v major %v, want %v and %v",
				w, minor, major, wantMinor, wantMajor)
		}
	}
}

// Same workload, same worker count, two independent runs: byte-identical
// charges (in-process determinism pin for the gang bookkeeping).
func TestGangDeterministic(t *testing.T) {
	for _, w := range []int{2, 8} {
		minorA, majorA, _, _, _ := gangRun(t, w)
		minorB, majorB, _, _, _ := gangRun(t, w)
		if minorA != minorB || majorA != majorB {
			t.Fatalf("workers=%d not deterministic: minor %v/%v major %v/%v",
				w, minorA, minorB, majorA, majorB)
		}
	}
}

// A failed scavenge (promotion fallback) mid-phase must not leave the
// collector stuck in a gang phase: the next GC still works and charges.
func TestGangSurvivesScavengeFallback(t *testing.T) {
	clock := simclock.New()
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	as := &vm.AddressSpace{}
	col := gc.New(heap.New(heap.DefaultConfig(1<<19), as), as, classes, clock, nil)
	col.Workers = 4
	verifyFromEnv(col)

	h := col.NewHandle(vm.NullAddr)
	for i := 0; ; i++ {
		a, err := col.Alloc(node)
		if err != nil {
			break // heap exhausted; fallback paths exercised
		}
		col.WriteRef(a, 0, h.Addr())
		h.Set(a)
		if i > 1<<16 {
			t.Fatal("tiny heap never filled")
		}
	}
	// Whatever state the fallback left, a fresh major GC must run cleanly.
	if err := col.FullGC(); err == nil {
		if col.GCStats().MajorCount == 0 {
			t.Fatal("major GC recorded no cycle")
		}
	}
}
