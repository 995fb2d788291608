package g1

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// allocWords is the G1 allocation slow path.
func (g *G1) allocWords(sizeWords int) (vm.Addr, error) {
	if g.oom != nil {
		return vm.NullAddr, g.oom
	}
	if sizeWords > g.humongousWords() {
		return g.allocHumongous(sizeWords)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if g.curEden != nil {
			if a, ok := g.bump(g.curEden, sizeWords); ok {
				return a, nil
			}
		}
		// Need a new eden region. The young target adapts to free space:
		// under occupancy pressure G1 shrinks the young generation rather
		// than thrashing full collections.
		target := g.youngTarget
		if cap := (len(g.free) - 4) / 2; cap < target {
			target = cap
			if target < 1 {
				target = 1
			}
		}
		if len(g.eden) >= target {
			if err := g.youngGC(); err != nil {
				return vm.NullAddr, err
			}
		}
		if r := g.takeFree(regEden); r != nil {
			g.curEden = r
			continue
		}
		if err := g.fullGC(); err != nil {
			return vm.NullAddr, err
		}
	}
	return vm.NullAddr, g.latchOOM(&gc.OOMError{Requested: int64(sizeWords) * vm.WordSize, Where: "g1 allocation"})
}

func (g *G1) bump(r *region, sizeWords int) (vm.Addr, bool) {
	need := vm.Addr(sizeWords * vm.WordSize)
	if r.top+need > r.end {
		return vm.NullAddr, false
	}
	a := r.top
	r.top += need
	return a, true
}

// allocHumongous places one object in a run of contiguous free regions —
// G1's humongous allocation. The tail of the last region is wasted, and a
// failure to find a contiguous run after a full GC is the fragmentation
// OOM the paper observes for SVM, BC, and RL.
func (g *G1) allocHumongous(sizeWords int) (vm.Addr, error) {
	need := int((int64(sizeWords)*vm.WordSize + g.regionSize - 1) / g.regionSize)
	for attempt := 0; attempt < 3; attempt++ {
		// Humongous runs must not eat the evacuation reserve.
		if len(g.free)-need < g.evacReserve() {
			if attempt == 0 {
				if err := g.youngGC(); err != nil {
					return vm.NullAddr, err
				}
			} else if err := g.fullGC(); err != nil {
				return vm.NullAddr, err
			}
			if len(g.free)-need < g.evacReserve() {
				continue
			}
		}
		if start := g.findRun(need); start >= 0 {
			r := g.regions[start]
			r.kind = regHumongousStart
			r.humRegions = need
			r.top = r.start + vm.Addr(sizeWords*vm.WordSize)
			g.hum = append(g.hum, start)
			g.removeFree(start, need)
			for i := 1; i < need; i++ {
				g.regions[start+i].kind = regHumongousCont
			}
			g.cards.NoteStart(r.start)
			return r.start, nil
		}
		if err := g.fullGC(); err != nil {
			return vm.NullAddr, err
		}
	}
	return vm.NullAddr, g.latchOOM(&gc.OOMError{
		Requested: int64(sizeWords) * vm.WordSize,
		Where:     fmt.Sprintf("g1 humongous allocation (%d contiguous regions)", need),
	})
}

// evacReserve is the number of free regions the next young evacuation
// may need in the worst case.
func (g *G1) evacReserve() int {
	return len(g.eden) + len(g.survivor) + 3
}

// findRun returns the first id of a run of n contiguous free regions, or
// -1.
func (g *G1) findRun(n int) int {
	runStart, runLen := -1, 0
	prev := -2
	for _, id := range g.free {
		if id == prev+1 {
			runLen++
		} else {
			runStart, runLen = id, 1
		}
		prev = id
		if runLen >= n {
			return runStart
		}
	}
	return -1
}

// removeFree removes ids [start, start+n) from the free list.
func (g *G1) removeFree(start, n int) {
	out := g.free[:0]
	for _, id := range g.free {
		if id < start || id >= start+n {
			out = append(out, id)
		}
	}
	g.free = out
}
