package g1

import (
	"fmt"
	"sort"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// MarkingCycle forces a concurrent-marking + mixed-collection cycle
// (exposed for TeraHeap-under-G1 users who want movement at a known
// point, and for tests).
func (g *G1) MarkingCycle() error {
	if g.oom != nil {
		return g.oom
	}
	// Marking assumes an empty-ish young generation; evacuate it first.
	if err := g.youngGCNoMark(); err != nil {
		return err
	}
	_, err := g.markAndMixed()
	return err
}

// markAndMixed runs a (concurrent) marking cycle followed by mixed
// collections of the old regions with the least live data — the
// garbage-first policy. It must run right after a young GC, with the
// young generation empty. It returns the number of regions it managed to
// reclaim so the caller can back off when marking stops paying (old data
// that is simply live, e.g. a cached dataset).
func (g *G1) markAndMixed() (int, error) {
	g.hooks.BeforeGC(gc.PhaseMixed)
	prev := g.clock.SetContext(simclock.MajorGC)
	defer g.clock.SetContext(prev)
	before := g.clock.Breakdown()

	objects, refs := g.markAll()
	// TeraHeap-under-G1: move advised closures out during the marking
	// cycle (§7.1); this also frees humongous runs whose objects left.
	movedToH2 := g.moveClosuresToH2()
	// Concurrent marking: most of the traversal overlaps the mutator.
	cpu := time.Duration(float64(time.Duration(objects)*simclock.MarkPerObject+
		time.Duration(refs)*simclock.ScanPerRef) * concurrencyDiscount)
	g.chargeGC(simclock.MajorGC, cpu)

	// Reclaim wholly-dead humongous runs and old regions eagerly.
	var reclaimed int64
	regionsFreed := 0
	for _, id := range append([]int(nil), g.hum...) {
		r := g.regions[id]
		if r.liveBytes == 0 {
			reclaimed += r.used()
			regionsFreed += r.humRegions
			g.freeHumongous(r)
		}
	}
	newOld := g.old[:0]
	for _, id := range g.old {
		r := g.regions[id]
		if r.liveBytes == 0 {
			reclaimed += r.used()
			regionsFreed++
			g.cards.ClearStarts(r.start, r.end)
			g.releaseRegion(r)
			continue
		}
		newOld = append(newOld, id)
	}
	g.old = newOld

	// Mixed collection: evacuate the sparsest old regions.
	moved, freedByMixed, err := g.mixedEvacuate()
	if err != nil {
		return 0, err
	}
	regionsFreed += freedByMixed

	// Clear mark bits.
	g.forEachLiveRegionObject(func(a vm.Addr) {
		if g.mem.Marked(a) {
			g.mem.SetMarked(a, false)
		}
	})

	g.clock.Charge(simclock.MajorGC, simclock.PausePerGC)
	delta := g.clock.Breakdown().Sub(before)
	if g.th != nil {
		g.th.FinishMajor()
	}
	g.stats.Cycles = append(g.stats.Cycles, gc.Cycle{
		Kind: gc.Major, At: g.clock.Now(), Duration: delta.Get(simclock.MajorGC),
		BytesCopied: moved, ReclaimedBytes: reclaimed, BytesMovedToH2: movedToH2,
		OldOccupancyAfter: g.oldOccupancy(),
	})
	g.stats.MajorCount++
	g.stats.MajorTime += delta.Get(simclock.MajorGC)
	g.hooks.AfterGC(gc.PhaseMixed)
	return regionsFreed, nil
}

// markAll marks live objects from the roots (and, with a TeraHeap, from
// H2's backward references after resetting its region live bits) and
// refreshes per-region live byte counts. Young regions must be empty.
func (g *G1) markAll() (objects, refs int64) {
	for _, r := range g.regions {
		r.liveBytes = 0
	}
	var stack []vm.Addr
	g.roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() {
			stack = append(stack, a)
		}
	})
	if g.th != nil {
		g.th.BeginMajorMark()
		g.th.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			stack = append(stack, t)
			return t
		}, g.inYoung)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.th.Contains(a) {
			// Fence: record the forward reference, never scan H2.
			g.th.NoteForwardRef(a)
			continue
		}
		if g.mem.Marked(a) {
			continue
		}
		g.mem.SetMarked(a, true)
		objects++
		size := int64(g.mem.SizeWords(a)) * vm.WordSize
		if r := g.regionOf(a); r != nil {
			if r.kind == regHumongousCont {
				r = g.regions[g.humStartOf(r.id)]
			}
			r.liveBytes += size
		}
		n := g.mem.NumRefs(a)
		for i := 0; i < n; i++ {
			if t := g.mem.RefAt(a, i); !t.IsNull() {
				refs++
				stack = append(stack, t)
			}
		}
	}
	return objects, refs
}

// humStartOf finds the start region id of a humongous continuation.
func (g *G1) humStartOf(id int) int {
	for id > 0 && g.regions[id].kind == regHumongousCont {
		id--
	}
	return id
}

func (g *G1) freeHumongous(r *region) {
	n := r.humRegions
	out := g.hum[:0]
	for _, id := range g.hum {
		if id != r.id {
			out = append(out, id)
		}
	}
	g.hum = out
	g.cards.ClearStarts(r.start, r.end)
	for i := 0; i < n; i++ {
		rr := g.regions[r.id+i]
		g.cards.ClearStarts(rr.start, rr.end)
		g.releaseRegion(rr)
	}
}

// mixedEvacuate moves the live objects of sparse old regions into fresh
// regions, freeing the sources. Cost is proportional to the (small) live
// volume — the garbage-first payoff.
func (g *G1) mixedEvacuate() (int64, int, error) {
	type cand struct {
		id   int
		live int64
	}
	var cands []cand
	for _, id := range g.old {
		r := g.regions[id]
		if float64(r.liveBytes) < mixedLiveThreshold*float64(g.regionSize) {
			cands = append(cands, cand{id, r.liveBytes})
		}
	}
	if len(cands) == 0 {
		return 0, 0, nil
	}
	// Sort with an id tie-break so equal-liveness regions keep a stable
	// order and the whole simulation stays deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].live != cands[j].live {
			return cands[i].live < cands[j].live
		}
		return cands[i].id < cands[j].id
	})
	// Bound the collection set by free-region capacity (keep 4 in
	// reserve) and by an eighth of the old regions per cycle.
	maxCS := len(g.old)/4 + 1
	var csLive int64
	cs := make(map[int]bool)
	var csIDs []int // selection order; evacuation must not depend on map order
	for _, c := range cands {
		if len(cs) >= maxCS {
			break
		}
		csLive += c.live
		if csLive > int64(len(g.free)-4)*g.regionSize {
			break
		}
		cs[c.id] = true
		csIDs = append(csIDs, c.id)
	}
	if len(cs) == 0 {
		return 0, 0, nil
	}

	// Evacuate live (marked) objects.
	var moved int64
	var dst *region
	for _, id := range csIDs {
		r := g.regions[id]
		for a := r.start; a < r.top; {
			if g.mem.Forwarded(a) {
				a += vm.Addr(int(uint32(g.mem.Shape(a))) * vm.WordSize)
				continue
			}
			size := g.mem.SizeWords(a)
			if g.mem.Marked(a) {
				var d vm.Addr
				ok := false
				if dst != nil {
					d, ok = g.bump(dst, size)
				}
				if !ok {
					dst = g.takeFree(regOld)
					if dst == nil {
						return moved, 0, fmt.Errorf("g1: no destination region for mixed GC")
					}
					d, ok = g.bump(dst, size)
					if !ok {
						return moved, 0, fmt.Errorf("g1: object larger than region in mixed GC")
					}
				}
				g.mem.CopyObject(d, a, size)
				g.cards.NoteStart(d)
				g.mem.SetForwardee(a, d)
				moved += int64(size) * vm.WordSize
				// Preserve old-to-young card information for the new
				// location (survivor regions stay populated between
				// young collections).
				nr := g.mem.NumRefs(d)
				for f := 0; f < nr; f++ {
					if t := g.mem.RefAt(d, f); !t.IsNull() && g.inYoung(t) {
						g.cards.MarkDirty(d)
						break
					}
				}
			}
			a += vm.Addr(size * vm.WordSize)
		}
	}
	g.chargeGC(simclock.MajorGC, time.Duration(moved)*simclock.CopyPerByte)

	// Fix references everywhere (modelled remembered-set cost: charged
	// proportional to the moved volume, already covered above; the walk
	// itself is simulator work).
	fix := func(a vm.Addr) {
		n := g.mem.NumRefs(a)
		for i := 0; i < n; i++ {
			t := g.mem.RefAt(a, i)
			if t.IsNull() {
				continue
			}
			if r := g.regionOf(t); r != nil && cs[r.id] && g.mem.Forwarded(t) {
				g.mem.SetRefAt(a, i, g.mem.Forwardee(t))
			}
		}
	}
	g.forEachLiveRegionObjectExcept(cs, fix)
	g.roots.ForEach(func(h *vm.Handle) {
		a := h.Addr()
		if a.IsNull() {
			return
		}
		if r := g.regionOf(a); r != nil && cs[r.id] && g.mem.Forwarded(a) {
			h.Set(g.mem.Forwardee(a))
		}
	})
	// H2 backward references into the collection set must follow the
	// evacuated objects like every other reference, or they dangle once
	// the source regions are freed (young collections only consult these
	// via the H2 card table, which never sees the stale target again).
	if g.th != nil {
		g.th.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			if r := g.regionOf(t); r != nil && cs[r.id] && g.mem.Forwarded(t) {
				return g.mem.Forwardee(t)
			}
			return t
		}, g.inYoung)
	}

	// Free the collection set.
	newOld := g.old[:0]
	for _, id := range g.old {
		if cs[id] {
			r := g.regions[id]
			g.cards.ClearStarts(r.start, r.end)
			g.releaseRegion(r)
			continue
		}
		newOld = append(newOld, id)
	}
	g.old = newOld
	return moved, len(cs), nil
}

// forEachLiveRegionObject walks every object in old, humongous, eden and
// survivor regions.
func (g *G1) forEachLiveRegionObject(fn func(a vm.Addr)) {
	g.forEachLiveRegionObjectExcept(nil, fn)
}

func (g *G1) forEachLiveRegionObjectExcept(skip map[int]bool, fn func(a vm.Addr)) {
	for _, r := range g.regions {
		if skip != nil && skip[r.id] {
			continue
		}
		switch r.kind {
		case regOld, regEden, regSurvivor:
			for a := r.start; a < r.top; {
				if g.mem.Forwarded(a) {
					// Husk of an object moved to H2 (shape preserved).
					a += vm.Addr(int(uint32(g.mem.Shape(a))) * vm.WordSize)
					continue
				}
				size := g.mem.SizeWords(a)
				if size < vm.HeaderWords {
					panic(fmt.Sprintf("g1: corrupt object at %v in region %d (kind %d, size %d, start %v, top %v)",
						a, r.id, r.kind, size, r.start, r.top))
				}
				fn(a)
				a += vm.Addr(size * vm.WordSize)
			}
		case regHumongousStart:
			if r.top > r.start {
				fn(r.start)
			}
		}
	}
}
