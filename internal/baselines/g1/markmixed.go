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
	if err := g.OOM(); err != nil {
		return err
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
	p := g.BeginPause(gc.PhaseMixed)
	defer p.Restore()

	objects, refs := g.markAll()
	// TeraHeap-under-G1: move advised closures out during the marking
	// cycle (§7.1); this also frees humongous runs whose objects left.
	movedToH2 := g.moveClosuresToH2()
	// Concurrent marking: most of the traversal overlaps the mutator.
	cpu := time.Duration(float64(time.Duration(objects)*simclock.MarkPerObject+
		time.Duration(refs)*simclock.ScanPerRef) * concurrencyDiscount)
	g.chargeGC(simclock.MajorGC, cpu)

	// Reclaim wholly-dead humongous runs and old regions eagerly.
	dead := func(r *region) bool { return r.liveBytes == 0 }
	reclaimed, regionsFreed := g.freeHumongousIf(dead)
	oldBytes, oldRegions := g.releaseOld(dead)
	reclaimed += oldBytes
	regionsFreed += oldRegions

	// Mixed collection: evacuate the sparsest old regions.
	moved, freedByMixed, err := g.mixedEvacuate()
	if err != nil {
		return 0, err
	}
	regionsFreed += freedByMixed

	// Clear mark bits.
	g.forEachObject(nil, func(a vm.Addr) {
		if g.Mem().Marked(a) {
			g.Mem().SetMarked(a, false)
		}
	})

	g.Clock().Charge(simclock.MajorGC, simclock.PausePerGC)
	if g.TH != nil {
		g.TH.FinishMajor()
	}
	p.End(gc.Cycle{
		BytesCopied: moved, ReclaimedBytes: reclaimed, BytesMovedToH2: movedToH2,
		OldOccupancyAfter: g.oldOccupancy(),
	})
	return regionsFreed, nil
}

// markAll marks live objects from the roots (and, with a TeraHeap, from
// H2's backward references after resetting its region live bits) and
// refreshes per-region live byte counts. Young regions must be empty.
func (g *G1) markAll() (objects, refs int64) {
	mem := g.Mem()
	for _, r := range g.regions {
		r.liveBytes = 0
	}
	var stack []vm.Addr
	g.Roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() {
			stack = append(stack, a)
		}
	})
	if g.TH != nil {
		g.TH.BeginMajorMark()
		g.TH.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			stack = append(stack, t)
			return t
		}, g.inYoung)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.TH.Contains(a) {
			// Fence: record the forward reference, never scan H2.
			g.TH.NoteForwardRef(a)
			continue
		}
		if mem.Marked(a) {
			continue
		}
		mem.SetMarked(a, true)
		objects++
		size := int64(mem.SizeWords(a)) * vm.WordSize
		if r := g.regionOf(a); r != nil {
			r.liveBytes += size
		}
		n := mem.NumRefs(a)
		for i := 0; i < n; i++ {
			if t := mem.RefAt(a, i); !t.IsNull() {
				refs++
				stack = append(stack, t)
			}
		}
	}
	return objects, refs
}

// freeHumongousIf frees every humongous run whose start region satisfies
// dead, returning the bytes and regions freed.
func (g *G1) freeHumongousIf(dead func(r *region) bool) (bytes int64, regions int) {
	kept := g.hum[:0]
	for _, id := range g.hum {
		r := g.regions[id]
		if !dead(r) {
			kept = append(kept, id)
			continue
		}
		n := r.humRegions
		bytes += r.used()
		regions += n
		for _, rr := range g.regions[id : id+n] {
			g.cards.ClearStarts(rr.start, rr.end)
			g.releaseRegion(rr)
		}
	}
	g.hum = kept
	return bytes, regions
}

// releaseOld frees every old region that satisfies dead, returning the
// bytes and regions freed.
func (g *G1) releaseOld(dead func(r *region) bool) (bytes int64, regions int) {
	kept := g.old[:0]
	for _, id := range g.old {
		r := g.regions[id]
		if !dead(r) {
			kept = append(kept, id)
			continue
		}
		bytes += r.used()
		regions++
		g.cards.ClearStarts(r.start, r.end)
		g.releaseRegion(r)
	}
	g.old = kept
	return bytes, regions
}

// mixedEvacuate moves the live objects of sparse old regions into fresh
// regions, freeing the sources. Cost is proportional to the (small) live
// volume — the garbage-first payoff.
func (g *G1) mixedEvacuate() (int64, int, error) {
	mem := g.Mem()
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
	var err error
	for _, id := range csIDs {
		g.walk(g.regions[id], func(a vm.Addr) {
			if err != nil || !mem.Marked(a) {
				return
			}
			size := mem.SizeWords(a)
			d, ok := g.bumpInto(&dst, regOld, size)
			if !ok {
				err = fmt.Errorf("g1: no destination region for mixed GC")
				return
			}
			mem.CopyObject(d, a, size)
			g.cards.NoteStart(d)
			mem.SetForwardee(a, d)
			moved += int64(size) * vm.WordSize
			// Preserve old-to-young card information for the new location
			// (survivor regions stay populated between young collections).
			nr := mem.NumRefs(d)
			for f := 0; f < nr; f++ {
				if t := mem.RefAt(d, f); !t.IsNull() && g.inYoung(t) {
					g.cards.MarkDirty(d)
					break
				}
			}
		})
		if err != nil {
			return moved, 0, err
		}
	}
	g.chargeGC(simclock.MajorGC, time.Duration(moved)*simclock.CopyPerByte)

	// Fix references everywhere (modelled remembered-set cost: charged
	// proportional to the moved volume, already covered above; the walk
	// itself is simulator work). H2 backward references into the
	// collection set follow the evacuated objects too, or they would
	// dangle once the source regions are freed.
	g.relocate(func(fn func(vm.Addr)) { g.forEachObject(cs, fn) },
		func(t vm.Addr) (vm.Addr, bool) {
			if r := g.regionOf(t); r != nil && cs[r.id] && mem.Forwarded(t) {
				return mem.Forwardee(t), true
			}
			return t, false
		}, g.inYoung)

	// Free the collection set.
	_, freed := g.releaseOld(func(r *region) bool { return cs[r.id] })
	return moved, freed, nil
}

// relocate rewrites every reference to a moved object: the reference
// fields of the objects objs visits, the handle roots and H2's backward
// references (isYoung classifies their new targets for H2's card
// table). to returns a target's new address and whether it moved. It
// returns the number of non-null fields visited. Mixed evacuation,
// closure moves and full GC all fix references through it.
func (g *G1) relocate(objs func(fn func(vm.Addr)), to func(vm.Addr) (vm.Addr, bool), isYoung func(vm.Addr) bool) int64 {
	mem := g.Mem()
	var refs int64
	objs(func(a vm.Addr) {
		n := mem.NumRefs(a)
		for i := 0; i < n; i++ {
			t := mem.RefAt(a, i)
			if t.IsNull() {
				continue
			}
			refs++
			if nt, ok := to(t); ok {
				mem.SetRefAt(a, i, nt)
			}
		}
	})
	g.Roots.ForEach(func(h *vm.Handle) {
		if nt, ok := to(h.Addr()); ok {
			h.Set(nt)
		}
	})
	if g.TH != nil {
		g.TH.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			if nt, ok := to(t); ok {
				return nt
			}
			return t
		}, isYoung)
	}
	return refs
}

// forEachObject calls fn on every object in old, humongous, eden and
// survivor regions, except the regions in skip (nil skips none).
func (g *G1) forEachObject(skip map[int]bool, fn func(a vm.Addr)) {
	for _, r := range g.regions {
		if skip[r.id] {
			continue
		}
		switch r.kind {
		case regOld, regEden, regSurvivor:
			g.walk(r, fn)
		case regHumongousStart:
			if r.top > r.start {
				fn(r.start)
			}
		}
	}
}

// walk calls fn on each object of the linear (old, eden or survivor)
// region r in address order. It steps over the husks that objects moved
// to H2 leave behind: their shape word still holds their size. fn may
// forward the object it is given.
func (g *G1) walk(r *region, fn func(a vm.Addr)) {
	mem := g.Mem()
	for a := r.start; a < r.top; {
		if mem.Forwarded(a) {
			a += vm.Addr(int(uint32(mem.Shape(a))) * vm.WordSize)
			continue
		}
		size := mem.SizeWords(a)
		if size < vm.HeaderWords {
			panic(fmt.Sprintf("g1: corrupt object at %v in region %d (kind %d, size %d, start %v, top %v)",
				a, r.id, r.kind, size, r.start, r.top))
		}
		fn(a)
		a += vm.Addr(size * vm.WordSize)
	}
}
