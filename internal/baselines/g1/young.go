package g1

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// youngGC evacuates the eden and survivor regions: live objects copy to
// fresh survivor regions (or old regions once tenured), references are
// fixed through forwarding pointers, and the collection set is freed.
// It then starts a marking cycle (and mixed collections) when old-space
// occupancy crosses the IHOP threshold.
func (g *G1) youngGC() error {
	if err := g.youngGCNoMark(); err != nil {
		return err
	}
	// Start a marking cycle under occupancy pressure. Like real G1, a
	// completed marking cycle is followed by a cooldown: re-marking after
	// every single young collection would dwarf the collections
	// themselves.
	if g.oldOccupancy() > ihop {
		if g.markCooldown > 0 {
			g.markCooldown--
		} else {
			freed, err := g.markAndMixed()
			if err != nil {
				return err
			}
			// Productive cycles repeat soon; futile ones (the old data is
			// simply live) back off hard, as real G1 does when mixed
			// collections stop meeting their efficiency goal.
			if freed >= 2 {
				g.markCooldown = 4
			} else {
				g.markCooldown = 64
			}
		}
	}
	return nil
}

// youngGCNoMark evacuates the young generation without considering a
// marking cycle afterwards.
func (g *G1) youngGCNoMark() error {
	if err := g.OOM(); err != nil {
		return err
	}
	// Evacuation needs destination regions: in the worst case one per
	// young region plus partially-filled survivor/old tails. When the
	// free list cannot cover that, fall back to the in-place full GC
	// (which needs no free regions and empties the young generation).
	if len(g.free) < len(g.eden)+len(g.survivor)+3 {
		return g.FullGC()
	}
	p := g.BeginPause(gc.PhaseMinor)
	defer p.Restore()
	mem := g.Mem()

	cs := make(map[int]bool) // collection set: current young regions
	for _, id := range g.eden {
		cs[id] = true
	}
	for _, id := range g.survivor {
		cs[id] = true
	}
	oldEden, oldSurvivor := g.eden, g.survivor
	g.eden, g.survivor = nil, nil
	g.curEden = nil

	var curSurv, curOld *region
	var bytesCopied, bytesPromoted int64
	var refsScanned, cardsScanned, cardObjects int64
	var worklist []vm.Addr

	inCS := func(a vm.Addr) bool {
		r := g.regionOf(a)
		return r != nil && cs[r.id]
	}

	evac := func(a vm.Addr) vm.Addr {
		if mem.Forwarded(a) {
			return mem.Forwardee(a)
		}
		size := mem.SizeWords(a)
		status := mem.Status(a)
		site := placement.SiteFromStatus(status)
		age := vm.StatusAge(status) + 1
		var dst vm.Addr
		var ok, promoted bool
		if g.Policy().Promote(site, age, tenureAge) {
			dst, ok = g.bumpInto(&curOld, regOld, size)
			promoted = ok
		}
		if !ok {
			dst, ok = g.bumpInto(&curSurv, regSurvivor, size)
		}
		if !ok {
			dst, ok = g.bumpInto(&curOld, regOld, size)
			promoted = ok
		}
		if !ok {
			// The reserve invariant makes this unreachable.
			panic(fmt.Sprintf("g1: evacuation failure for %v (%d words)", a, size))
		}
		mem.CopyObject(dst, a, size)
		mem.SetAge(dst, age)
		mem.SetForwardee(a, dst)
		if promoted {
			bytesPromoted += int64(size) * vm.WordSize
			g.cards.NoteStart(dst)
		} else {
			bytesCopied += int64(size) * vm.WordSize
		}
		worklist = append(worklist, dst)
		g.Policy().NoteScavenge(site, age, promoted)
		return dst
	}

	// Roots 1: handles (H2-resident targets are fenced: they are in no
	// collection-set region).
	g.Roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() && inCS(a) {
			h.Set(evac(a))
		}
	})

	// Roots 2: backward references from the second heap.
	if g.TH != nil {
		g.TH.ScanBackwardRefs(false, func(_ uint64, t vm.Addr) vm.Addr {
			if inCS(t) {
				return evac(t)
			}
			return t
		}, g.inYoung)
	}

	// Roots 3: dirty cards over old and humongous regions.
	cards := g.cards
	n := cards.NumCards()
	cardsScanned = int64(n)
	for ci := 0; ci < n; ci++ {
		if cards.Get(ci) == heap.CardClean {
			continue
		}
		cards.Set(ci, heap.CardClean)
		_, hi := cards.CardBounds(ci)
		obj := cards.FirstStart(ci)
		anyYoung := false
		for !obj.IsNull() && obj < hi {
			r := g.regionOf(obj)
			if r == nil || obj >= r.top || (r.kind != regOld && r.kind != regHumongousStart) {
				break
			}
			if mem.Forwarded(obj) {
				// Husk of an object moved to H2; shape is preserved.
				obj += vm.Addr(int(uint32(mem.Shape(obj))) * vm.WordSize)
				continue
			}
			cardObjects++
			nrefs := mem.NumRefs(obj)
			for f := 0; f < nrefs; f++ {
				t := mem.RefAt(obj, f)
				refsScanned++
				if !t.IsNull() && inCS(t) {
					nt := evac(t)
					mem.SetRefAt(obj, f, nt)
					if g.inYoung(nt) {
						anyYoung = true
					}
				}
			}
			obj += vm.Addr(mem.SizeWords(obj) * vm.WordSize)
		}
		if anyYoung {
			cards.Set(ci, heap.CardDirty)
		}
	}

	// Transitive copy. Refs into H2 are naturally outside every CS
	// region, so the scan is already fenced from the second heap.
	for len(worklist) > 0 {
		dst := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		n := mem.NumRefs(dst)
		anyYoung := false
		for i := 0; i < n; i++ {
			t := mem.RefAt(dst, i)
			refsScanned++
			if t.IsNull() || !inCS(t) {
				continue
			}
			nt := evac(t)
			mem.SetRefAt(dst, i, nt)
			if g.inYoung(nt) {
				anyYoung = true
			}
		}
		if anyYoung {
			if r := g.regionOf(dst); r != nil && r.kind == regOld {
				g.cards.MarkDirty(dst)
			}
		}
	}

	// Free the collection set.
	for _, id := range oldEden {
		g.releaseRegion(g.regions[id])
	}
	for _, id := range oldSurvivor {
		g.releaseRegion(g.regions[id])
	}

	cpu := time.Duration(bytesCopied+bytesPromoted)*simclock.CopyPerByte +
		time.Duration(refsScanned)*simclock.ScanPerRef +
		time.Duration(cardsScanned)*simclock.PerCard +
		time.Duration(cardObjects)*simclock.PerCardObject
	g.chargeGC(simclock.MinorGC, cpu)
	g.Clock().Charge(simclock.MinorGC, simclock.PausePerGC)

	p.End(gc.Cycle{
		BytesCopied: bytesCopied, BytesPromoted: bytesPromoted,
		OldOccupancyAfter: g.oldOccupancy(), CardsScanned: cardsScanned,
	})
	return nil
}

// oldOccupancy returns the fraction of heap regions holding old or
// humongous data.
func (g *G1) oldOccupancy() float64 {
	used := 0
	for _, r := range g.regions {
		switch r.kind {
		case regOld, regHumongousStart, regHumongousCont:
			used++
		}
	}
	return float64(used) / float64(len(g.regions))
}
