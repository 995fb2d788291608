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
	if g.oom != nil {
		return g.oom
	}
	// Evacuation needs destination regions: in the worst case one per
	// young region plus partially-filled survivor/old tails. When the
	// free list cannot cover that, fall back to the in-place full GC
	// (which needs no free regions and empties the young generation).
	if len(g.free) < len(g.eden)+len(g.survivor)+3 {
		return g.fullGC()
	}
	g.hooks.BeforeGC(gc.PhaseMinor)
	prev := g.clock.SetContext(simclock.MinorGC)
	defer g.clock.SetContext(prev)
	before := g.clock.Breakdown()

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
		if g.mem.Forwarded(a) {
			return g.mem.Forwardee(a)
		}
		size := g.mem.SizeWords(a)
		status := g.mem.Status(a)
		site := placement.SiteFromStatus(status)
		age := vm.StatusAge(status) + 1
		var dst vm.Addr
		var ok bool
		promoted := false
		place := func(r **region, kind regionKind) bool {
			if *r != nil {
				if d, fits := g.bump(*r, size); fits {
					dst, ok = d, true
					return true
				}
			}
			nr := g.takeFree(kind)
			if nr == nil {
				return false
			}
			*r = nr
			if d, fits := g.bump(nr, size); fits {
				dst, ok = d, true
				return true
			}
			return false
		}
		if g.policy.Promote(site, age, tenureAge) {
			promoted = place(&curOld, regOld)
		}
		if !ok {
			place(&curSurv, regSurvivor)
		}
		if !ok {
			promoted = place(&curOld, regOld)
		}
		if !ok {
			// The reserve invariant makes this unreachable.
			panic(fmt.Sprintf("g1: evacuation failure for %v (%d words)", a, size))
		}
		g.mem.CopyObject(dst, a, size)
		g.mem.SetAge(dst, age)
		g.mem.SetForwardee(a, dst)
		if promoted {
			bytesPromoted += int64(size) * vm.WordSize
			g.cards.NoteStart(dst)
		} else {
			bytesCopied += int64(size) * vm.WordSize
		}
		worklist = append(worklist, dst)
		g.policy.NoteScavenge(site, age, promoted)
		return dst
	}

	// Roots 1: handles (H2-resident targets are fenced: they are in no
	// collection-set region).
	g.roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() && inCS(a) {
			h.Set(evac(a))
		}
	})

	// Roots 2: backward references from the second heap.
	if g.th != nil {
		g.th.ScanBackwardRefs(false, func(_ uint64, t vm.Addr) vm.Addr {
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
			if g.mem.Forwarded(obj) {
				// Husk of an object moved to H2; shape is preserved.
				obj += vm.Addr(int(uint32(g.mem.Shape(obj))) * vm.WordSize)
				continue
			}
			cardObjects++
			nrefs := g.mem.NumRefs(obj)
			for f := 0; f < nrefs; f++ {
				t := g.mem.RefAt(obj, f)
				refsScanned++
				if !t.IsNull() && inCS(t) {
					nt := evac(t)
					g.mem.SetRefAt(obj, f, nt)
					if g.inYoung(nt) {
						anyYoung = true
					}
				}
			}
			obj += vm.Addr(g.mem.SizeWords(obj) * vm.WordSize)
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
		n := g.mem.NumRefs(dst)
		anyYoung := false
		for i := 0; i < n; i++ {
			t := g.mem.RefAt(dst, i)
			refsScanned++
			if t.IsNull() || !inCS(t) {
				continue
			}
			nt := evac(t)
			g.mem.SetRefAt(dst, i, nt)
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
	g.clock.Charge(simclock.MinorGC, simclock.PausePerGC)

	delta := g.clock.Breakdown().Sub(before)
	g.stats.Cycles = append(g.stats.Cycles, gc.Cycle{
		Kind: gc.Minor, At: g.clock.Now(), Duration: delta.Get(simclock.MinorGC),
		BytesCopied: bytesCopied, BytesPromoted: bytesPromoted,
		OldOccupancyAfter: g.oldOccupancy(), CardsScanned: cardsScanned,
	})
	g.stats.MinorCount++
	g.stats.MinorTime += delta.Get(simclock.MinorGC)
	g.hooks.AfterGC(gc.PhaseMinor)
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
