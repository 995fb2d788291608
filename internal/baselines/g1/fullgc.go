package g1

import (
	"sort"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// FullGC is G1's expensive fallback: a stop-the-world mark-compact over
// every non-humongous region. Live objects (young and old alike) are
// packed into the lowest-id regions, never spanning region boundaries and
// skipping humongous runs, which stay in place — that immobility is the
// fragmentation the paper's G1 OOMs stem from.
func (g *G1) FullGC() error {
	if err := g.OOM(); err != nil {
		return err
	}
	p := g.BeginPause(gc.PhaseMajor)
	defer p.Restore()
	mem := g.Mem()
	usedBefore := g.usedBytes()

	objects, refs := g.markAll()

	// Reclaim dead humongous runs first (more contiguous space).
	g.freeHumongousIf(func(r *region) bool { return r.liveBytes == 0 })

	// Collect live non-humongous objects in ascending address order.
	var src []vm.Addr
	for _, r := range g.regions {
		switch r.kind {
		case regEden, regSurvivor, regOld:
			g.walk(r, func(a vm.Addr) {
				if mem.Marked(a) {
					src = append(src, a)
				}
			})
		}
	}

	// Assign destinations: pack ascending, skipping humongous regions and
	// region boundaries (objects never span regions).
	dst := make([]vm.Addr, len(src))
	ri := 0 // destination region index
	var cur vm.Addr
	advance := func() bool {
		for ri < len(g.regions) {
			k := g.regions[ri].kind
			if k != regHumongousStart && k != regHumongousCont {
				cur = g.regions[ri].start
				return true
			}
			ri++
		}
		return false
	}
	if !advance() {
		return g.LatchOOM(&gc.OOMError{Requested: 0, Where: "g1 full GC (no packable region)"})
	}
	var packedBytes int64
	// packTop records each destination region's true allocation top:
	// packing skips a region's tail when the next object does not fit, so
	// "full to the brim" would leave unwalkable gaps.
	packTop := make(map[int]vm.Addr)
	for i, a := range src {
		size := vm.Addr(mem.SizeWords(a) * vm.WordSize)
		for cur+size > g.regions[ri].end {
			ri++
			if !advance() {
				return g.LatchOOM(&gc.OOMError{Requested: int64(size), Where: "g1 full GC compaction"})
			}
		}
		dst[i] = cur
		cur += size
		packTop[ri] = cur
		packedBytes += int64(size)
	}
	lastUsedRegion := ri

	// Adjust references (live objects, humongous objects, roots, and H2
	// backward references, whose targets all end up old). The forwarding
	// index is the one Parallel Scavenge's compaction uses.
	var fwd gc.FwdIndex
	fwd.Build(src)
	adjRefs := g.relocate(func(fn func(vm.Addr)) {
		for _, a := range src {
			fn(a)
		}
		for _, id := range g.hum {
			if r := g.regions[id]; r.top > r.start {
				fn(r.start)
			}
		}
	}, func(t vm.Addr) (vm.Addr, bool) {
		return fwd.Lookup(src, dst, t)
	}, func(vm.Addr) bool { return false })

	// Move (ascending: dst_i <= src_i, so sliding never clobbers).
	for i, a := range src {
		size := mem.SizeWords(a)
		if dst[i] != a {
			mem.CopyObject(dst[i], a, size)
		}
		mem.SetMarked(dst[i], false)
	}
	for _, id := range g.hum {
		r := g.regions[id]
		if r.top > r.start && mem.Marked(r.start) {
			mem.SetMarked(r.start, false)
		}
	}

	// Rebuild region bookkeeping.
	g.eden, g.survivor, g.old, g.free = nil, nil, nil, nil
	g.curEden = nil
	g.cards.ClearAll()
	for _, r := range g.regions {
		switch r.kind {
		case regHumongousStart:
			g.cards.NoteStart(r.start)
			continue
		case regHumongousCont:
			continue
		}
		if top, used := packTop[r.id]; used && r.id <= lastUsedRegion {
			r.kind = regOld
			r.top = top
			g.old = append(g.old, r.id)
		} else {
			r.kind = regFree
			r.top = r.start
			g.free = append(g.free, r.id)
		}
		r.liveBytes = 0
	}
	sort.Ints(g.free)
	// Restore object-start info for packed regions.
	for i := range src {
		g.cards.NoteStart(dst[i])
	}

	// Full GC is single-threaded and expensive.
	cpu := time.Duration(objects)*simclock.MarkPerObject +
		time.Duration(refs+adjRefs)*simclock.ScanPerRef +
		time.Duration(packedBytes)*simclock.CopyPerByte
	g.Clock().Charge(simclock.MajorGC, cpu)
	g.Clock().Charge(simclock.MajorGC, simclock.PausePerGC)

	if g.TH != nil {
		g.TH.FinishMajor()
	}
	p.End(gc.Cycle{
		BytesCopied: packedBytes, ReclaimedBytes: usedBefore - g.usedBytes(),
		OldOccupancyAfter: g.oldOccupancy(),
	})
	return nil
}

// usedBytes sums allocated bytes across all regions.
func (g *G1) usedBytes() int64 {
	var t int64
	for _, r := range g.regions {
		if r.kind == regHumongousStart {
			// The whole run is reserved.
			t += int64(r.humRegions) * g.regionSize
		} else if r.kind != regHumongousCont {
			t += r.used()
		}
	}
	return t
}
