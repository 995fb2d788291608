package g1

import (
	"sort"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// fullGC is G1's expensive fallback: a stop-the-world mark-compact over
// every non-humongous region. Live objects (young and old alike) are
// packed into the lowest-id regions, never spanning region boundaries and
// skipping humongous runs, which stay in place — that immobility is the
// fragmentation the paper's G1 OOMs stem from.
func (g *G1) fullGC() error {
	if g.oom != nil {
		return g.oom
	}
	g.hooks.BeforeGC(gc.PhaseMajor)
	prev := g.clock.SetContext(simclock.MajorGC)
	defer g.clock.SetContext(prev)
	before := g.clock.Breakdown()
	usedBefore := g.usedBytes()

	objects, refs := g.markAll()

	// Reclaim dead humongous runs first (more contiguous space).
	for _, id := range append([]int(nil), g.hum...) {
		if r := g.regions[id]; r.liveBytes == 0 {
			g.freeHumongous(r)
		}
	}

	// Collect live non-humongous objects in ascending address order,
	// skipping the husks of objects already moved to H2.
	var src []vm.Addr
	for _, r := range g.regions {
		switch r.kind {
		case regEden, regSurvivor, regOld:
			for a := r.start; a < r.top; {
				if g.mem.Forwarded(a) {
					a += vm.Addr(int(uint32(g.mem.Shape(a))) * vm.WordSize)
					continue
				}
				size := g.mem.SizeWords(a)
				if g.mem.Marked(a) {
					src = append(src, a)
				}
				a += vm.Addr(size * vm.WordSize)
			}
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
		return g.latchOOM(&gc.OOMError{Requested: 0, Where: "g1 full GC (no packable region)"})
	}
	var packedBytes int64
	// packTop records each destination region's true allocation top:
	// packing skips a region's tail when the next object does not fit, so
	// "full to the brim" would leave unwalkable gaps.
	packTop := make(map[int]vm.Addr)
	for i, a := range src {
		size := vm.Addr(g.mem.SizeWords(a) * vm.WordSize)
		for cur+size > g.regions[ri].end {
			ri++
			if !advance() {
				return g.latchOOM(&gc.OOMError{Requested: int64(size), Where: "g1 full GC compaction"})
			}
		}
		dst[i] = cur
		cur += size
		packTop[ri] = cur
		packedBytes += int64(size)
	}
	lastUsedRegion := ri

	// Adjust references (live objects, humongous objects, roots).
	adjust := func(t vm.Addr) vm.Addr {
		i := sort.Search(len(src), func(i int) bool { return src[i] >= t })
		if i < len(src) && src[i] == t {
			return dst[i]
		}
		return t // humongous or dangling (dangling would be a bug)
	}
	var adjRefs int64
	fixObj := func(a vm.Addr) {
		n := g.mem.NumRefs(a)
		for i := 0; i < n; i++ {
			if t := g.mem.RefAt(a, i); !t.IsNull() {
				adjRefs++
				g.mem.SetRefAt(a, i, adjust(t))
			}
		}
	}
	for _, a := range src {
		fixObj(a)
	}
	for _, id := range g.hum {
		r := g.regions[id]
		if r.top > r.start {
			fixObj(r.start)
		}
	}
	g.roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() && !g.th.Contains(a) {
			h.Set(adjust(a))
		}
	})
	// H2 backward references follow the packed objects.
	if g.th != nil {
		g.th.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			return adjust(t)
		}, func(vm.Addr) bool { return false })
	}

	// Move (ascending: dst_i <= src_i, so sliding never clobbers).
	for i, a := range src {
		size := g.mem.SizeWords(a)
		if dst[i] != a {
			g.mem.CopyObject(dst[i], a, size)
		}
		g.mem.SetMarked(dst[i], false)
	}
	for _, id := range g.hum {
		r := g.regions[id]
		if r.top > r.start && g.mem.Marked(r.start) {
			g.mem.SetMarked(r.start, false)
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
	g.clock.Charge(simclock.MajorGC, cpu)
	g.clock.Charge(simclock.MajorGC, simclock.PausePerGC)

	delta := g.clock.Breakdown().Sub(before)
	if g.th != nil {
		g.th.FinishMajor()
	}
	g.stats.Cycles = append(g.stats.Cycles, gc.Cycle{
		Kind: gc.Major, At: g.clock.Now(), Duration: delta.Get(simclock.MajorGC),
		BytesCopied: packedBytes, ReclaimedBytes: usedBefore - g.usedBytes(),
		OldOccupancyAfter: g.oldOccupancy(),
	})
	g.stats.MajorCount++
	g.stats.MajorTime += delta.Get(simclock.MajorGC)
	g.hooks.AfterGC(gc.PhaseMajor)
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
