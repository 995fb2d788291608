// Package g1 implements the Garbage-First collector baseline of Fig 8: a
// region-based generational collector with young evacuation, concurrent
// marking (charged at a concurrency discount), garbage-first mixed
// collections that evacuate the old regions with the least live data, and
// humongous objects allocated in contiguous region runs — one object per
// run, with the resulting fragmentation and OOM behaviour the paper
// reports for SVM, BC, and RL (§7.1).
//
// It embeds gc.CollectedHeap, the runtime layer it shares with Parallel
// Scavenge: the runtime surface, the OOM and fault latches, the allocation
// entry points and the pause bracket. G1 supplies only its algorithm: the
// region allocation slow path, its write barrier, HeapUsed, FullGC,
// VerifyNow and its young, mixed and full collections. With the base it
// implements rt.Runtime, so the Spark simulation runs over it unchanged.
//
// Mixed evacuation, closure moves to H2 and full GC fix references in one
// pass, relocate, over one region walk that steps over the husks objects
// moved to H2 leave behind. Full GC looks moved objects up with
// gc.FwdIndex, the forwarding index Parallel Scavenge's compaction uses.
package g1

import (
	"fmt"
	"sort"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// regionKind classifies a heap region.
type regionKind int

const (
	regFree regionKind = iota
	regEden
	regSurvivor
	regOld
	regHumongousStart
	regHumongousCont
)

// G1's policy constants.
const (
	// ihop is the old-space occupancy fraction that starts concurrent
	// marking (G1 default 0.45).
	ihop = 0.45
	// mixedLiveThreshold: old regions with a lower live fraction are
	// eligible for mixed collections (G1's garbage-first policy).
	mixedLiveThreshold = 0.65
	// tenureAge is the number of young collections an object survives
	// before promotion to an old region.
	tenureAge = 3
	// concurrencyDiscount scales marking cost (concurrent with mutator).
	concurrencyDiscount = 0.25
	// gcThreads divides G1's young-evacuation and marking CPU work.
	gcThreads = 8
)

// regionSizeFor returns the region size for an h1Size-byte heap:
// h1Size/256 clamped to [4KB, 32MB], rounded down to a power of two.
func regionSizeFor(h1Size int64) int64 {
	rs := h1Size / 256
	if rs < 4<<10 {
		rs = 4 << 10
	}
	if rs > 32<<20 {
		rs = 32 << 20
	}
	p := int64(1)
	for p*2 <= rs {
		p *= 2
	}
	return p
}

// region is one G1 heap region.
type region struct {
	id    int
	kind  regionKind
	start vm.Addr
	end   vm.Addr
	top   vm.Addr

	liveBytes int64 // from the last marking cycle
	// humRegions is the run length for a humongous start region.
	humRegions int
}

func (r *region) used() int64 { return int64(r.top - r.start) }

// G1 is the collector and runtime: the shared gc.CollectedHeap base plus
// G1's region bookkeeping.
type G1 struct {
	gc.CollectedHeap

	h1Size     int64 // whole number of regions
	regionSize int64

	regions []*region
	free    []int // free region ids (sorted)

	eden     []int
	survivor []int
	old      []int
	hum      []int // humongous start regions

	curEden *region

	// cards covers the whole heap; object starts are recorded for old and
	// humongous-start regions only.
	cards       *heap.CardTable
	youngTarget int
	// markCooldown counts young GCs to skip before the next concurrent
	// marking cycle may start.
	markCooldown int
}

// New builds a G1 runtime over an h1Size-byte heap, rounded down to a
// whole number of regions and mapped into as. th, built over the same as
// and classes, is the attached second heap, or nil for plain G1.
func New(h1Size int64, as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock, th *core.TeraHeap) *G1 {
	rs := regionSizeFor(h1Size)
	h1Size = h1Size / rs * rs
	n := int(h1Size / rs)
	if n < 8 {
		panic("g1: need at least 8 regions")
	}
	g := &G1{h1Size: h1Size, regionSize: rs}
	g.CollectedHeap = gc.NewCollectedHeap(as, classes, clock, th, g.allocObject)
	as.Map(vm.H1Base, vm.H1Base+vm.Addr(h1Size), vm.NewRAM(vm.H1Base, h1Size))
	for i := 0; i < n; i++ {
		start := vm.H1Base + vm.Addr(int64(i)*rs)
		g.regions = append(g.regions, &region{
			id: i, kind: regFree, start: start, end: start + vm.Addr(rs), top: start,
		})
		g.free = append(g.free, i)
	}
	g.cards = heap.NewCardTable(vm.H1Base, vm.H1Base+vm.Addr(h1Size))
	// A young collection runs once a quarter of the regions are eden.
	g.youngTarget = max(n/4, 2)
	return g
}

// RegionSize returns the region size in bytes.
func (g *G1) RegionSize() int64 { return g.regionSize }

// regionOf returns the region containing a.
func (g *G1) regionOf(a vm.Addr) *region {
	i := int(int64(a-vm.H1Base) / g.regionSize)
	if i < 0 || i >= len(g.regions) {
		return nil
	}
	return g.regions[i]
}

func (g *G1) takeFree(kind regionKind) *region {
	if len(g.free) == 0 {
		return nil
	}
	id := g.free[0]
	g.free = g.free[1:]
	r := g.regions[id]
	r.kind = kind
	r.top = r.start
	switch kind {
	case regEden:
		g.eden = append(g.eden, id)
	case regSurvivor:
		g.survivor = append(g.survivor, id)
	case regOld:
		g.old = append(g.old, id)
	}
	return r
}

func (g *G1) releaseRegion(r *region) {
	if r.kind == regFree {
		panic(fmt.Sprintf("g1: double free of region %d", r.id))
	}
	r.kind = regFree
	r.top = r.start
	r.liveBytes = 0
	r.humRegions = 0
	g.free = append(g.free, r.id)
	sort.Ints(g.free)
}

// inYoung reports whether a is in an eden or survivor region.
func (g *G1) inYoung(a vm.Addr) bool {
	r := g.regionOf(a)
	return r != nil && (r.kind == regEden || r.kind == regSurvivor)
}

// humongousWords is the threshold above which an object is humongous.
func (g *G1) humongousWords() int {
	return int(g.regionSize / 2 / vm.WordSize)
}

func (g *G1) chargeGC(cat simclock.Category, d time.Duration) {
	g.Clock().Charge(cat, d/gcThreads)
}
