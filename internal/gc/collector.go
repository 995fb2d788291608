// Package gc implements the Parallel Scavenge-style generational collector
// the paper extends (§2, §4): a copying minor GC over eden and two survivor
// spaces with tenuring, and a four-phase (mark, precompact, adjust,
// compact) major GC over the whole of H1. The same collector runs the
// native-JVM baselines and the TeraHeap configurations: each phase calls
// its *core.TeraHeap directly, and a nil TeraHeap is vanilla Parallel
// Scavenge.
//
// The package also holds CollectedHeap, the runtime layer both collectors
// embed (this one and the G1 baseline in internal/baselines/g1): the
// runtime surface, the OOM and fault latches, the allocation entry points
// and the pause bracket, together with the lifecycle hooks and the GC
// statistics they record into.
package gc

import (
	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Collector is the Parallel Scavenge collector over H1 with optional
// TeraHeap (H2) extensions. It is also the managed runtime of every
// PS-based kind: with its embedded CollectedHeap it implements rt.Runtime
// directly.
type Collector struct {
	CollectedHeap

	H1 *heap.H1

	// Workers is the simulated GC gang size. The work items of each pause
	// phase are dealt round-robin onto Workers per-worker spans (0 counts
	// as 1) and the phase charges the longest span divided by the phase's
	// thread count. A gang of one is therefore the serial charge: the sum
	// of the phase's CPU work over the thread count. Above one worker each
	// barrier also pays simclock.StealSyncCost. Set before the first
	// collection.
	Workers int

	// PretenureCold places cold (long-lived framework) allocations
	// straight into the old generation: Panthera's policy for its
	// NVM-backed old generation. Set before any allocation.
	PretenureCold bool

	// scav is the persistent scavenger: its worklist and move-queue
	// backing arrays are grown once and reused, so a steady-state minor GC
	// performs no heap allocation. scavBackVisit and isYoungFn are the
	// pre-built closures handed to the backward-reference scan (building
	// them per cycle would allocate), and imageBuf is the reusable staging
	// buffer for H2-bound object images (CommitMove copies it into the
	// promotion-buffer arena, so it is safe to reuse per object).
	scav          scavenger
	scavBackVisit func(uint64, vm.Addr) vm.Addr
	isYoungFn     func(vm.Addr) bool
	imageBuf      []uint64

	// Major-GC scratch, reused across cycles: mark-phase buffers, the
	// precompaction live-object and destination arrays, and the forwarding
	// table backing arrays.
	majBacks   []backRef
	majClosure []vm.Addr
	majStack   []vm.Addr
	refBuf     []uint64
	preYoung   []vm.Addr
	preOld     []vm.Addr
	youngDst   []vm.Addr
	oldDst     []vm.Addr
	fwState    forwarding

	// gang attributes each pause phase's work items to simulated GC
	// workers (see gang.go); every phase is charged through it.
	gang gang
}

// New builds a collector over an already laid-out (and mapped) H1: DRAM
// for the native and TeraHeap JVMs, NVM-backed for the Spark-MO and
// Panthera baselines. th, built over the same as and classes, is nil for a
// vanilla JVM (no H2).
func New(h1 *heap.H1, as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock, th *core.TeraHeap) *Collector {
	c := &Collector{H1: h1}
	c.CollectedHeap = NewCollectedHeap(as, classes, clock, th, c.allocObject)
	c.scav.c = c
	c.scavBackVisit = func(_ uint64, t vm.Addr) vm.Addr {
		c.gang.beginItem() // each backward reference is one scavenge work item
		if c.H1.InYoung(t) {
			return c.scav.copyYoung(t)
		}
		return t
	}
	c.isYoungFn = c.H1.InYoung
	return c
}

// VerifyNow runs the full invariant verifier immediately and returns the
// violations found (empty when the heap is consistent). It never charges
// simulated time.
func (c *Collector) VerifyNow() []check.Failure {
	v := check.PSView{
		AS:      c.mem.AS,
		Classes: c.mem.Classes,
		H1:      c.H1,
		Roots:   c.Roots,
		Clock:   c.clock,
	}
	if c.TH != nil { // a nil *TeraHeap in the interface would be non-nil
		v.H2 = c.TH
	}
	return c.Verifier().VerifyPS(v)
}

// HeapUsed returns H1 usage and capacity.
func (c *Collector) HeapUsed() (int64, int64) { return c.H1.Used(), c.H1.Cfg.H1Size }

// allocObject is the collector's AllocFunc. After the OOM and fault
// latches, a cold allocation under PretenureCold is pretenured
// (allocPretenured); otherwise the placement policy may direct the object
// to the old generation, and the rest take the eden slow path.
func (c *Collector) allocObject(class *vm.Class, numRefs, sizeWords int, cold bool) (vm.Addr, error) {
	if c.oom != nil {
		return vm.NullAddr, c.oom
	}
	if flt := c.pollFault(); flt != nil {
		return vm.NullAddr, flt
	}
	if cold && c.PretenureCold {
		return c.allocPretenured(class, numRefs, sizeWords)
	}
	if c.policy.AllocTarget(placement.Site(class.ID), sizeWords, cold) == placement.AllocOld {
		// Policy-directed pretenuring: place straight in the old
		// generation when it has room; otherwise fall through to the
		// legacy eden path rather than forcing a full collection.
		if a, ok := c.allocOld(sizeWords); ok {
			c.InitAllocated(a, class, numRefs, sizeWords)
			c.mem.SetStatus(a, c.mem.Status(a)|vm.FlagPretenured)
			c.policy.NotePretenured(placement.Site(class.ID))
			return a, nil
		}
	}
	a, err := c.allocWords(sizeWords)
	if err != nil {
		return vm.NullAddr, err
	}
	c.InitAllocated(a, class, numRefs, sizeWords)
	return a, nil
}

// allocPretenured places an object directly in the old generation (the
// Panthera allocation policy for long-lived data), falling back to a major
// GC and then OOM.
func (c *Collector) allocPretenured(class *vm.Class, numRefs, sizeWords int) (vm.Addr, error) {
	a, ok := c.allocOld(sizeWords)
	if !ok {
		if err := c.FullGC(); err != nil {
			return vm.NullAddr, err
		}
		a, ok = c.allocOld(sizeWords)
	}
	if !ok {
		return vm.NullAddr, c.LatchOOM(&OOMError{Requested: int64(sizeWords) * vm.WordSize, Where: "pretenured allocation"})
	}
	c.InitAllocated(a, class, numRefs, sizeWords)
	return a, nil
}

// allocWords is the allocation slow path: eden, then minor GC (with a major
// first if promotion could not be absorbed), then direct old-generation
// placement for large objects, then major GC, then OOM.
func (c *Collector) allocWords(sizeWords int) (vm.Addr, error) {
	sizeBytes := int64(sizeWords) * vm.WordSize
	large := sizeBytes > c.H1.Eden.Capacity()/2

	if !large {
		if a, ok := c.H1.Eden.Alloc(sizeWords); ok {
			return a, nil
		}
		if err := c.ensureMinorHeadroom(); err != nil {
			return vm.NullAddr, err
		}
		if err := c.MinorGC(); err != nil {
			return vm.NullAddr, err
		}
		if a, ok := c.H1.Eden.Alloc(sizeWords); ok {
			return a, nil
		}
	}
	// Large object, or eden still cannot fit: old generation.
	if a, ok := c.allocOld(sizeWords); ok {
		return a, nil
	}
	if err := c.FullGC(); err != nil {
		return vm.NullAddr, err
	}
	if a, ok := c.allocOld(sizeWords); ok {
		return a, nil
	}
	return vm.NullAddr, c.LatchOOM(&OOMError{Requested: sizeBytes, Where: "allocation"})
}

// ensureMinorHeadroom guarantees a minor GC cannot fail mid-scavenge: in
// the worst case every live young byte is promoted, so the old generation
// must have room for the entire used young generation. When it does not,
// a major GC runs first — exactly the frequent, low-yield full collections
// the paper observes under memory pressure (§7.1, Fig 7).
func (c *Collector) ensureMinorHeadroom() error {
	if c.H1.Old.Free() >= c.H1.YoungUsed() {
		return nil
	}
	return c.FullGC()
}

func (c *Collector) allocOld(sizeWords int) (vm.Addr, bool) {
	a, ok := c.H1.Old.Alloc(sizeWords)
	if ok {
		c.H1.Cards.NoteStart(a)
	}
	return a, ok
}

// SalvageAllocOld carves old-gen space for one object image re-materialized
// from a quarantined H2 region (the §4 fallback direction, driven by the
// recovery layer instead of a failed PrepareMove). It maintains the object
// start array like every other old allocation but never triggers a GC:
// salvage runs at a safepoint where a nested collection would be unsound,
// so the recovery layer pre-checks capacity and treats false as
// salvage-failed (the fault stays latched).
func (c *Collector) SalvageAllocOld(sizeWords int) (vm.Addr, bool) {
	return c.allocOld(sizeWords)
}

// WriteRef performs a mutator reference-field store with the post-write
// barrier (§4): a reference range check selects the H1 or H2 card table.
func (c *Collector) WriteRef(obj vm.Addr, field int, val vm.Addr) {
	c.clock.Charge(simclock.Other, simclock.BarrierCost)
	c.stats.BarrierExecutions++
	if c.TH != nil {
		// The extra reference range check EnableTeraHeap compiles in;
		// the paper measures its overhead at <3% on DaCapo (§4).
		c.clock.Charge(simclock.Other, simclock.BarrierCost)
	}
	if c.TH.Contains(obj) {
		// Updating an H2 object: the store itself is a device
		// read-modify-write through the mapped file.
		c.mem.SetRefAt(obj, field, val)
		c.TH.DirtyCard(obj)
		return
	}
	c.mem.SetRefAt(obj, field, val)
	if c.H1.InOld(obj) && !val.IsNull() {
		c.H1.Cards.MarkDirty(obj)
	}
}

// adjustRef computes the post-compaction address for ref by binary search
// over sorted forwarding tables: in major GC, the one block of the tables
// built in the precompaction phase that FwdIndex picks. The search is
// hand-rolled: sort.Search would force the comparison through a closure on
// the hottest loop of the adjust phase.
func adjustRef(src, dst []vm.Addr, ref vm.Addr) (vm.Addr, bool) {
	lo, hi := 0, len(src)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if src[mid] < ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(src) && src[lo] == ref {
		return dst[lo], true
	}
	return vm.NullAddr, false
}
