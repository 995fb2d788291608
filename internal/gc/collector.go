// Package gc implements the Parallel Scavenge-style generational collector
// the paper extends (§2, §4): a copying minor GC over eden and two survivor
// spaces with tenuring, and a four-phase (mark, precompact, adjust,
// compact) major GC over the whole of H1. The same collector runs the
// native-JVM baselines and the TeraHeap configurations: each phase calls
// its *core.TeraHeap directly, and a nil TeraHeap is vanilla Parallel
// Scavenge.
package gc

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// OOMError reports that the heap could not satisfy an allocation even
// after a full collection — the paper's missing "OOM" bars.
type OOMError struct {
	Requested int64 // bytes
	Where     string
}

// Error describes the failure.
func (e *OOMError) Error() string {
	return fmt.Sprintf("gc: out of memory (%s, requested %d bytes)", e.Where, e.Requested)
}

// FaultError reports that the storage backing the heap failed persistently
// — a device operation exhausted its retry budget (fault.DeviceFailure) or
// an H2 region's backing blocks went bad (fault.RegionFailure). Like
// OOMError it latches on the collector: the run ends as a structured
// failure, never a panic — unless a recovery hook absorbs the fault from
// inside OnFault (see AbsorbFault), in which case the run continues.
type FaultError struct {
	Cause error
}

// Error describes the failure.
func (e *FaultError) Error() string {
	return "gc: storage fault: " + e.Cause.Error()
}

// Unwrap exposes the underlying device failure to errors.As.
func (e *FaultError) Unwrap() error { return e.Cause }

// ClassKindError reports an allocation call that does not match the
// class's layout kind (e.g. Alloc of an array class) — an API-misuse
// error returned to the caller rather than a process-killing panic.
type ClassKindError struct {
	Call  string
	Class string
}

// Error describes the mismatch.
func (e *ClassKindError) Error() string {
	return fmt.Sprintf("gc: %s of incompatible class %q", e.Call, e.Class)
}

// Collector is the Parallel Scavenge collector over H1 with optional
// TeraHeap (H2) extensions. It is also the managed runtime of every
// PS-based kind: it implements rt.Runtime directly.
type Collector struct {
	H1    *heap.H1
	Roots *vm.RootSet
	TH    *core.TeraHeap // nil: no H2

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

	mem   *vm.Mem
	clock *simclock.Clock

	stats Stats

	// oom latches after an OOMError so subsequent allocations fail fast.
	oom *OOMError

	// inj is the run's fault injector (nil when fault-free); flt latches
	// once the injector reports a persistent device failure, mirroring oom.
	inj *fault.Injector
	flt *FaultError

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
	preYoung   []vm.Addr
	preOld     []vm.Addr
	youngDst   []vm.Addr
	oldDst     []vm.Addr
	fwState    forwarding

	// gang attributes each pause phase's work items to simulated GC
	// workers (see gang.go); every phase is charged through it.
	gang gang

	// verifier holds the invariant verifier's reusable scratch (maps,
	// queues, parsed-object arrays) so verified runs do not rebuild them
	// around every GC.
	verifier *check.Verifier

	// hooks is the ordered lifecycle-hook plane: cross-cutting layers
	// (verification, event accounting, tracing) register here instead of
	// patching the collection phases.
	hooks Hooks

	// policy is the placement-policy seam consulted at every target-space
	// decision (alloc-time pretenuring, scavenge-time promotion) and fed
	// survival/misprediction feedback. placement.Default reproduces the
	// legacy hardcoded behavior exactly.
	policy placement.Policy
}

// New builds a collector over an already laid-out (and mapped) H1: DRAM
// for the native and TeraHeap JVMs, NVM-backed for the Spark-MO and
// Panthera baselines. th, built over the same as and classes, is nil for a
// vanilla JVM (no H2).
func New(h1 *heap.H1, as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock, th *core.TeraHeap) *Collector {
	c := &Collector{
		H1:     h1,
		Roots:  vm.NewRootSet(),
		TH:     th,
		mem:    vm.NewMem(as, classes),
		clock:  clock,
		policy: placement.Default{},
	}
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

// Classes returns the class table.
func (c *Collector) Classes() *vm.ClassTable { return c.mem.Classes }

// Mem returns the object accessors.
func (c *Collector) Mem() *vm.Mem { return c.mem }

// Clock returns the simulation clock.
func (c *Collector) Clock() *simclock.Clock { return c.clock }

// Breakdown snapshots the execution-time breakdown.
func (c *Collector) Breakdown() simclock.Breakdown { return c.clock.Breakdown() }

// Hooks returns the collector's lifecycle-hook plane. Cross-cutting layers
// register here; the session's verifier and event counters are the stock
// implementations.
func (c *Collector) Hooks() *Hooks { return &c.hooks }

// SetPlacementPolicy installs a placement policy; nil restores the
// default (legacy) policy. Must be called before any allocation.
func (c *Collector) SetPlacementPolicy(p placement.Policy) {
	if p == nil {
		p = placement.Default{}
	}
	c.policy = p
}

// SetFaultInjector attaches the run's fault injector so persistent device
// failures latch on the collector at the next allocation or GC boundary.
func (c *Collector) SetFaultInjector(in *fault.Injector) { c.inj = in }

// Fault returns the latched persistent storage fault, or nil.
func (c *Collector) Fault() error {
	if c.flt == nil {
		return nil
	}
	return c.flt
}

// pollFault latches (and returns) a FaultError once the injector reports a
// persistent device or region failure. Checked at allocation and GC
// boundaries so a device that died mid-phase surfaces as a structured
// error on the next safepoint rather than a panic inside the phase. These
// poll sites are also the recovery layer's safepoints: promotion buffers
// are flushed and the heap is parse-consistent here, so an OnFault hook
// may salvage the damage and absorb the fault (the post-dispatch re-read
// of c.flt picks that up and the run continues fault-free).
func (c *Collector) pollFault() *FaultError {
	if c.flt != nil {
		return c.flt
	}
	var cause error
	if f := c.inj.Failure(); f != nil {
		cause = f
	} else if rf := c.inj.RegionFault(); rf != nil {
		cause = rf
	}
	if cause != nil {
		c.flt = &FaultError{Cause: cause}
		c.hooks.OnFault(c.flt)
	}
	return c.flt
}

// AbsorbFault clears the latched fault. For recovery hooks only: legal
// exclusively from inside OnFault, after the damage the fault describes
// has been repaired (failed regions salvaged, injector latches cleared) —
// otherwise the next pollFault re-latches the same fault immediately.
func (c *Collector) AbsorbFault() { c.flt = nil }

// latchOOM records the out-of-memory condition (subsequent allocations
// fail fast on it) and fires the on-OOM lifecycle event exactly once.
func (c *Collector) latchOOM(e *OOMError) *OOMError {
	c.oom = e
	c.hooks.OnOOM(e)
	return e
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
	if c.verifier == nil {
		c.verifier = check.NewVerifier()
	}
	return c.verifier.VerifyPS(v)
}

// AllocPretenured places an object directly in the old generation (the
// Panthera allocation policy for long-lived data), falling back to a major
// GC and then OOM.
func (c *Collector) AllocPretenured(class *vm.Class, numRefs, sizeWords int) (vm.Addr, error) {
	if c.oom != nil {
		return vm.NullAddr, c.oom
	}
	if flt := c.pollFault(); flt != nil {
		return vm.NullAddr, flt
	}
	a, ok := c.allocOld(sizeWords)
	if !ok {
		if err := c.FullGC(); err != nil {
			return vm.NullAddr, err
		}
		a, ok = c.allocOld(sizeWords)
	}
	if !ok {
		return vm.NullAddr, c.latchOOM(&OOMError{Requested: int64(sizeWords) * vm.WordSize, Where: "pretenured allocation"})
	}
	c.mem.InitObject(a, class, numRefs, sizeWords)
	c.stats.BytesAllocated += int64(sizeWords) * vm.WordSize
	c.stats.ObjectsAllocated++
	return a, nil
}

// GCStats returns the accumulated GC statistics.
func (c *Collector) GCStats() *Stats { return &c.stats }

// OOM returns the latched out-of-memory error, or nil.
func (c *Collector) OOM() error {
	if c.oom == nil {
		return nil
	}
	return c.oom
}

// NewHandle roots a fresh handle holding a.
func (c *Collector) NewHandle(a vm.Addr) *vm.Handle { return c.Roots.Create(a) }

// Release unroots h.
func (c *Collector) Release(h *vm.Handle) { c.Roots.Release(h) }

// TagRoot applies h2_tag_root (a no-op without a second heap).
func (c *Collector) TagRoot(h *vm.Handle, label uint64) {
	if c.TH != nil {
		c.TH.TagRoot(h, label)
	}
}

// MoveHint applies h2_move (a no-op without a second heap).
func (c *Collector) MoveHint(label uint64) {
	if c.TH != nil {
		c.TH.Move(label)
	}
}

// InSecondHeap reports whether a is in H2.
func (c *Collector) InSecondHeap(a vm.Addr) bool { return c.TH.Contains(a) }

// HeapUsed returns H1 usage and capacity.
func (c *Collector) HeapUsed() (int64, int64) { return c.H1.Used(), c.H1.Cfg.H1Size }

// Alloc allocates a fixed-layout instance of class.
func (c *Collector) Alloc(class *vm.Class) (vm.Addr, error) {
	if class.Kind != vm.KindFixed {
		return vm.NullAddr, &ClassKindError{Call: "Alloc", Class: class.Name}
	}
	return c.allocObject(class, class.NumRefs, class.InstanceWords(), false)
}

// AllocRefArray allocates a reference array of n elements.
func (c *Collector) AllocRefArray(class *vm.Class, n int) (vm.Addr, error) {
	if class.Kind != vm.KindRefArray {
		return vm.NullAddr, &ClassKindError{Call: "AllocRefArray", Class: class.Name}
	}
	return c.allocObject(class, n, vm.HeaderWords+n, false)
}

// AllocPrimArray allocates a primitive array of n words.
func (c *Collector) AllocPrimArray(class *vm.Class, n int) (vm.Addr, error) {
	if class.Kind != vm.KindPrimArray {
		return vm.NullAddr, &ClassKindError{Call: "AllocPrimArray", Class: class.Name}
	}
	return c.allocObject(class, 0, vm.HeaderWords+n, false)
}

// AllocCold, AllocColdRefArray, and AllocColdPrimArray are the framework's
// cold-allocation hint: identical to the plain variants, except the cold
// bit reaches the placement policy's alloc-time decision — or, with
// PretenureCold, the object is pretenured (AllocPretenured).
func (c *Collector) AllocCold(class *vm.Class) (vm.Addr, error) {
	if c.PretenureCold {
		return c.AllocPretenured(class, class.NumRefs, class.InstanceWords())
	}
	if class.Kind != vm.KindFixed {
		return vm.NullAddr, &ClassKindError{Call: "Alloc", Class: class.Name}
	}
	return c.allocObject(class, class.NumRefs, class.InstanceWords(), true)
}

// AllocColdRefArray allocates a reference array flagged cold.
func (c *Collector) AllocColdRefArray(class *vm.Class, n int) (vm.Addr, error) {
	if c.PretenureCold {
		return c.AllocPretenured(class, n, vm.HeaderWords+n)
	}
	if class.Kind != vm.KindRefArray {
		return vm.NullAddr, &ClassKindError{Call: "AllocRefArray", Class: class.Name}
	}
	return c.allocObject(class, n, vm.HeaderWords+n, true)
}

// AllocColdPrimArray allocates a primitive array flagged cold.
func (c *Collector) AllocColdPrimArray(class *vm.Class, n int) (vm.Addr, error) {
	if c.PretenureCold {
		return c.AllocPretenured(class, 0, vm.HeaderWords+n)
	}
	if class.Kind != vm.KindPrimArray {
		return vm.NullAddr, &ClassKindError{Call: "AllocPrimArray", Class: class.Name}
	}
	return c.allocObject(class, 0, vm.HeaderWords+n, true)
}

func (c *Collector) allocObject(class *vm.Class, numRefs, sizeWords int, cold bool) (vm.Addr, error) {
	if c.oom != nil {
		return vm.NullAddr, c.oom
	}
	if flt := c.pollFault(); flt != nil {
		return vm.NullAddr, flt
	}
	if c.policy.AllocTarget(placement.Site(class.ID), sizeWords, cold) == placement.AllocOld {
		// Policy-directed pretenuring: place straight in the old
		// generation when it has room; otherwise fall through to the
		// legacy eden path rather than forcing a full collection.
		if a, ok := c.allocOld(sizeWords); ok {
			c.mem.InitObject(a, class, numRefs, sizeWords)
			c.mem.SetStatus(a, c.mem.Status(a)|vm.FlagPretenured)
			c.stats.BytesAllocated += int64(sizeWords) * vm.WordSize
			c.stats.ObjectsAllocated++
			c.policy.NotePretenured(placement.Site(class.ID))
			return a, nil
		}
	}
	a, err := c.allocWords(sizeWords)
	if err != nil {
		return vm.NullAddr, err
	}
	c.mem.InitObject(a, class, numRefs, sizeWords)
	c.stats.BytesAllocated += int64(sizeWords) * vm.WordSize
	c.stats.ObjectsAllocated++
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
	return vm.NullAddr, c.latchOOM(&OOMError{Requested: sizeBytes, Where: "allocation"})
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

// WritePrim performs a mutator primitive-word store (no card needed, but
// H2 stores still pay device cost through the mapped file).
func (c *Collector) WritePrim(obj vm.Addr, i int, v uint64) {
	c.mem.SetPrimAt(obj, i, v)
}

// ReadRef loads a reference field (H2 loads charge page faults).
func (c *Collector) ReadRef(obj vm.Addr, field int) vm.Addr {
	return c.mem.RefAt(obj, field)
}

// ReadPrim loads a primitive word.
func (c *Collector) ReadPrim(obj vm.Addr, i int) uint64 {
	return c.mem.PrimAt(obj, i)
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
