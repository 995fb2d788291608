package gc

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
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
// OOMError it latches on the heap: the run ends as a structured failure,
// never a panic — unless a recovery hook absorbs the fault from inside
// OnFault (see AbsorbFault), in which case the run continues.
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

// AllocFunc is a collector's allocation path: it places one object of
// sizeWords words (numRefs of them references) and lays it out with
// InitAllocated. cold is the framework's long-lived-data hint.
type AllocFunc func(class *vm.Class, numRefs, sizeWords int, cold bool) (vm.Addr, error)

// CollectedHeap is the runtime layer both collectors share, as HotSpot's
// CollectedHeap sits under ParallelScavengeHeap and G1CollectedHeap.
// Collector and the G1 baseline (internal/baselines/g1) embed it. It holds
// the object accessors, the clock, the roots, the optional second heap,
// the lifecycle hooks, the GC statistics, the placement policy and the
// verifier scratch, and it owns the OOM and fault latches, the six
// allocation entry points and the pause bracket every collection runs in.
// Each collector keeps only its algorithm: its AllocFunc, write barrier,
// HeapUsed, FullGC, VerifyNow and collections.
type CollectedHeap struct {
	Roots *vm.RootSet
	TH    *core.TeraHeap // nil: no H2

	mem   *vm.Mem
	clock *simclock.Clock
	stats Stats
	alloc AllocFunc

	// hooks is the ordered lifecycle-hook plane: cross-cutting layers
	// (verification, event accounting, tracing) register here instead of
	// patching the collection phases.
	hooks Hooks

	// policy is the placement-policy seam consulted at every target-space
	// decision (alloc-time pretenuring, promotion) and fed survival and
	// misprediction feedback. placement.Default reproduces the legacy
	// hardcoded behavior exactly.
	policy placement.Policy

	// verifier holds the invariant verifier's reusable scratch, built on
	// the first Verifier call.
	verifier *check.Verifier

	// oom latches after an OOMError so subsequent allocations fail fast.
	oom *OOMError

	// inj is the run's fault injector (nil when fault-free); flt latches
	// once pollFault sees the injector report a persistent failure.
	inj *fault.Injector
	flt *FaultError
}

// NewCollectedHeap builds the shared base of a collector over as and
// classes. th is the attached second heap, or nil; alloc is the
// collector's allocation path behind the six entry points.
func NewCollectedHeap(as *vm.AddressSpace, classes *vm.ClassTable, clock *simclock.Clock, th *core.TeraHeap, alloc AllocFunc) CollectedHeap {
	return CollectedHeap{
		Roots:  vm.NewRootSet(),
		TH:     th,
		mem:    vm.NewMem(as, classes),
		clock:  clock,
		alloc:  alloc,
		policy: placement.Default{},
	}
}

// Classes returns the class table.
func (h *CollectedHeap) Classes() *vm.ClassTable { return h.mem.Classes }

// Mem returns the object accessors.
func (h *CollectedHeap) Mem() *vm.Mem { return h.mem }

// Clock returns the simulation clock.
func (h *CollectedHeap) Clock() *simclock.Clock { return h.clock }

// Breakdown snapshots the execution-time breakdown.
func (h *CollectedHeap) Breakdown() simclock.Breakdown { return h.clock.Breakdown() }

// Hooks returns the lifecycle-hook plane. Cross-cutting layers register
// here; the session's verifier and event counters are the stock
// implementations.
func (h *CollectedHeap) Hooks() *Hooks { return &h.hooks }

// GCStats returns the accumulated GC statistics.
func (h *CollectedHeap) GCStats() *Stats { return &h.stats }

// Policy returns the installed placement policy.
func (h *CollectedHeap) Policy() placement.Policy { return h.policy }

// SetPlacementPolicy installs a placement policy; nil restores the
// default (legacy) policy. Must be called before any allocation.
func (h *CollectedHeap) SetPlacementPolicy(p placement.Policy) {
	if p == nil {
		p = placement.Default{}
	}
	h.policy = p
}

// Verifier returns the invariant verifier's scratch, built on first use,
// so verified runs do not rebuild it around every GC.
func (h *CollectedHeap) Verifier() *check.Verifier {
	if h.verifier == nil {
		h.verifier = check.NewVerifier()
	}
	return h.verifier
}

// OOM returns the latched out-of-memory error, or nil.
func (h *CollectedHeap) OOM() error {
	if h.oom == nil {
		return nil
	}
	return h.oom
}

// LatchOOM records the out-of-memory condition (subsequent allocations
// fail fast on it) and fires the on-OOM lifecycle event exactly once.
func (h *CollectedHeap) LatchOOM(e *OOMError) *OOMError {
	h.oom = e
	h.hooks.OnOOM(e)
	return e
}

// SetFaultInjector attaches the run's fault injector. Fault reads it; the
// Parallel Scavenge collector also polls it at allocation and GC
// boundaries, so persistent failures latch there.
func (h *CollectedHeap) SetFaultInjector(in *fault.Injector) { h.inj = in }

// Fault returns the run's persistent storage failure, or nil: the
// injector's device failure, then its region fault (both latch there even
// on a collector that never polls, like the G1 baseline), then the latched
// FaultError.
func (h *CollectedHeap) Fault() error {
	if f := h.inj.Failure(); f != nil {
		return f
	}
	if rf := h.inj.RegionFault(); rf != nil {
		return rf
	}
	if h.flt == nil {
		return nil
	}
	return h.flt
}

// pollFault latches (and returns) a FaultError once the injector reports a
// persistent device or region failure. Checked at allocation and GC
// boundaries so a device that died mid-phase surfaces as a structured
// error on the next safepoint rather than a panic inside the phase. These
// poll sites are also the recovery layer's safepoints: promotion buffers
// are flushed and the heap is parse-consistent here, so an OnFault hook
// may salvage the damage and absorb the fault (the post-dispatch re-read
// of h.flt picks that up and the run continues fault-free).
func (h *CollectedHeap) pollFault() *FaultError {
	if h.flt != nil {
		return h.flt
	}
	var cause error
	if f := h.inj.Failure(); f != nil {
		cause = f
	} else if rf := h.inj.RegionFault(); rf != nil {
		cause = rf
	}
	if cause != nil {
		h.flt = &FaultError{Cause: cause}
		h.hooks.OnFault(h.flt)
	}
	return h.flt
}

// AbsorbFault clears the latched fault. For recovery hooks only: legal
// exclusively from inside OnFault, after the damage the fault describes
// has been repaired (failed regions salvaged, injector latches cleared) —
// otherwise the next pollFault re-latches the same fault immediately.
func (h *CollectedHeap) AbsorbFault() { h.flt = nil }

// NewHandle roots a fresh handle holding a.
func (h *CollectedHeap) NewHandle(a vm.Addr) *vm.Handle { return h.Roots.Create(a) }

// Release unroots hd.
func (h *CollectedHeap) Release(hd *vm.Handle) { h.Roots.Release(hd) }

// TagRoot applies h2_tag_root (a no-op without a second heap).
func (h *CollectedHeap) TagRoot(hd *vm.Handle, label uint64) {
	if h.TH != nil {
		h.TH.TagRoot(hd, label)
	}
}

// MoveHint applies h2_move (a no-op without a second heap).
func (h *CollectedHeap) MoveHint(label uint64) {
	if h.TH != nil {
		h.TH.Move(label)
	}
}

// InSecondHeap reports whether a is in H2.
func (h *CollectedHeap) InSecondHeap(a vm.Addr) bool { return h.TH.Contains(a) }

// ReadRef loads a reference field (H2 loads charge page faults).
func (h *CollectedHeap) ReadRef(obj vm.Addr, field int) vm.Addr {
	return h.mem.RefAt(obj, field)
}

// ReadPrim loads a primitive word.
func (h *CollectedHeap) ReadPrim(obj vm.Addr, i int) uint64 {
	return h.mem.PrimAt(obj, i)
}

// WritePrim performs a mutator primitive-word store (no card needed, but
// H2 stores still pay device cost through the mapped file).
func (h *CollectedHeap) WritePrim(obj vm.Addr, i int, v uint64) {
	h.mem.SetPrimAt(obj, i, v)
}

// Alloc allocates a fixed-layout instance of class.
func (h *CollectedHeap) Alloc(class *vm.Class) (vm.Addr, error) {
	return h.allocKind("Alloc", vm.KindFixed, class, 0, false)
}

// AllocRefArray allocates a reference array of n elements.
func (h *CollectedHeap) AllocRefArray(class *vm.Class, n int) (vm.Addr, error) {
	return h.allocKind("AllocRefArray", vm.KindRefArray, class, n, false)
}

// AllocPrimArray allocates a primitive array of n words.
func (h *CollectedHeap) AllocPrimArray(class *vm.Class, n int) (vm.Addr, error) {
	return h.allocKind("AllocPrimArray", vm.KindPrimArray, class, n, false)
}

// AllocCold, AllocColdRefArray, and AllocColdPrimArray are the framework's
// cold-allocation hint: identical to the plain variants, except that the
// collector's allocation path sees the cold bit.
func (h *CollectedHeap) AllocCold(class *vm.Class) (vm.Addr, error) {
	return h.allocKind("AllocCold", vm.KindFixed, class, 0, true)
}

// AllocColdRefArray allocates a reference array flagged cold.
func (h *CollectedHeap) AllocColdRefArray(class *vm.Class, n int) (vm.Addr, error) {
	return h.allocKind("AllocColdRefArray", vm.KindRefArray, class, n, true)
}

// AllocColdPrimArray allocates a primitive array flagged cold.
func (h *CollectedHeap) AllocColdPrimArray(class *vm.Class, n int) (vm.Addr, error) {
	return h.allocKind("AllocColdPrimArray", vm.KindPrimArray, class, n, true)
}

// allocKind checks that class has the layout kind the entry point call
// allocates, sizes the object (n is an array's element count) and hands
// it to the collector's allocation path.
func (h *CollectedHeap) allocKind(call string, kind vm.ClassKind, class *vm.Class, n int, cold bool) (vm.Addr, error) {
	if class.Kind != kind {
		return vm.NullAddr, &ClassKindError{Call: call, Class: class.Name}
	}
	numRefs, sizeWords := 0, vm.HeaderWords+n
	switch kind {
	case vm.KindFixed:
		numRefs, sizeWords = class.NumRefs, class.InstanceWords()
	case vm.KindRefArray:
		numRefs = n
	}
	return h.alloc(class, numRefs, sizeWords, cold)
}

// InitAllocated lays out a freshly placed object at a and counts the
// allocation: the tail of every collector allocation path.
func (h *CollectedHeap) InitAllocated(a vm.Addr, class *vm.Class, numRefs, sizeWords int) {
	h.mem.InitObject(a, class, numRefs, sizeWords)
	h.stats.BytesAllocated += int64(sizeWords) * vm.WordSize
	h.stats.ObjectsAllocated++
}

// Pause is one open collection pause; BeginPause opens it.
type Pause struct {
	h      *CollectedHeap
	phase  Phase
	prev   simclock.Category
	before simclock.Breakdown
}

// BeginPause opens a collection pause of phase p, the bracket every
// collection of both collectors runs in: it fires BeforeGC, makes the
// pause's category (MinorGC for PhaseMinor, MajorGC otherwise) the clock's
// ambient one, and snapshots the breakdown. The caller defers Restore and
// closes a completed pause with End.
func (h *CollectedHeap) BeginPause(p Phase) Pause {
	h.hooks.BeforeGC(p)
	prev := h.clock.SetContext(categoryFor(kindOf(p)))
	return Pause{h: h, phase: p, prev: prev, before: h.clock.Breakdown()}
}

// End records the completed pause: cy carries the collection's own
// counters, and End fills in its kind, end time and duration (the pause
// category's time charged since BeginPause). It then fires AfterGC.
func (p *Pause) End(cy Cycle) {
	h := p.h
	cy.Kind = kindOf(p.phase)
	cy.At = h.clock.Now()
	cy.Duration = h.clock.Breakdown().Sub(p.before).Get(categoryFor(cy.Kind))
	h.stats.record(cy)
	h.hooks.AfterGC(p.phase)
}

// Restore gives the clock back the ambient category it had before the
// pause. Deferred, so an aborted pause restores it too.
func (p *Pause) Restore() { p.h.clock.SetContext(p.prev) }

// kindOf maps a lifecycle phase to the cycle kind it records: young
// collections are minor, everything else major.
func kindOf(p Phase) CycleKind {
	if p == PhaseMinor {
		return Minor
	}
	return Major
}
