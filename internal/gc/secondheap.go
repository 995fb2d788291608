package gc

import "github.com/carv-repro/teraheap-go/internal/vm"

// SecondHeap is the contract between the Parallel Scavenge collector and
// TeraHeap's H2 (implemented by internal/core). It captures exactly the
// paper's PS extensions (§4): the post-write barrier range check, fencing,
// backward-reference card scanning, transitive-closure movement, and the
// per-phase bookkeeping for regions.
//
// A nil SecondHeap (or NoSecondHeap) yields vanilla Parallel Scavenge.
type SecondHeap interface {
	// Contains is the reference range check: does a point into H2?
	Contains(a vm.Addr) bool

	// DirtyCard is invoked by the post-write barrier when a mutator
	// updates a reference field of an H2 object.
	DirtyCard(a vm.Addr)

	// MoveOnMinor reports whether objects tagged with label should be
	// promoted directly from the young generation to H2 during minor GC
	// (the label's move hint has been issued).
	MoveOnMinor(label uint64) bool

	// ScanBackwardRefs walks the H2 card table. For minor GC (major ==
	// false) it scans segments in the dirty or youngGen states; for major
	// GC it also scans oldGen segments. For every reference field of every
	// H2 object in a scanned segment that points into H1, visit is called
	// with the holder region's label and the target, and must return the
	// (possibly moved) new target, which is stored back. Afterwards each
	// scanned segment's card state is recomputed using isYoung to
	// classify remaining backward refs. The label lets the major GC pull
	// H1 stragglers referenced by an advised-label region into that
	// group's closure.
	ScanBackwardRefs(major bool, visit func(regionLabel uint64, target vm.Addr) vm.Addr, isYoung func(vm.Addr) bool)

	// PrepareMove reserves sizeWords of H2 space in the region set of
	// label, returning the destination address. It fails (false) when H2
	// is exhausted; the collector then keeps the object in H1.
	PrepareMove(label uint64, sizeWords int) (vm.Addr, bool)

	// CommitMove writes the fully adjusted object image to dst through
	// the per-region promotion buffer (batched asynchronous device I/O).
	// Implementations must not retain words after returning: the collector
	// reuses the backing buffer for the next image.
	CommitMove(dst vm.Addr, words []uint64)

	// FlushBuffers drains all promotion buffers to the device.
	FlushBuffers()

	// NoteCrossRegionRef records a reference from the H2 object at fromH2
	// to the H2 object at toH2, updating dependency lists (or region
	// groups in Union-Find mode).
	NoteCrossRegionRef(fromH2, toH2 vm.Addr)

	// NoteBackwardRef records that the H2 object at h2obj holds a
	// reference into H1, dirtying the corresponding H2 card.
	NoteBackwardRef(h2obj vm.Addr, youngTarget bool)

	// BeginMajorMark resets all region live bits at the start of the
	// marking phase and evaluates the high/low threshold policy against
	// the old generation's current usage, so a collection that starts
	// under pressure moves marked objects within the same cycle (§3.2).
	BeginMajorMark(oldUsedBytes, oldCapacity int64)

	// EvaluatePressure re-arms the threshold policy with an exact live
	// measurement (called after marking, when the live volume is known).
	EvaluatePressure(liveBytes, oldCapacity int64)

	// TaggedRoots returns the registered root key-objects in registration
	// order (dead handles are pruned).
	TaggedRoots() []TaggedRoot

	// Advised reports whether label's h2_move hint has been issued (its
	// object group is immutable and cheap to move).
	Advised(label uint64) bool

	// ShouldMoveLabel decides whether the closure of label moves to H2 in
	// this major GC: true when the label's h2_move hint was issued, or
	// when the high-threshold mechanism forces movement (bounded by the
	// low threshold, expressed through selectedWords).
	ShouldMoveLabel(label uint64, selectedWords int64) bool

	// ExcludeClass reports classes excluded from transitive closures
	// (JVM metadata and Reference-like classes, §3.2).
	ExcludeClass(c *vm.Class) bool

	// NoteForwardRef marks the H2 region containing target as live and
	// propagates liveness through its dependency list (§3.3).
	NoteForwardRef(target vm.Addr)

	// FinishMajor frees dead H2 regions in bulk and evaluates the
	// high/low threshold policy given the old generation's live bytes.
	FinishMajor(oldLiveBytes, oldCapacity int64)

	// TagRoot and Move are the framework hints (§3.1): h2_tag_root labels
	// the key-object h with label, and h2_move advises label's group for
	// movement. Both collectors forward them unchanged.
	TagRoot(h *vm.Handle, label uint64)
	Move(label uint64)
}

// TaggedRoot pairs a rooted handle with the label it was tagged with.
type TaggedRoot struct {
	Handle *vm.Handle
	Label  uint64
}

// NoSecondHeap is the vanilla-JVM configuration: every method is inert.
type NoSecondHeap struct{}

// Contains always reports false.
func (NoSecondHeap) Contains(vm.Addr) bool { return false }

// DirtyCard is a no-op.
func (NoSecondHeap) DirtyCard(vm.Addr) {}

// MoveOnMinor always reports false.
func (NoSecondHeap) MoveOnMinor(uint64) bool { return false }

// ScanBackwardRefs is a no-op.
func (NoSecondHeap) ScanBackwardRefs(bool, func(uint64, vm.Addr) vm.Addr, func(vm.Addr) bool) {}

// PrepareMove always fails.
func (NoSecondHeap) PrepareMove(uint64, int) (vm.Addr, bool) { return vm.NullAddr, false }

// CommitMove is a no-op.
func (NoSecondHeap) CommitMove(vm.Addr, []uint64) {}

// FlushBuffers is a no-op.
func (NoSecondHeap) FlushBuffers() {}

// NoteCrossRegionRef is a no-op.
func (NoSecondHeap) NoteCrossRegionRef(vm.Addr, vm.Addr) {}

// NoteBackwardRef is a no-op.
func (NoSecondHeap) NoteBackwardRef(vm.Addr, bool) {}

// BeginMajorMark is a no-op.
func (NoSecondHeap) BeginMajorMark(int64, int64) {}

// EvaluatePressure is a no-op.
func (NoSecondHeap) EvaluatePressure(int64, int64) {}

// TaggedRoots returns nil.
func (NoSecondHeap) TaggedRoots() []TaggedRoot { return nil }

// Advised always reports false.
func (NoSecondHeap) Advised(uint64) bool { return false }

// ShouldMoveLabel always reports false.
func (NoSecondHeap) ShouldMoveLabel(uint64, int64) bool { return false }

// ExcludeClass always reports false.
func (NoSecondHeap) ExcludeClass(*vm.Class) bool { return false }

// NoteForwardRef is a no-op.
func (NoSecondHeap) NoteForwardRef(vm.Addr) {}

// FinishMajor is a no-op.
func (NoSecondHeap) FinishMajor(int64, int64) {}

// TagRoot is a no-op.
func (NoSecondHeap) TagRoot(*vm.Handle, uint64) {}

// Move is a no-op.
func (NoSecondHeap) Move(uint64) {}

var _ SecondHeap = NoSecondHeap{}
