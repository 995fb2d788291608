package core

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// region is one fixed-size H2 region plus its DRAM-resident metadata
// (Figure 2): allocation pointers, the live bit, the dependency list, and
// the promotion buffer.
type region struct {
	id    int
	start vm.Addr
	end   vm.Addr
	top   vm.Addr

	label     uint64
	live      bool
	groupLive bool // Union-Find mode: liveness of the group root
	parent    int  // Union-Find parent

	// deps lists region ids this region's objects reference (§3.3).
	deps map[int]struct{}

	// segFirst records the first object starting in each card segment of
	// the region, enabling segment-granularity backward-reference scans.
	segFirst []vm.Addr

	objects int64

	buf promoBuffer

	// resv is the FIFO queue of PrepareMove reservations not yet committed
	// (consistency checking). Commits arrive in reservation order per
	// region — the minor GC drains its H2 move queue FIFO and the major GC
	// assigns and commits destinations in the same space walk order — so
	// the head-match path is O(1); the linear fallback only runs if an
	// earlier reservation leaked. resvHead indexes the first outstanding
	// entry.
	resv     []reservation
	resvHead int

	// sum is the region image's running checksum: the XOR of
	// csMix(word, value) over every word the device acknowledged writing.
	// Maintained incrementally at flush and mutator-store time; the
	// scrubber recomputes it from the device image, so a silently lost
	// write surfaces as a mismatch instead of a wrong answer.
	sum uint64

	// bad lists word spans the device acked but never actually wrote
	// (injected silent corruption). They are excluded from sum — which is
	// exactly why the scrubber's recomputation catches them — and their
	// objects are tombstoned, never returned, when the region is salvaged.
	bad []wordSpan

	// failed marks a region whose backing blocks went bad mid-run: data
	// already written stays readable, further writes are refused, and the
	// region is exempt from reclamation until the recovery layer salvages
	// it (quarantine would otherwise race with freeRegion).
	failed bool

	// quarantined marks a region retired by the recovery layer: its
	// still-referenced objects were re-materialized into H1 and the region
	// is permanently out of service (never pushed back on the free list).
	quarantined bool
}

// wordSpan is a [word, word+n) span of H2 word indices.
type wordSpan struct {
	word int64
	n    int
}

// overlapsBad reports whether the sizeWords object at word overlaps a span
// the device silently dropped.
func (r *region) overlapsBad(word int64, sizeWords int) bool {
	for _, s := range r.bad {
		if word < s.word+int64(s.n) && s.word < word+int64(sizeWords) {
			return true
		}
	}
	return false
}

// reservation is one outstanding PrepareMove: an address and its size.
type reservation struct {
	addr  vm.Addr
	words int32
}

// takeReservation consumes the reservation for dst, returning its size.
func (r *region) takeReservation(dst vm.Addr) (int, bool) {
	q := r.resv
	if r.resvHead < len(q) && q[r.resvHead].addr == dst {
		w := int(q[r.resvHead].words)
		r.resvHead++
		if r.resvHead == len(q) {
			r.resv = q[:0]
			r.resvHead = 0
		}
		return w, true
	}
	for i := r.resvHead; i < len(q); i++ {
		if q[i].addr == dst {
			w := int(q[i].words)
			copy(q[i:], q[i+1:])
			r.resv = q[:len(q)-1]
			return w, true
		}
	}
	return 0, false
}

// pendingResv returns the number of outstanding reservations.
func (r *region) pendingResv() int { return len(r.resv) - r.resvHead }

// openLabel is one entry of the open-region-per-label table.
type openLabel struct {
	label uint64
	id    int
}

// lookupOpen returns the open region id for label.
func (th *TeraHeap) lookupOpen(label uint64) (int, bool) {
	for i := range th.openByLabel {
		if th.openByLabel[i].label == label {
			return th.openByLabel[i].id, true
		}
	}
	return 0, false
}

// setOpen records label's open region, replacing any previous entry.
func (th *TeraHeap) setOpen(label uint64, id int) {
	for i := range th.openByLabel {
		if th.openByLabel[i].label == label {
			th.openByLabel[i].id = id
			return
		}
	}
	th.openByLabel = append(th.openByLabel, openLabel{label: label, id: id})
}

// deleteOpen removes label's entry if it still points at id.
func (th *TeraHeap) deleteOpen(label uint64, id int) {
	for i := range th.openByLabel {
		if th.openByLabel[i].label == label {
			if th.openByLabel[i].id == id {
				last := len(th.openByLabel) - 1
				th.openByLabel[i] = th.openByLabel[last]
				th.openByLabel = th.openByLabel[:last]
			}
			return
		}
	}
}

func (r *region) used() int64 { return int64(r.top - r.start) }
func (r *region) empty() bool { return r.top == r.start }

// promoBuffer stages object images bound for this region until a batched
// asynchronous flush (the paper's 2 MB promotion buffer, §3.2). Images are
// copied into a flat word arena at CommitMove time, so callers may reuse
// their image buffers; both backing arrays are retained across GC cycles.
type promoBuffer struct {
	words        []uint64 // flat arena of staged image words
	recs         []bufRec
	pendingBytes int64
}

// bufRec locates one staged image: its H2 word index and its [off, off+n)
// span in the arena.
type bufRec struct {
	word   int64
	off, n int
}

// regionOf returns the region containing a, or nil.
func (th *TeraHeap) regionOf(a vm.Addr) *region {
	if !th.Contains(a) {
		return nil
	}
	i := int(int64(a-vm.H2Base) / th.cfg.RegionSize)
	if i >= len(th.regions) {
		return nil
	}
	return th.regions[i]
}

// segmentOf returns the global card-segment index of a.
func (th *TeraHeap) segmentOf(a vm.Addr) int {
	return int(int64(a-vm.H2Base) / th.cfg.CardSegmentSize)
}

// segmentsPerRegion returns the number of card segments in one region.
func (th *TeraHeap) segmentsPerRegion() int {
	return int(th.cfg.RegionSize / th.cfg.CardSegmentSize)
}

// PrepareMove reserves sizeWords of space in a region labelled label.
// With size-segregated placement enabled, big objects use a separate
// region chain for the label.
func (th *TeraHeap) PrepareMove(label uint64, sizeWords int) (vm.Addr, bool) {
	if th.admit != nil && !th.admit() {
		// The recovery layer's circuit breaker holds H2 closed: route the
		// object to the H1 path (§4's fallback, same as exhaustion) without
		// consuming an injector decision for the move itself.
		return vm.NullAddr, false
	}
	need := vm.Addr(sizeWords * vm.WordSize)
	if int64(need) > th.cfg.RegionSize {
		// Objects never span regions (§3.4).
		return vm.NullAddr, false
	}
	if th.inj.H2Exhausted() {
		// Injected exhaustion: report failure before reserving anything, as
		// if no region could be allocated. The collector's fallback keeps
		// the object in H1 (§3.2's graceful degradation).
		th.stats.ForcedExhaustions++
		return vm.NullAddr, false
	}
	label = th.placementLabel(label, sizeWords)
	r := th.openRegion(label, need)
	if r == nil {
		return vm.NullAddr, false
	}
	a := r.top
	r.top += need
	r.objects++
	seg := int(int64(a-r.start) / th.cfg.CardSegmentSize)
	if r.segFirst[seg].IsNull() {
		r.segFirst[seg] = a
	}
	r.resv = append(r.resv, reservation{addr: a, words: int32(sizeWords)})
	th.reservedCount++
	th.stats.ObjectsMoved++
	th.stats.BytesMoved += int64(need)
	return a, true
}

// openRegion returns a region labelled label with room for need bytes,
// opening a new one if necessary.
func (th *TeraHeap) openRegion(label uint64, need vm.Addr) *region {
	if id, ok := th.lookupOpen(label); ok {
		r := th.regions[id]
		if r.top+need <= r.end && !r.failed {
			return r
		}
	}
	r := th.allocRegion()
	if r == nil {
		return nil
	}
	r.label = label
	r.live = true // protect the receiving region for this cycle
	th.setOpen(label, r.id)
	return r
}

// allocRegion takes a region from the free list or extends the region
// array while H2 capacity remains.
func (th *TeraHeap) allocRegion() *region {
	if n := len(th.freeRegions); n > 0 {
		id := th.freeRegions[n-1]
		th.freeRegions = th.freeRegions[:n-1]
		th.stats.RegionsAllocated++
		return th.regions[id]
	}
	if int64(len(th.regions))*th.cfg.RegionSize >= th.cfg.H2Size {
		return nil
	}
	id := len(th.regions)
	start := vm.H2Base + vm.Addr(int64(id)*th.cfg.RegionSize)
	r := &region{
		id:       id,
		start:    start,
		end:      start + vm.Addr(th.cfg.RegionSize),
		top:      start,
		parent:   id,
		deps:     make(map[int]struct{}),
		segFirst: make([]vm.Addr, th.segmentsPerRegion()),
	}
	th.regions = append(th.regions, r)
	th.stats.RegionsAllocated++
	return r
}

// CommitMove stages the adjusted object image at dst.
func (th *TeraHeap) CommitMove(dst vm.Addr, image []uint64) {
	r := th.regionOf(dst)
	if r == nil {
		panic(fmt.Sprintf("core: CommitMove outside H2 (%v)", dst))
	}
	if want, ok := r.takeReservation(dst); !ok {
		panic(fmt.Sprintf("core: CommitMove to unreserved %v (%d words)", dst, len(image)))
	} else if want != len(image) {
		panic(fmt.Sprintf("core: CommitMove size mismatch at %v: reserved %d, image %d", dst, want, len(image)))
	}
	th.reservedCount--
	off := len(r.buf.words)
	r.buf.words = append(r.buf.words, image...)
	r.buf.recs = append(r.buf.recs, bufRec{word: dst.Word(vm.H2Base), off: off, n: len(image)})
	r.buf.pendingBytes += int64(len(image)) * vm.WordSize
	if r.buf.pendingBytes >= th.cfg.PromotionBufferBytes {
		th.flushRegion(r)
	}
}

func (th *TeraHeap) flushRegion(r *region) {
	if r.buf.pendingBytes == 0 {
		return
	}
	// Silent corruption: the device acks the whole flush but drops one
	// image. The simulator keeps the dropped words too — nothing may read
	// through injected corruption and return a wrong answer — but the
	// victim is excluded from the region checksum and its span recorded,
	// so the loss is observable exactly the way a real scrub observes it.
	victim := th.inj.CorruptFlush(len(r.buf.recs))
	for i, rec := range r.buf.recs {
		if i == victim {
			r.bad = append(r.bad, wordSpan{word: rec.word, n: rec.n})
		} else {
			// Fold the staged words into the running checksum. Commit
			// destinations are bump-allocated and regions are zeroed on
			// reclaim, so the words being overwritten are zero and
			// contribute nothing (csMix(w, 0) == 0): folding only the new
			// values keeps the incremental sum equal to a full recompute.
			sum := r.sum
			for j, v := range r.buf.words[rec.off : rec.off+rec.n] {
				sum ^= csMix(rec.word+int64(j), v)
			}
			r.sum = sum
		}
		th.mapped.StageWords(rec.word, r.buf.words[rec.off:rec.off+rec.n])
	}
	th.mapped.ChargeAsyncWrite(r.buf.pendingBytes)
	if th.inj.TornFlush() {
		// The flush tore mid-write. The staged images are still in DRAM
		// (the buffer is only released below), so recovery replays the
		// whole batch: stage the words again and pay the device a second
		// time. Idempotent on contents, visible only in time and counters.
		th.stats.TornFlushReplays++
		for _, rec := range r.buf.recs {
			th.mapped.StageWords(rec.word, r.buf.words[rec.off:rec.off+rec.n])
		}
		th.mapped.ChargeAsyncWrite(r.buf.pendingBytes)
	}
	th.stats.BufferFlushes++
	r.buf.words = r.buf.words[:0]
	r.buf.recs = r.buf.recs[:0]
	r.buf.pendingBytes = 0
	if !r.failed && th.inj.RegionFlushFailed(r.id) {
		// The device reports this region's blocks failing right after the
		// flush was acknowledged (SMART-style grown defects): everything
		// written so far stays readable, the region accepts no further
		// allocations, and the latched RegionFailure wakes the recovery
		// layer at the collector's next safepoint.
		r.failed = true
		th.stats.RegionsFailed++
		th.deleteOpen(r.label, r.id)
	}
}

// FlushBuffers drains every promotion buffer.
func (th *TeraHeap) FlushBuffers() {
	for _, r := range th.regions {
		if r != nil {
			th.flushRegion(r)
		}
	}
}

// NoteCrossRegionRef records a reference between H2 objects in different
// regions: a dependency-list edge, or a group merge in Union-Find mode.
func (th *TeraHeap) NoteCrossRegionRef(fromObj, toObj vm.Addr) {
	rf, rt := th.regionOf(fromObj), th.regionOf(toObj)
	if rf == nil || rt == nil || rf == rt {
		return
	}
	th.stats.CrossRegionRefs++
	if th.cfg.GroupMode == UnionFind {
		th.union(rf.id, rt.id)
		return
	}
	if _, ok := rf.deps[rt.id]; !ok {
		rf.deps[rt.id] = struct{}{}
		th.stats.DepNodes++
	}
}

// NoteBackwardRef records an H2→H1 reference held by the object at h2obj
// by raising the card state of its segment.
func (th *TeraHeap) NoteBackwardRef(h2obj vm.Addr, youngTarget bool) {
	st := cardOldGen
	if youngTarget {
		st = cardYoungGen
	}
	th.cards.raise(th.segmentOf(h2obj), st)
}

// --- Union-Find (§3.3 alternative) -------------------------------------------

func (th *TeraHeap) find(i int) int {
	for th.regions[i].parent != i {
		th.regions[i].parent = th.regions[th.regions[i].parent].parent
		i = th.regions[i].parent
	}
	return i
}

func (th *TeraHeap) union(a, b int) {
	ra, rb := th.find(a), th.find(b)
	if ra != rb {
		th.regions[rb].parent = ra
		// Liveness of either group survives the merge.
		if th.regions[rb].groupLive {
			th.regions[ra].groupLive = true
		}
	}
}

// --- Lazy bulk reclamation (§3.3) --------------------------------------------

// freeDeadRegions reclaims every region not reachable from a live region
// seed: regions referenced from H1 this cycle (live bit), propagated along
// dependency edges. In Union-Find mode a region survives iff its group's
// root is live.
func (th *TeraHeap) freeDeadRegions() {
	if th.cfg.GroupMode == UnionFind {
		for _, r := range th.regions {
			// Failed regions are exempt: the recovery layer owns them until
			// salvage retires them (freeing one here would push it on the
			// free list while a quarantine is pending).
			if r == nil || r.empty() || r.failed {
				continue
			}
			// r.live protects regions that received objects this cycle.
			if !r.live && !th.regions[th.find(r.id)].groupLive {
				th.freeRegion(r)
			}
		}
		// Reset parents of freed regions (whole groups die together).
		for _, r := range th.regions {
			if r != nil && r.empty() {
				r.parent = r.id
			}
		}
		return
	}

	// Propagate liveness along dependency edges. The scratch slices live on
	// th so the per-major-GC reachability pass does not allocate once the
	// region array stops growing.
	if cap(th.reachScratch) < len(th.regions) {
		th.reachScratch = make([]bool, len(th.regions))
	}
	reached := th.reachScratch[:len(th.regions)]
	clear(reached)
	stack := th.stackScratch[:0]
	for _, r := range th.regions {
		if r != nil && r.live && !r.empty() {
			stack = append(stack, r.id)
			reached[r.id] = true
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for dep := range th.regions[id].deps {
			if !reached[dep] {
				reached[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	th.stackScratch = stack
	for _, r := range th.regions {
		if r == nil || r.empty() || r.failed {
			continue
		}
		if !reached[r.id] {
			th.freeRegion(r)
		}
	}
}

// freeRegion reclaims a whole region in bulk: reset the allocation
// pointer, delete the dependency list, drop its page-cache pages, and
// clear its card segments. No object is ever compacted on the device.
func (th *TeraHeap) freeRegion(r *region) {
	th.stats.RegionsReclaimed++
	th.stats.BytesReclaimed += r.used()
	th.stats.RegionSnapshots = append(th.stats.RegionSnapshots, RegionSnapshot{
		RegionID: r.id, Reclaimed: true, LiveObjectsPct: 0, LiveSpacePct: 0,
	})
	th.deleteOpen(r.label, r.id)
	th.mapped.InvalidateWords(r.start.Word(vm.H2Base), r.used()/vm.WordSize)
	th.mapped.ZeroWords(r.start.Word(vm.H2Base), r.used()/vm.WordSize)
	firstSeg := th.segmentOf(r.start)
	for i := 0; i < th.segmentsPerRegion(); i++ {
		th.cards.set(firstSeg+i, cardClean)
	}
	for i := range r.segFirst {
		r.segFirst[i] = vm.NullAddr
	}
	th.stats.DepNodes -= int64(len(r.deps))
	r.top = r.start
	r.label = 0
	r.live = false
	r.groupLive = false
	r.objects = 0
	r.deps = make(map[int]struct{})
	r.buf.words = r.buf.words[:0]
	r.buf.recs = r.buf.recs[:0]
	r.buf.pendingBytes = 0
	th.reservedCount -= r.pendingResv()
	r.resv = r.resv[:0]
	r.resvHead = 0
	r.sum = 0
	r.bad = nil
	th.freeRegions = append(th.freeRegions, r.id)
}

// RetireRegion takes a salvaged region permanently out of service: the
// same metadata reset as freeRegion — the recovery layer has already moved
// every live object out, so the region is logically empty — except the id
// never returns to the free list (its backing blocks are bad) and no
// reclamation snapshot is recorded (Fig 10 measures the paper's lazy
// reclamation, not injected failures).
func (th *TeraHeap) RetireRegion(id int) {
	if id < 0 || id >= len(th.regions) || th.regions[id] == nil {
		return
	}
	r := th.regions[id]
	th.stats.RegionsQuarantined++
	th.deleteOpen(r.label, r.id)
	th.mapped.InvalidateWords(r.start.Word(vm.H2Base), r.used()/vm.WordSize)
	th.mapped.ZeroWords(r.start.Word(vm.H2Base), r.used()/vm.WordSize)
	firstSeg := th.segmentOf(r.start)
	for i := 0; i < th.segmentsPerRegion(); i++ {
		th.cards.set(firstSeg+i, cardClean)
	}
	for i := range r.segFirst {
		r.segFirst[i] = vm.NullAddr
	}
	th.stats.DepNodes -= int64(len(r.deps))
	r.top = r.start
	r.label = 0
	r.live = false
	r.groupLive = false
	r.objects = 0
	r.deps = make(map[int]struct{})
	r.buf.words = r.buf.words[:0]
	r.buf.recs = r.buf.recs[:0]
	r.buf.pendingBytes = 0
	th.reservedCount -= r.pendingResv()
	r.resv = r.resv[:0]
	r.resvHead = 0
	r.sum = 0
	r.bad = nil
	r.failed = false
	r.quarantined = true
}

// FailedRegions returns the ids of regions marked failed and not yet
// salvaged, in region order (deterministic: the salvage pass iterates this
// slice, never a map).
func (th *TeraHeap) FailedRegions() []int {
	var ids []int
	for _, r := range th.regions {
		if r != nil && r.failed && !r.quarantined {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// PendingReservations returns the number of PrepareMove reservations not
// yet committed. Outside a GC cycle it must be zero: a nonzero value means
// a reservation leaked (tests and the H2-exhaustion fallback coverage).
func (th *TeraHeap) PendingReservations() int { return th.reservedCount }

// UsedBytes returns the bytes currently allocated in H2.
func (th *TeraHeap) UsedBytes() int64 {
	var t int64
	for _, r := range th.regions {
		if r != nil {
			t += r.used()
		}
	}
	return t
}

// ActiveRegions returns the number of regions currently holding objects.
func (th *TeraHeap) ActiveRegions() int {
	n := 0
	for _, r := range th.regions {
		if r != nil && !r.empty() {
			n++
		}
	}
	return n
}
