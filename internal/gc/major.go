package gc

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// FullGC runs one major collection: mark, precompact, adjust, compact,
// with the paper's TeraHeap extensions in each phase (§4).
func (c *Collector) FullGC() error {
	if c.oom != nil {
		return c.oom
	}
	if flt := c.pollFault(); flt != nil {
		return flt
	}
	p := c.BeginPause(PhaseMajor)
	defer p.Restore()
	usedBefore := c.H1.Used()

	var cy Cycle

	// Each of the four phases is one gang barrier: its work items are
	// dealt round-robin onto per-worker spans and the phase charges
	// max-over-workers (see endGangPhase).
	start := c.clock.Breakdown()
	c.beginGangPhase()
	mk := c.majorMark(&cy)
	c.endMajorPhase(&cy, PhaseMark, start)

	start = c.clock.Breakdown()
	c.beginGangPhase()
	fw, err := c.majorPrecompact(mk, &cy)
	if err != nil {
		return err
	}
	c.endMajorPhase(&cy, PhasePrecompact, start)

	start = c.clock.Breakdown()
	c.beginGangPhase()
	c.majorAdjust(fw)
	c.endMajorPhase(&cy, PhaseAdjust, start)

	start = c.clock.Breakdown()
	c.beginGangPhase()
	c.majorCompact(fw, &cy)
	c.endMajorPhase(&cy, PhaseCompact, start)

	c.clock.Charge(simclock.MajorGC, simclock.PausePerGC)

	if c.TH != nil {
		c.TH.FinishMajor()
	}

	cy.OldOccupancyAfter = c.H1.OldOccupancy()
	cy.ReclaimedBytes = usedBefore - c.H1.Used()
	p.End(cy)
	// A device that died during the cycle surfaces here: the heap is
	// consistent (the phase completed against the simulated mapping), but
	// the run must end as a structured failure.
	if flt := c.pollFault(); flt != nil {
		return flt
	}
	return nil
}

// endMajorPhase closes one major-GC gang phase and records the pause time
// charged since start as that phase's share of the cycle.
func (c *Collector) endMajorPhase(cy *Cycle, p MajorPhase, start simclock.Breakdown) {
	c.endGangPhase(simclock.MajorGC, simclock.MajorGCThreads)
	cy.Phases[p] = c.clock.Breakdown().Sub(start).Get(simclock.MajorGC)
}

// backRef records one H2-to-H1 backward reference gathered at the start
// of marking: the holder region's label and the H1 target.
type backRef struct {
	label  uint64
	target vm.Addr
}

// markState carries mark-phase results into precompaction.
type markState struct {
	closureWords int64
	liveBytes    int64
}

// majorMark performs the extended marking phase: reset H2 live bits, mark
// H1 objects referenced from H2 (backward refs), select and label the
// transitive closures of tagged root key-objects, then mark from roots
// while fencing H2 and recording forward references.
func (c *Collector) majorMark(cy *Cycle) markState {
	m := c.mem
	th := c.TH
	var st markState

	// Gather backward references first: their targets are both GC roots
	// and, when the holder region's label is move-advised, stragglers
	// that belong to an already-moved object group.
	backs := c.majBacks[:0]
	if th != nil {
		th.BeginMajorMark()
		th.ScanBackwardRefs(true, func(label uint64, t vm.Addr) vm.Addr {
			backs = append(backs, backRef{label: label, target: t})
			return t
		}, c.H1.InYoung)
	}
	c.majBacks = backs[:0]

	// Closure selection: BFS setting the closure bit and label.
	closureStack := c.majClosure
	selectClosure := func(root vm.Addr, label uint64) {
		closureStack = append(closureStack[:0], root)
		for len(closureStack) > 0 {
			o := closureStack[len(closureStack)-1]
			closureStack = closureStack[:len(closureStack)-1]
			c.gang.beginItem()
			if o.IsNull() || th.Contains(o) || m.InClosure(o) {
				continue
			}
			if m.ClassOf(o).Excluded {
				continue
			}
			m.SetInClosure(o, true)
			m.SetLabel(o, label)
			st.closureWords += int64(m.SizeWords(o))
			c.gang.charge(simclock.MarkPerObject)
			n := m.NumRefs(o)
			for i := 0; i < n; i++ {
				if t := m.RefAt(o, i); !t.IsNull() && c.H1.Contains(t) {
					closureStack = append(closureStack, t)
					c.gang.charge(simclock.ScanPerRef)
				}
			}
		}
	}

	// Closure-select from tagged root key-objects (§3.2) and from H1
	// objects referenced by advised-label H2 regions (the remainder of a
	// group whose root already moved via the minor-GC path). Advised
	// (immutable) labels go first; forced movement under pressure fills
	// the remaining low-threshold budget — never ahead of advised groups,
	// which are the cheap, update-free candidates.
	selectCandidates := func(advisedPass bool) {
		for _, tr := range th.TaggedRoots() {
			a := tr.Handle.Addr()
			if a.IsNull() || th.Contains(a) || !c.H1.Contains(a) || m.InClosure(a) {
				continue
			}
			if th.Advised(tr.Label) != advisedPass {
				continue
			}
			if !th.ShouldMoveLabel(tr.Label, st.closureWords) {
				continue
			}
			selectClosure(a, tr.Label)
		}
		for _, b := range backs {
			if b.label == 0 || !c.H1.Contains(b.target) || m.InClosure(b.target) {
				continue
			}
			if th.Advised(b.label) != advisedPass {
				continue
			}
			if !th.ShouldMoveLabel(b.label, st.closureWords) {
				continue
			}
			selectClosure(b.target, b.label)
		}
	}
	if th != nil {
		selectCandidates(true)
	}

	// Mark from roots. Direct iteration and an inline stack keep the mark
	// loop free of per-cycle closure allocations.
	stack := c.majStack[:0]
	for _, h := range c.Roots.Handles() {
		if h == nil {
			continue
		}
		if a := h.Addr(); !a.IsNull() {
			stack = append(stack, a)
		}
	}
	for _, b := range backs {
		if !b.target.IsNull() {
			stack = append(stack, b.target)
		}
	}

	w := c.H1.Words()
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.gang.beginItem()
		if th.Contains(o) {
			// Fence: record the forward reference, never scan H2.
			cy.ForwardRefs++
			th.NoteForwardRef(o)
			continue
		}
		if !c.H1.Contains(o) {
			panic(fmt.Sprintf("gc: mark reached unmapped address %v", o))
		}
		// Test and set the mark bit, then read the size and the reference
		// fields: from H1's words, or one accessor call per word.
		var size int
		var refs []uint64
		if w != nil {
			i := h1Word(o)
			if w[i]&vm.FlagMark != 0 {
				continue
			}
			w[i] |= vm.FlagMark
			size = vm.ShapeSizeWords(w[i+1])
			refs = w[i+vm.HeaderWords : i+vm.HeaderWords+vm.ShapeNumRefs(w[i+1])]
		} else {
			if m.Marked(o) {
				continue
			}
			m.SetMarked(o, true)
			size = m.SizeWords(o)
			refs = c.loadRefs(o)
		}
		c.gang.charge(simclock.MarkPerObject)
		st.liveBytes += int64(size) * vm.WordSize
		for _, t := range refs {
			if t != 0 {
				c.gang.charge(simclock.ScanPerRef)
				stack = append(stack, vm.Addr(t))
			}
		}
	}
	c.majStack = stack[:0]

	// With the exact live volume known — minus what the advised closures
	// already take to H2 — evaluate the threshold policy and run the
	// forced round, so a collection that discovers residual pressure
	// relieves it in the same cycle (the paper's loading-phase rescue,
	// §7.2) without forcing groups the hints would have handled.
	if th != nil {
		residual := st.liveBytes - st.closureWords*vm.WordSize
		th.EvaluatePressure(residual, c.H1.Old.Capacity())
		selectCandidates(true)
		selectCandidates(false)
	}
	c.majClosure = closureStack[:0]
	return st
}

// h1Word returns the index in H1.Words() of the word at a.
func h1Word(a vm.Addr) int { return int(a.Word(vm.H1Base)) }

// loadRefs reads the reference fields of the object at a, in field order,
// one accessor call per word, into a buffer the next call reuses.
func (c *Collector) loadRefs(a vm.Addr) []uint64 {
	buf := c.refBuf[:0]
	for f, n := 0, c.mem.NumRefs(a); f < n; f++ {
		buf = append(buf, uint64(c.mem.RefAt(a, f)))
	}
	c.refBuf = buf
	return buf
}

// forwarding holds the precompaction result: parallel arrays of live
// source addresses (ascending) and their destinations, plus the partition
// point between young-space and old-space sources.
type forwarding struct {
	src []vm.Addr
	dst []vm.Addr
	// oldStartIdx is the index in src of the first old-generation object.
	oldStartIdx int
	// oldTop is the post-compaction old-generation allocation top.
	oldTop vm.Addr
	// idx narrows each adjust lookup to one block's slice of src.
	idx FwdIndex
}

// inH2 reports whether the destination of entry i is in the second heap.
func (f *forwarding) inH2(i int) bool { return vm.InH2(f.dst[i]) }

// lookup returns the destination of the live object at ref, and false
// when ref is not a forwarded source.
func (f *forwarding) lookup(ref vm.Addr) (vm.Addr, bool) { return f.idx.Lookup(f.src, f.dst, ref) }

// fwdBlockShift sets the forwarding index's block size: 512 bytes.
const fwdBlockShift = 9

// FwdIndex is a per-block index over an ascending forwarding table: blk[b]
// is the index of the first source at or above block b's start, so the
// sources inside block b are src[blk[b]:blk[b+1]] and a lookup binary
// searches only those. Build reuses the slice across collections.
type FwdIndex struct {
	lo  vm.Addr // start of block 0
	blk []int32
}

// Build indexes src, which must be ascending.
func (x *FwdIndex) Build(src []vm.Addr) {
	x.blk = x.blk[:0]
	if len(src) == 0 {
		return
	}
	x.lo = src[0] &^ (1<<fwdBlockShift - 1)
	nb := int((src[len(src)-1]-x.lo)>>fwdBlockShift) + 1
	if cap(x.blk) < nb+1 {
		x.blk = make([]int32, 0, nb+1)
	}
	j := 0
	for b := 0; b <= nb; b++ {
		start := x.lo + vm.Addr(b)<<fwdBlockShift
		for j < len(src) && src[j] < start {
			j++
		}
		x.blk = append(x.blk, int32(j))
	}
}

// Lookup returns dst[i] for the i with src[i] == ref, and false when ref
// is not in src. src and dst must be the tables Build last indexed.
func (x *FwdIndex) Lookup(src, dst []vm.Addr, ref vm.Addr) (vm.Addr, bool) {
	b := uint64(ref-x.lo) >> fwdBlockShift
	if b+1 >= uint64(len(x.blk)) {
		return vm.NullAddr, false
	}
	lo, hi := x.blk[b], x.blk[b+1]
	return adjustRef(src[lo:hi], dst[lo:hi], ref)
}

// majorPrecompact assigns every marked object its new address: H2 regions
// for closure objects (by label), the compacted old generation otherwise.
// Old-generation objects are assigned first so in-place compaction copies
// never overwrite unprocessed sources.
func (c *Collector) majorPrecompact(mk markState, cy *Cycle) (*forwarding, error) {
	m := c.mem
	fw := &c.fwState
	fw.src = fw.src[:0]
	fw.dst = fw.dst[:0]
	fw.oldStartIdx = 0
	fw.oldTop = vm.NullAddr

	// Collect live objects in address order: young spaces then old. The
	// three young spaces are ordered by a fixed sorting network instead of
	// sort.Slice (which allocates its closure and interface header).
	youngSpaces := [3]*vm.Space{c.H1.Eden, c.H1.From, c.H1.To}
	if youngSpaces[0].Start > youngSpaces[1].Start {
		youngSpaces[0], youngSpaces[1] = youngSpaces[1], youngSpaces[0]
	}
	if youngSpaces[1].Start > youngSpaces[2].Start {
		youngSpaces[1], youngSpaces[2] = youngSpaces[2], youngSpaces[1]
	}
	if youngSpaces[0].Start > youngSpaces[1].Start {
		youngSpaces[0], youngSpaces[1] = youngSpaces[1], youngSpaces[0]
	}
	w := c.H1.Words()
	youngLive := c.preYoung[:0]
	for _, sp := range youngSpaces {
		youngLive = c.appendLive(youngLive, sp, w, false)
	}
	oldLive := c.appendLive(c.preOld[:0], c.H1.Old, w, true)
	c.preYoung = youngLive[:0]
	c.preOld = oldLive[:0]

	// Old first (dst <= src within the old space), then young.
	oldDst := growAddrs(c.oldDst, len(oldLive))
	youngDst := growAddrs(c.youngDst, len(youngLive))
	oldTop, over := c.assign(oldLive, oldDst, w, c.H1.Old.Start)
	if over == 0 {
		oldTop, over = c.assign(youngLive, youngDst, w, oldTop)
	}
	if over != 0 {
		byLabel := map[uint64]int64{}
		for _, o := range append(append([]vm.Addr{}, youngLive...), oldLive...) {
			byLabel[m.Label(o)] += int64(m.SizeWords(o)) * vm.WordSize
		}
		return nil, c.LatchOOM(&OOMError{
			Requested: int64(over) * vm.WordSize,
			Where: fmt.Sprintf("major GC compaction (live young=%d old=%d objs, closure=%dw, old cap=%d, liveByLabel=%v)",
				len(youngLive), len(oldLive), mk.closureWords, c.H1.Old.Capacity(), byLabel),
		})
	}
	c.oldDst = oldDst[:0]
	c.youngDst = youngDst[:0]

	fw.src = append(append(fw.src, youngLive...), oldLive...)
	fw.dst = append(append(fw.dst, youngDst...), oldDst...)
	fw.oldStartIdx = len(youngLive)
	fw.oldTop = oldTop
	fw.idx.Build(fw.src)
	return fw, nil
}

// assign sets dst[i] to the new address of live[i], in order, each object
// one precompaction work item: an H2 region for a closure object while
// H2 has room for its label, else the next slot of the compacted old
// generation, whose top starts at oldTop. Each object's shape and status
// words are read from w, or one accessor call per word when w is nil. It
// returns the new top, and the size in words of the first object that
// overflows the old generation (0 when all fit).
func (c *Collector) assign(live, dst []vm.Addr, w []uint64, oldTop vm.Addr) (vm.Addr, int) {
	m := c.mem
	for i, a := range live {
		c.gang.beginItem()
		c.gang.charge(simclock.PerCardObject)
		var size int
		var closure bool
		if w != nil {
			j := h1Word(a)
			size, closure = vm.ShapeSizeWords(w[j+1]), w[j]&vm.FlagClosure != 0
		} else {
			size, closure = m.SizeWords(a), m.InClosure(a)
		}
		if closure { // only set when there is a TeraHeap
			if d, ok := c.TH.PrepareMove(m.Label(a), size); ok {
				dst[i] = d
				continue
			}
			// H2 exhausted: keep the object in H1.
		}
		dst[i] = oldTop
		oldTop += vm.Addr(size * vm.WordSize)
		if oldTop > c.H1.Old.End {
			return oldTop, size
		}
	}
	return oldTop, 0
}

// appendLive appends the marked objects of sp to live in address order,
// reading each object's shape and then its status word from w, or one
// accessor call per word when w is nil. With old set, each dead object's
// status word goes to the placement policy so pretenuring mispredictions
// (dead policy-placed objects) are counted; a no-op under the default
// policy.
func (c *Collector) appendLive(live []vm.Addr, sp *vm.Space, w []uint64, old bool) []vm.Addr {
	for a := sp.Start; a < sp.Top; {
		var size int
		var st uint64
		if w != nil {
			i := h1Word(a)
			size, st = vm.ShapeSizeWords(w[i+1]), w[i]
		} else {
			size, st = c.mem.SizeWords(a), c.mem.Status(a)
		}
		if size < vm.HeaderWords {
			panic(fmt.Sprintf("gc: corrupt object at %v in %s (size %d)", a, sp.Name, size))
		}
		if st&vm.FlagMark != 0 {
			live = append(live, a)
		} else if old {
			c.policy.NoteDeadOld(st)
		}
		a += vm.Addr(size * vm.WordSize)
	}
	return live
}

// growAddrs returns a slice of exactly n addresses, reusing buf's backing
// array when it is large enough.
func growAddrs(buf []vm.Addr, n int) []vm.Addr {
	if cap(buf) < n {
		return make([]vm.Addr, n)
	}
	return buf[:n]
}

// majorAdjust rewrites every reference in live H1 objects, in the root
// set, and in H2 backward-reference card segments to the new locations,
// recording new cross-region and backward references for objects bound
// for H2.
func (c *Collector) majorAdjust(fw *forwarding) {
	m := c.mem

	// Backward references held by existing H2 objects. This must run
	// before the forwarding loop below: the scan recomputes each
	// segment's card state from the objects it can see, and the images of
	// objects bound for H2 this cycle are not committed until the compact
	// phase — so card-state raises recorded for them by the forwarding
	// loop would be clobbered if the scan ran afterwards, leaving their
	// backward references invisible to the next major GC.
	if c.TH != nil {
		c.TH.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
			c.gang.beginItem() // each backward reference is one adjust work item
			nt, ok := fw.lookup(t)
			if !ok {
				panic(fmt.Sprintf("gc: H2 backward reference to unmarked %v", t))
			}
			c.gang.charge(simclock.ScanPerRef)
			return nt
		}, func(vm.Addr) bool { return false })
	}

	w := c.H1.Words()
	for i, a := range fw.src {
		c.gang.beginItem() // each live object is one adjust work item
		if w != nil {
			j := h1Word(a)
			refs := w[j+vm.HeaderWords : j+vm.HeaderWords+vm.ShapeNumRefs(w[j+1])]
			for f, t := range refs {
				if t == 0 {
					continue
				}
				if nt, inH1 := c.adjustField(fw, i, vm.Addr(t)); inH1 {
					refs[f] = uint64(nt)
				}
			}
			continue
		}
		for f, n := 0, m.NumRefs(a); f < n; f++ {
			t := m.RefAt(a, f)
			if t.IsNull() {
				continue
			}
			if nt, inH1 := c.adjustField(fw, i, t); inH1 {
				m.SetRefAt(a, f, nt)
			}
		}
	}

	// Roots.
	for _, h := range c.Roots.Handles() {
		if h == nil {
			continue
		}
		a := h.Addr()
		if a.IsNull() || c.TH.Contains(a) {
			continue
		}
		nt, ok := fw.lookup(a)
		if !ok {
			panic(fmt.Sprintf("gc: rooted handle references unmarked %v", a))
		}
		h.Set(nt)
	}
}

// adjustField adjusts the non-null reference t held by live object i. It
// charges the scan and records the references object i carries when it is
// bound for H2. For a target in H1 it returns the target's new address and
// true, and the caller writes that back; an H2 target does not move.
func (c *Collector) adjustField(fw *forwarding, i int, t vm.Addr) (vm.Addr, bool) {
	c.gang.charge(simclock.ScanPerRef)
	toH2 := fw.inH2(i)
	if c.TH.Contains(t) {
		if toH2 {
			c.TH.NoteCrossRegionRef(fw.dst[i], t)
		}
		return t, false
	}
	nt, ok := fw.lookup(t)
	if !ok {
		panic(fmt.Sprintf("gc: live object %v references unmarked %v", fw.src[i], t))
	}
	if toH2 {
		if vm.InH2(nt) {
			c.TH.NoteCrossRegionRef(fw.dst[i], nt)
		} else {
			// After compaction every H1 survivor is in the old generation.
			c.TH.NoteBackwardRef(fw.dst[i], false)
		}
	}
	return nt, true
}

// majorCompact moves every live object to its assigned destination: old
// generation objects first (sliding compaction), then young survivors,
// with H2-bound objects written through the promotion buffers.
func (c *Collector) majorCompact(fw *forwarding, cy *Cycle) {
	m := c.mem
	w := c.H1.Words()

	// Old sources first (sliding compaction), then young survivors.
	for _, r := range [2][2]int{{fw.oldStartIdx, len(fw.src)}, {0, fw.oldStartIdx}} {
		for i := r[0]; i < r[1]; i++ {
			c.gang.beginItem() // each live object is one compaction work item
			src, dst := fw.src[i], fw.dst[i]
			var size int
			if w != nil {
				size = vm.ShapeSizeWords(w[h1Word(src)+1])
			} else {
				size = m.SizeWords(src)
			}
			if fw.inH2(i) {
				c.moveToH2(src, dst, size, w)
				cy.BytesMovedToH2 += int64(size) * vm.WordSize
				cy.ObjectsMovedH2++
				continue
			}
			if dst != src {
				m.CopyObject(dst, src, size)
			}
			if w != nil {
				w[h1Word(dst)] &^= vm.FlagMark | vm.FlagClosure
			} else {
				m.SetStatus(dst, m.Status(dst)&^uint64(vm.FlagMark|vm.FlagClosure))
			}
			cy.BytesCopied += int64(size) * vm.WordSize
			c.gang.charge(time.Duration(int64(size)*vm.WordSize) * simclock.CopyPerByte)
		}
	}

	// Reset spaces: everything live is now in the old generation or H2.
	c.H1.Old.Top = fw.oldTop
	c.H1.Eden.Reset()
	c.H1.From.Reset()
	c.H1.To.Reset()
	c.H1.Cards.ClearAll()
	if w != nil {
		// The compacted old generation holds exactly the H1 destinations,
		// so they rebuild the start array without decoding a header.
		// NoteStart keeps each card's lowest start, whatever the order.
		for _, d := range fw.dst {
			if !vm.InH2(d) {
				c.H1.Cards.NoteStart(d)
			}
		}
	} else {
		c.H1.Old.Walk(m, c.H1.Cards.NoteStart)
	}
	if c.TH != nil {
		c.TH.FlushBuffers()
	}
}

// moveToH2 commits the size-word object at src to its H2 destination dst
// through the promotion buffers, without its GC bits. Its image is copied
// from w, or loaded one word at a time when w is nil.
func (c *Collector) moveToH2(src, dst vm.Addr, size int, w []uint64) {
	image := c.imageBuf
	if cap(image) < size {
		image = make([]uint64, size)
	} else {
		image = image[:size]
	}
	if w != nil {
		copy(image, w[h1Word(src):])
	} else {
		for k := range image {
			image[k] = c.mem.AS.Load(src + vm.Addr(k*vm.WordSize))
		}
	}
	image[0] &^= vm.FlagMark | vm.FlagClosure | vm.FlagPretenured
	c.TH.CommitMove(dst, image) // copies image; safe to reuse
	c.imageBuf = image
}
