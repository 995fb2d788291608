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
	c.hooks.BeforeGC(PhaseMajor)
	prevCat := c.clock.SetContext(simclock.MajorGC)
	defer c.clock.SetContext(prevCat)
	before := c.clock.Breakdown()
	usedBefore := c.H1.Used()

	var cy Cycle
	cy.Kind = Major

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

	delta := c.clock.Breakdown().Sub(before)
	cy.At = c.clock.Now()
	cy.Duration = delta.Get(simclock.MajorGC)
	cy.OldOccupancyAfter = c.H1.OldOccupancy()
	cy.ReclaimedBytes = usedBefore - c.H1.Used()
	c.stats.record(cy)
	c.hooks.AfterGC(PhaseMajor)
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
func (c *Collector) majorMark(cy *Cycle) *markState {
	m := c.mem
	th := c.TH
	st := &markState{}

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
		if m.Marked(o) {
			continue
		}
		m.SetMarked(o, true)
		c.gang.charge(simclock.MarkPerObject)
		st.liveBytes += int64(m.SizeWords(o)) * vm.WordSize
		n := m.NumRefs(o)
		for i := 0; i < n; i++ {
			if t := m.RefAt(o, i); !t.IsNull() {
				c.gang.charge(simclock.ScanPerRef)
				stack = append(stack, t)
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
func (c *Collector) majorPrecompact(mk *markState, cy *Cycle) (*forwarding, error) {
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
	youngLive := c.preYoung[:0]
	oldLive := c.preOld[:0]
	for _, sp := range youngSpaces {
		sp.Walk(m, func(a vm.Addr) {
			if m.Marked(a) {
				youngLive = append(youngLive, a)
			}
		})
	}
	c.H1.Old.Walk(m, func(a vm.Addr) {
		// One status load either way (Marked would do the same load); the
		// dead branch hands the word to the placement policy so
		// pretenuring mispredictions (dead policy-placed objects) are
		// counted. A no-op under the default policy.
		st := m.Status(a)
		if st&vm.FlagMark != 0 {
			oldLive = append(oldLive, a)
		} else {
			c.policy.NoteDeadOld(st)
		}
	})
	c.preYoung = youngLive[:0]
	c.preOld = oldLive[:0]

	oldTop := c.H1.Old.Start
	assign := func(a vm.Addr) (vm.Addr, error) {
		size := m.SizeWords(a)
		if m.InClosure(a) { // only set when there is a TeraHeap
			if dst, ok := c.TH.PrepareMove(m.Label(a), size); ok {
				return dst, nil
			}
			// H2 exhausted: keep the object in H1.
		}
		dst := oldTop
		oldTop += vm.Addr(size * vm.WordSize)
		if oldTop > c.H1.Old.End {
			byLabel := map[uint64]int64{}
			for _, o := range append(append([]vm.Addr{}, youngLive...), oldLive...) {
				byLabel[m.Label(o)] += int64(m.SizeWords(o)) * vm.WordSize
			}
			return vm.NullAddr, c.latchOOM(&OOMError{
				Requested: int64(size) * vm.WordSize,
				Where: fmt.Sprintf("major GC compaction (live young=%d old=%d objs, closure=%dw, old cap=%d, liveByLabel=%v)",
					len(youngLive), len(oldLive), mk.closureWords, c.H1.Old.Capacity(), byLabel),
			})
		}
		return dst, nil
	}

	// Old first (dst <= src within the old space), then young. Each live
	// object is one precompaction work item.
	oldDst := growAddrs(c.oldDst, len(oldLive))
	for i, a := range oldLive {
		c.gang.beginItem()
		c.gang.charge(simclock.PerCardObject)
		d, err := assign(a)
		if err != nil {
			return nil, err
		}
		oldDst[i] = d
	}
	youngDst := growAddrs(c.youngDst, len(youngLive))
	for i, a := range youngLive {
		c.gang.beginItem()
		c.gang.charge(simclock.PerCardObject)
		d, err := assign(a)
		if err != nil {
			return nil, err
		}
		youngDst[i] = d
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

	for i, a := range fw.src {
		c.gang.beginItem() // each live object is one adjust work item
		n := m.NumRefs(a)
		toH2 := fw.inH2(i)
		for f := 0; f < n; f++ {
			t := m.RefAt(a, f)
			if t.IsNull() {
				continue
			}
			c.gang.charge(simclock.ScanPerRef)
			if c.TH.Contains(t) {
				if toH2 {
					c.TH.NoteCrossRegionRef(fw.dst[i], t)
				}
				continue
			}
			nt, ok := fw.lookup(t)
			if !ok {
				panic(fmt.Sprintf("gc: live object %v references unmarked %v", a, t))
			}
			m.SetRefAt(a, f, nt)
			if toH2 {
				if vm.InH2(nt) {
					c.TH.NoteCrossRegionRef(fw.dst[i], nt)
				} else {
					// After compaction every H1 survivor is in the old
					// generation.
					c.TH.NoteBackwardRef(fw.dst[i], false)
				}
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

// majorCompact moves every live object to its assigned destination: old
// generation objects first (sliding compaction), then young survivors,
// with H2-bound objects written through the promotion buffers.
func (c *Collector) majorCompact(fw *forwarding, cy *Cycle) {
	m := c.mem

	moveOne := func(i int) {
		c.gang.beginItem() // each live object is one compaction work item
		src, dst := fw.src[i], fw.dst[i]
		size := m.SizeWords(src)
		if fw.inH2(i) {
			image := c.imageBuf
			if cap(image) < size {
				image = make([]uint64, size)
			} else {
				image = image[:size]
			}
			for w := 0; w < size; w++ {
				image[w] = m.AS.Load(src + vm.Addr(w*vm.WordSize))
			}
			image[0] &^= vm.FlagMark | vm.FlagClosure | vm.FlagPretenured
			c.TH.CommitMove(dst, image) // copies image; safe to reuse
			c.imageBuf = image
			cy.BytesMovedToH2 += int64(size) * vm.WordSize
			cy.ObjectsMovedH2++
			return
		}
		if dst != src {
			m.CopyObject(dst, src, size)
		}
		st := m.Status(dst)
		m.SetStatus(dst, st&^uint64(vm.FlagMark|vm.FlagClosure))
		cy.BytesCopied += int64(size) * vm.WordSize
		c.gang.charge(time.Duration(int64(size)*vm.WordSize) * simclock.CopyPerByte)
	}

	for i := fw.oldStartIdx; i < len(fw.src); i++ {
		moveOne(i)
	}
	for i := 0; i < fw.oldStartIdx; i++ {
		moveOne(i)
	}

	// Reset spaces: everything live is now in the old generation or H2.
	c.H1.Old.Top = fw.oldTop
	c.H1.Eden.Reset()
	c.H1.From.Reset()
	c.H1.To.Reset()
	c.H1.Cards.ClearAll()
	c.H1.Old.Walk(c.mem, c.H1.Cards.NoteStart)
	if c.TH != nil {
		c.TH.FlushBuffers()
	}
}
