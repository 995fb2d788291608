package gc

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// pendingH2Move records a young object reserved for direct promotion to H2
// during scavenge (the paper's young-generation-to-H2 fast path, §7.1).
// The original's status word is captured before it is overwritten by the
// forwarding pointer.
type pendingH2Move struct {
	src    vm.Addr
	dst    vm.Addr
	status uint64
}

// scavenger holds the per-cycle state of one minor GC. One instance lives
// on the collector: its worklist and h2moves backing arrays are grown once
// and reused every cycle, so a steady-state scavenge never allocates.
// h2head marks the FIFO consumption point into h2moves so draining never
// re-slices the array front.
type scavenger struct {
	c        *Collector
	worklist []vm.Addr
	h2moves  []pendingH2Move
	h2head   int

	// oldTop snapshots the old generation's top at scavenge start. The
	// dirty-card walk is bounded by it so that objects promoted mid-scan
	// into a not-yet-visited dirty card are scanned only once, via the
	// worklist in drain(), not a second time by the card walk.
	oldTop vm.Addr

	bytesCopied   int64
	bytesPromoted int64
	bytesToH2     int64
	objectsToH2   int64
	cardsScanned  int64
}

// scavengeAbort carries a latched allocation failure out of the scavenge
// via panic/recover: the only non-local exit from the depth-first copy.
type scavengeAbort struct{ err *OOMError }

// MinorGC runs one scavenge of the young generation.
func (c *Collector) MinorGC() (err error) {
	if c.oom != nil {
		return c.oom
	}
	if flt := c.pollFault(); flt != nil {
		return flt
	}
	p := c.BeginPause(PhaseMinor)
	defer p.Restore()
	defer func() {
		// A promotion failure mid-scavenge (possible only when MinorGC is
		// invoked directly, bypassing ensureMinorHeadroom's guarantee)
		// latches as OOM and fails the run instead of killing the process.
		// The heap is wedged — partially evacuated — but every subsequent
		// allocation and GC fails fast on the latched error, so the
		// inconsistent state is never touched again.
		if r := recover(); r != nil {
			sa, ok := r.(scavengeAbort)
			if !ok {
				panic(r)
			}
			err = c.LatchOOM(sa.err)
		}
	}()

	s := &c.scav
	s.begin(c.H1.Old.Top)
	c.beginGangPhase()

	// Roots 1: handles. Iterated directly (nil slots are released handles)
	// rather than through ForEach, which would allocate a closure per cycle.
	for _, h := range c.Roots.Handles() {
		if h == nil {
			continue
		}
		c.gang.beginItem()
		a := h.Addr()
		if !a.IsNull() && c.H1.InYoung(a) {
			h.Set(s.copyYoung(a))
		}
	}

	// Roots 2: old-to-young references via the H1 card table.
	s.scanDirtyCards()

	// Roots 3: backward references from H2 (dirty and youngGen segments),
	// via the collector's pre-built visitor.
	if c.TH != nil {
		c.TH.ScanBackwardRefs(false, c.scavBackVisit, c.isYoungFn)
	}

	s.drain()

	// The young generation is now empty: survivors moved to to-space, the
	// tenured to the old generation, the tagged to H2.
	c.H1.Eden.Reset()
	c.H1.From.Reset()
	c.H1.SwapSurvivors()
	if c.TH != nil {
		c.TH.FlushBuffers()
	}

	// Bill CPU work. The scavenge is one barrier: a single gang phase from
	// roots through drain.
	c.endGangPhase(simclock.MinorGC, simclock.MinorGCThreads)
	c.clock.Charge(simclock.MinorGC, simclock.PausePerGC)

	p.End(Cycle{
		BytesCopied:       s.bytesCopied,
		BytesPromoted:     s.bytesPromoted,
		BytesMovedToH2:    s.bytesToH2,
		ObjectsMovedH2:    s.objectsToH2,
		OldOccupancyAfter: c.H1.OldOccupancy(),
		CardsScanned:      s.cardsScanned,
	})
	if flt := c.pollFault(); flt != nil {
		return flt
	}
	return nil
}

// begin resets the scavenger for a new cycle, keeping the grown backing
// arrays.
func (s *scavenger) begin(oldTop vm.Addr) {
	s.worklist = s.worklist[:0]
	s.h2moves = s.h2moves[:0]
	s.h2head = 0
	s.oldTop = oldTop
	s.bytesCopied = 0
	s.bytesPromoted = 0
	s.bytesToH2 = 0
	s.objectsToH2 = 0
	s.cardsScanned = 0
}

// copyYoung evacuates the young object at a, returning its new address.
func (s *scavenger) copyYoung(a vm.Addr) vm.Addr {
	c := s.c
	m := c.mem
	if m.Forwarded(a) {
		return m.Forwardee(a)
	}
	size := m.SizeWords(a)
	status := m.Status(a)

	// Direct young-to-H2 promotion for move-advised labels.
	if label := m.Label(a); label != 0 && c.TH != nil && c.TH.MoveOnMinor(label) {
		if dst, ok := c.TH.PrepareMove(label, size); ok {
			m.SetForwardee(a, dst)
			s.h2moves = append(s.h2moves, pendingH2Move{src: a, dst: dst, status: status})
			s.objectsToH2++
			s.bytesToH2 += int64(size) * vm.WordSize
			return dst
		}
	}

	age := m.Age(a) + 1
	site := placement.SiteFromStatus(status)
	var dst vm.Addr
	var ok bool
	promoted := false
	legacyTenure := age >= c.H1.Cfg.TenureAge
	polTenure := c.policy.Promote(site, age, c.H1.Cfg.TenureAge)
	if polTenure {
		dst, ok = c.allocOld(size)
		promoted = ok
	}
	if !ok {
		dst, ok = c.H1.To.Alloc(size)
	}
	if !ok {
		dst, ok = c.allocOld(size)
		promoted = ok
	}
	if !ok {
		// ensureMinorHeadroom makes this unreachable on the allocation slow
		// path; a direct MinorGC call against a full old generation can
		// still get here, and that is a capacity condition, not a bug.
		panic(scavengeAbort{&OOMError{Requested: int64(size) * vm.WordSize, Where: "scavenge promotion"}})
	}
	m.CopyObject(dst, a, size)
	m.SetAge(dst, age)
	if promoted && polTenure && !legacyTenure {
		// Survivor-free promotion forced by the placement policy (the age
		// threshold alone would have kept the object young): tag it so a
		// later death in the old generation is attributed to the
		// pretenuring decision. Never reached under the default policy,
		// where polTenure equals legacyTenure — in particular a survivor-
		// overflow promotion must not be tagged.
		m.SetStatus(dst, m.Status(dst)|vm.FlagPretenured)
	}
	m.SetForwardee(a, dst)
	if promoted {
		s.bytesPromoted += int64(size) * vm.WordSize
	} else {
		s.bytesCopied += int64(size) * vm.WordSize
	}
	c.gang.charge(time.Duration(int64(size)*vm.WordSize) * simclock.CopyPerByte)
	s.worklist = append(s.worklist, dst)
	c.policy.NoteScavenge(site, age, promoted)
	return dst
}

// drain processes the scavenge worklist and any pending H2 moves until
// both are empty.
func (s *scavenger) drain() {
	for len(s.worklist) > 0 || s.h2head < len(s.h2moves) {
		for len(s.worklist) > 0 {
			dst := s.worklist[len(s.worklist)-1]
			s.worklist = s.worklist[:len(s.worklist)-1]
			s.c.gang.beginItem()
			s.scanCopied(dst)
		}
		for s.h2head < len(s.h2moves) {
			// FIFO so commits reach each region's promotion buffer in
			// ascending address order.
			mv := s.h2moves[s.h2head]
			s.h2head++
			s.c.gang.beginItem()
			s.commitH2Move(mv)
		}
	}
}

// scanCopied visits the reference fields of a freshly copied object,
// evacuating any young targets.
func (s *scavenger) scanCopied(dst vm.Addr) {
	c := s.c
	m := c.mem
	n := m.NumRefs(dst)
	anyYoung := false
	for i := 0; i < n; i++ {
		t := m.RefAt(dst, i)
		c.gang.charge(simclock.ScanPerRef)
		if t.IsNull() || c.TH.Contains(t) {
			continue // fence: never cross into H2
		}
		if c.H1.InYoung(t) {
			nt := s.copyYoung(t)
			m.SetRefAt(dst, i, nt)
			if c.H1.InYoung(nt) {
				anyYoung = true
			}
		}
	}
	if anyYoung && c.H1.InOld(dst) {
		c.H1.Cards.MarkDirty(dst)
	}
}

// commitH2Move builds the final object image for a young object bound for
// H2 and writes it through the promotion buffer. References to young
// objects are resolved (evacuating them if necessary); remaining H1
// references become backward references, H2 references become cross-region
// dependencies.
func (s *scavenger) commitH2Move(mv pendingH2Move) {
	c := s.c
	m := c.mem
	shape := m.Shape(mv.src)
	size := int(uint32(shape))
	numRefs := int(shape >> 32)
	label := m.Label(mv.src)

	image := c.imageBuf
	if cap(image) < size {
		image = make([]uint64, size)
	} else {
		image = image[:size]
	}
	// Clear mark AND closure bits, matching majorCompact: a young object
	// selected into a closure by a prior major mark and then
	// direct-promoted must not carry a stale closure bit into H2. The
	// pretenured bit is stripped too — placement attribution ends once
	// the object reaches H2.
	image[0] = mv.status &^ (vm.FlagMark | vm.FlagClosure | vm.FlagPretenured)
	image[1] = shape
	image[2] = label
	for i := 0; i < numRefs; i++ {
		t := vm.Addr(m.AS.Load(mv.src + vm.Addr((vm.HeaderWords+i)*vm.WordSize)))
		c.gang.charge(simclock.ScanPerRef)
		switch {
		case t.IsNull():
		case c.TH.Contains(t):
			c.TH.NoteCrossRegionRef(mv.dst, t)
		case c.H1.InYoung(t):
			// The transitive closure travels with the root: young
			// children inherit the label (unless excluded) so they
			// promote to H2 in the same scavenge rather than being
			// stranded in H1 once the root's registry entry is pruned.
			if label != 0 && !m.Forwarded(t) && m.Label(t) == 0 &&
				!m.ClassOf(t).Excluded {
				m.SetLabel(t, label)
			}
			nt := s.copyYoung(t)
			t = nt
			if c.TH.Contains(nt) {
				c.TH.NoteCrossRegionRef(mv.dst, nt)
			} else {
				c.TH.NoteBackwardRef(mv.dst, c.H1.InYoung(nt))
			}
		default: // old generation
			c.TH.NoteBackwardRef(mv.dst, false)
		}
		image[vm.HeaderWords+i] = uint64(t)
	}
	// Primitive words.
	for i := vm.HeaderWords + numRefs; i < size; i++ {
		image[i] = m.AS.Load(mv.src + vm.Addr(i*vm.WordSize))
	}
	c.TH.CommitMove(mv.dst, image) // copies image; safe to reuse
	c.imageBuf = image
}

// scanDirtyCards walks old-generation objects in dirty cards, evacuating
// their young targets and re-dirtying cards that still reference survivors.
func (s *scavenger) scanDirtyCards() {
	c := s.c
	cards := c.H1.Cards
	n := cards.NumCards()
	// The sweep examines every card, almost all clean: dealing each as an
	// individual work item would put two gang calls on the hottest loop in
	// the collector. Instead the whole sweep is dealt in one bulk step —
	// charge-equivalent to per-card dealing — and only dirty cards (the
	// expensive path) touch the gang, rebinding the cursor to the worker
	// the bulk deal assigned their index.
	g := &c.gang
	sweepStart := g.next
	g.sweepUniform(n, simclock.PerCard)
	s.cardsScanned += int64(n)
	for i := 0; i < n; i++ {
		if cards.Get(i) != heap.CardDirty {
			continue
		}
		g.cur = (sweepStart + i) % g.spans.Workers()
		s.scanCard(i)
	}
}

// scanCard walks the old-generation objects spanning one dirty card,
// evacuating their young targets and re-dirtying the card if it still
// references survivors.
func (s *scavenger) scanCard(i int) {
	c := s.c
	m := c.mem
	cards := c.H1.Cards
	cards.Set(i, heap.CardClean)
	_, hi := cards.CardBounds(i)
	obj := cards.FirstStart(i)
	anyYoung := false
	for !obj.IsNull() && obj < hi && obj < s.oldTop {
		c.gang.charge(simclock.PerCardObject)
		nrefs := m.NumRefs(obj)
		for f := 0; f < nrefs; f++ {
			t := m.RefAt(obj, f)
			c.gang.charge(simclock.ScanPerRef)
			if t.IsNull() || c.TH.Contains(t) {
				continue
			}
			if c.H1.InYoung(t) {
				nt := s.copyYoung(t)
				m.SetRefAt(obj, f, nt)
				if c.H1.InYoung(nt) {
					anyYoung = true
				}
			}
		}
		obj += vm.Addr(m.SizeWords(obj) * vm.WordSize)
	}
	if anyYoung {
		cards.Set(i, heap.CardDirty)
	}
}
