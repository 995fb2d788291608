package g1

import "github.com/carv-repro/teraheap-go/internal/vm"

// TeraHeap-under-G1: the integration §7.1 sketches ("TeraHeap can also be
// used with G1 to eliminate S/D cost and reduce the amount of data
// subject to GC, by moving long-lived, humongous objects to H2").
//
// The G1 collector calls the same TeraHeap hooks as Parallel Scavenge:
//
//   - the post-write barrier's reference range check (WriteRef);
//   - fencing: neither young evacuation nor marking ever scans H2;
//   - the H2 card table supplies young-collection roots and is kept
//     adjusted when objects move;
//   - during a marking cycle, the transitive closures of advised tagged
//     roots move to H2 — humongous objects included, which frees whole
//     contiguous region runs and directly attacks G1's fragmentation.
//
// Movement happens at marking cycles (G1 has no moment when everything is
// compacted, so moved objects are copied out and the references to them
// are fixed in the same pass that mixed evacuation already uses).

// moveClosuresToH2 selects and moves advised closures during a marking
// cycle. Must run right after markAll (mark bits valid), before mark bits
// are cleared. Returns the bytes moved.
func (g *G1) moveClosuresToH2() int64 {
	th := g.th
	if th == nil {
		return 0
	}
	// Select closures (advised labels only; G1 integration does not use
	// the forced-threshold path). Traversal is breadth-first in reference
	// order, so the H2 layout matches the order readers will stream the
	// group in — G1's evacuations scramble H1 addresses, so unlike
	// Parallel Scavenge there is no address order worth preserving.
	var queue []vm.Addr
	var selected []vm.Addr
	var selectedWords int64
	for _, tr := range th.TaggedRoots() {
		a := tr.Handle.Addr()
		if a.IsNull() || th.Contains(a) {
			continue
		}
		if !th.Advised(tr.Label) || !th.ShouldMoveLabel(tr.Label, selectedWords) {
			continue
		}
		queue = append(queue[:0], a)
		for len(queue) > 0 {
			o := queue[0]
			queue = queue[1:]
			if o.IsNull() || th.Contains(o) || g.mem.InClosure(o) {
				continue
			}
			if g.mem.ClassOf(o).Excluded {
				continue
			}
			g.mem.SetInClosure(o, true)
			g.mem.SetLabel(o, tr.Label)
			selected = append(selected, o)
			selectedWords += int64(g.mem.SizeWords(o))
			n := g.mem.NumRefs(o)
			for i := 0; i < n; i++ {
				if t := g.mem.RefAt(o, i); !t.IsNull() && !th.Contains(t) {
					queue = append(queue, t)
				}
			}
		}
	}
	if len(selected) == 0 {
		return 0
	}

	// Reserve H2 space and set forwarding pointers.
	kept := selected[:0]
	dsts := make(map[vm.Addr]vm.Addr, len(selected))
	for _, o := range selected {
		size := g.mem.SizeWords(o)
		dst, ok := th.PrepareMove(g.mem.Label(o), size)
		if !ok {
			g.mem.SetInClosure(o, false) // H2 exhausted: stays in H1
			continue
		}
		dsts[o] = dst
		kept = append(kept, o)
	}
	selected = kept

	// Commit images with references adjusted: targets inside the moved
	// set map to their H2 destinations; H1 targets become backward refs;
	// H2 targets become cross-region refs.
	var moved int64
	for _, o := range selected {
		size := g.mem.SizeWords(o)
		status := g.mem.Status(o)
		image := make([]uint64, size)
		image[0] = status &^ uint64(vm.FlagMark|vm.FlagClosure)
		image[1] = g.mem.Shape(o)
		image[2] = g.mem.Label(o)
		dst := dsts[o]
		n := g.mem.NumRefs(o)
		for i := 0; i < n; i++ {
			t := g.mem.RefAt(o, i)
			switch {
			case t.IsNull():
			case th.Contains(t):
				th.NoteCrossRegionRef(dst, t)
			default:
				if nd, movedToo := dsts[t]; movedToo {
					t = nd
					th.NoteCrossRegionRef(dst, nd)
				} else {
					th.NoteBackwardRef(dst, g.inYoung(t))
				}
			}
			image[vm.HeaderWords+i] = uint64(t)
		}
		for i := vm.HeaderWords + n; i < size; i++ {
			image[i] = g.mem.AS.Load(o + vm.Addr(i*vm.WordSize))
		}
		th.CommitMove(dst, image)
		g.mem.SetForwardee(o, dst)
		moved += int64(size) * vm.WordSize

		// Account the vacated space so mixed collections see the region
		// emptier; humongous runs are freed outright below.
		if r := g.regionOf(o); r != nil && r.kind == regOld {
			r.liveBytes -= int64(size) * vm.WordSize
			if r.liveBytes < 0 {
				r.liveBytes = 0
			}
		}
	}
	th.FlushBuffers()

	// Fix every reference to a moved object (same walk mixed evacuation
	// uses), including roots and H2 backward references.
	fix := func(a vm.Addr) {
		n := g.mem.NumRefs(a)
		for i := 0; i < n; i++ {
			t := g.mem.RefAt(a, i)
			if t.IsNull() || th.Contains(t) {
				continue
			}
			if nd, ok := dsts[t]; ok {
				g.mem.SetRefAt(a, i, nd)
			}
		}
	}
	g.forEachLiveRegionObject(fix)
	g.roots.ForEach(func(h *vm.Handle) {
		if nd, ok := dsts[h.Addr()]; ok {
			h.Set(nd)
		}
	})
	th.ScanBackwardRefs(true, func(_ uint64, t vm.Addr) vm.Addr {
		if nd, ok := dsts[t]; ok {
			return nd
		}
		return t
	}, g.inYoung)

	// Free humongous runs whose single object moved to H2 — the
	// fragmentation payoff of the paper's suggestion.
	for _, id := range append([]int(nil), g.hum...) {
		r := g.regions[id]
		if r.top > r.start && g.mem.Forwarded(r.start) {
			g.freeHumongous(r)
		}
	}
	g.stats.TotalBytesMovedH2 += moved
	return moved
}
