package g1

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// This file adapts the check package's invariant rules to G1's region
// layout. The differences from the Parallel Scavenge walk:
//
//   - objects live in fixed-size regions classified by kind, and the
//     region lists (free/eden/survivor/old/hum) must agree with the kinds;
//   - husks — objects moved to H2 during a marking cycle — legitimately
//     keep their forwarding pointer outside a pause, but only when the
//     forwardee is in H2 and the shape word still parses;
//   - humongous regions hold exactly one object whose extent may span the
//     whole contiguous run, past the start region's end;
//   - the card table covers the whole heap, but records object starts for
//     old and humongous-start regions only, so only their objects (and
//     their husks) go to the shared card rules; entries elsewhere must be
//     null.

// VerifyNow runs every invariant rule against the quiescent heap and
// returns all violations found.
func (g *G1) VerifyNow() []check.Failure {
	var failures []check.Failure
	report := func(f check.Failure) { failures = append(failures, f) }

	live, husks := g.walkRegions(report)
	starts := make(map[vm.Addr]*g1obj, len(live))
	for i := range live {
		starts[live[i].addr] = &live[i]
	}

	g.verifyRegionLists(report)
	g.verifyReachable(starts, report)
	check.NewVerifier().VerifyCards(g.as, g.cards, g.cardObjects(live, husks), g.inYoung, report)

	if h2, ok := g.th.(check.H2); ok {
		h2.VerifySelf(g.inYoung, func(a vm.Addr) bool {
			_, ok := starts[a]
			return ok
		}, report)
	}
	check.VerifyClock(g.clock, report)
	return failures
}

// g1obj is one parsed live object.
type g1obj struct {
	addr    vm.Addr
	size    int // words
	numRefs int
	region  *region
}

func kindName(k regionKind) string {
	switch k {
	case regFree:
		return "free"
	case regEden:
		return "eden"
	case regSurvivor:
		return "survivor"
	case regOld:
		return "old"
	case regHumongousStart:
		return "humongous"
	case regHumongousCont:
		return "humongous-cont"
	}
	return "?"
}

// walkRegions parse-walks every region, validating headers, husks,
// humongous run shapes and per-region accounting. It returns the live
// objects and the husk start addresses (husks matter for the start
// array).
func (g *G1) walkRegions(report func(check.Failure)) (live []g1obj, husks []vm.Addr) {
	humCovered := make(map[int]bool)
	for _, r := range g.regions {
		switch r.kind {
		case regFree:
			if r.top != r.start {
				report(check.Failure{Rule: "g1-free-region-not-empty", Space: "free", Region: r.id,
					Card: -1, Field: -1,
					Detail: fmt.Sprintf("free region top %v != start %v", r.top, r.start)})
			}
		case regEden, regSurvivor, regOld:
			live = append(live, g.walkLinearRegion(r, &husks, report)...)
		case regHumongousStart:
			live = append(live, g.walkHumongous(r, humCovered, report)...)
		}
	}
	for _, r := range g.regions {
		if r.kind == regHumongousCont && !humCovered[r.id] {
			report(check.Failure{Rule: "g1-orphan-humongous-cont", Space: "humongous-cont",
				Region: r.id, Card: -1, Field: -1,
				Detail: "continuation region not covered by any humongous run"})
		}
	}
	return live, husks
}

// walkLinearRegion parses one bump-allocated region [start, top).
func (g *G1) walkLinearRegion(r *region, husks *[]vm.Addr, report func(check.Failure)) []g1obj {
	name := kindName(r.kind)
	var objs []g1obj
	var sumWords int64
	a := r.start
	for a < r.top {
		status := g.as.Peek(a)
		if vm.StatusForwarded(status) {
			// Husk of an object moved to H2: legal outside a pause only if
			// the forwardee actually is in H2 and the shape still parses.
			fw := vm.StatusForwardee(status)
			if !g.th.Contains(fw) {
				report(check.Failure{Rule: "g1-forwarding-outside-pause", Space: name, Region: r.id,
					Card: -1, Holder: a, Field: -1,
					Detail: fmt.Sprintf("forwarding pointer to non-H2 address %v survives outside a GC pause", fw)})
				return objs
			}
			size := vm.ShapeSizeWords(g.as.Peek(a + vm.WordSize))
			if size < vm.HeaderWords {
				report(check.Failure{Rule: "g1-bad-husk-shape", Space: name, Region: r.id,
					Card: -1, Holder: a, Field: -1,
					Detail: fmt.Sprintf("husk shape size %d words below header size", size)})
				return objs
			}
			*husks = append(*husks, a)
			sumWords += int64(size)
			a += vm.Addr(size * vm.WordSize)
			continue
		}
		o, ok := g.parseObject(r, a, name, r.top, report)
		if !ok {
			return objs
		}
		objs = append(objs, o)
		sumWords += int64(o.size)
		a += vm.Addr(o.size * vm.WordSize)
	}
	if got, want := sumWords*vm.WordSize, r.used(); got != want {
		report(check.Failure{Rule: "g1-accounting", Space: name, Region: r.id, Card: -1, Field: -1,
			Detail: fmt.Sprintf("walked object bytes %d != used() %d", got, want)})
	}
	return objs
}

// walkHumongous parses a humongous run: exactly one object at the start
// region's start, extending to top (which may lie past the start region's
// end, inside a continuation region of the run).
func (g *G1) walkHumongous(r *region, humCovered map[int]bool, report func(check.Failure)) []g1obj {
	if r.humRegions < 1 {
		report(check.Failure{Rule: "g1-humongous-run", Space: "humongous", Region: r.id,
			Card: -1, Field: -1,
			Detail: fmt.Sprintf("humongous start region has run length %d", r.humRegions)})
		return nil
	}
	for i := 1; i < r.humRegions; i++ {
		id := r.id + i
		if id >= len(g.regions) || g.regions[id].kind != regHumongousCont {
			report(check.Failure{Rule: "g1-humongous-run", Space: "humongous", Region: r.id,
				Card: -1, Field: -1,
				Detail: fmt.Sprintf("run of %d regions is not continued at region %d", r.humRegions, id)})
			return nil
		}
		humCovered[id] = true
	}
	if r.top <= r.start {
		report(check.Failure{Rule: "g1-humongous-empty", Space: "humongous", Region: r.id,
			Card: -1, Field: -1, Detail: "humongous start region holds no object"})
		return nil
	}
	runEnd := r.start + vm.Addr(int64(r.humRegions)*g.regionSize)
	status := g.as.Peek(r.start)
	if vm.StatusForwarded(status) {
		// Runs whose object moved to H2 are freed within the marking pause;
		// a humongous husk must never survive to a quiescent point.
		report(check.Failure{Rule: "g1-forwarding-outside-pause", Space: "humongous", Region: r.id,
			Card: -1, Holder: r.start, Field: -1,
			Detail: fmt.Sprintf("humongous object forwarded to %v outside a GC pause", vm.StatusForwardee(status))})
		return nil
	}
	o, ok := g.parseObject(r, r.start, "humongous", runEnd, report)
	if !ok {
		return nil
	}
	if end := r.start + vm.Addr(o.size*vm.WordSize); end != r.top {
		report(check.Failure{Rule: "g1-accounting", Space: "humongous", Region: r.id,
			Card: -1, Holder: r.start, Field: -1,
			Detail: fmt.Sprintf("humongous object end %v != region top %v", end, r.top)})
	}
	return []g1obj{o}
}

// parseObject validates one non-forwarded object header at a, bounded by
// limit.
func (g *G1) parseObject(r *region, a vm.Addr, name string, limit vm.Addr, report func(check.Failure)) (g1obj, bool) {
	status := g.as.Peek(a)
	if status&(vm.FlagMark|vm.FlagClosure) != 0 {
		report(check.Failure{Rule: "g1-stale-gc-bits", Space: name, Region: r.id,
			Card: -1, Holder: a, Field: -1,
			Detail: fmt.Sprintf("mark/closure bits 0x%x set outside a GC pause", status&(vm.FlagMark|vm.FlagClosure))})
	}
	cid := vm.StatusClassID(status)
	if cid == 0 || int(cid) >= g.classes.Len() {
		report(check.Failure{Rule: "g1-bad-class", Space: name, Region: r.id,
			Card: -1, Holder: a, Field: -1,
			Detail: fmt.Sprintf("class id %d out of range [1, %d)", cid, g.classes.Len())})
		return g1obj{}, false
	}
	shape := g.as.Peek(a + vm.WordSize)
	size := vm.ShapeSizeWords(shape)
	numRefs := vm.ShapeNumRefs(shape)
	if size < vm.HeaderWords || vm.HeaderWords+numRefs > size {
		report(check.Failure{Rule: "g1-bad-shape", Space: name, Region: r.id,
			Card: -1, Holder: a, Field: -1,
			Detail: fmt.Sprintf("size %d words, %d refs is not a valid shape", size, numRefs)})
		return g1obj{}, false
	}
	if end := a + vm.Addr(size*vm.WordSize); end > limit {
		report(check.Failure{Rule: "g1-object-overruns-top", Space: name, Region: r.id,
			Card: -1, Holder: a, Field: -1,
			Detail: fmt.Sprintf("object end %v exceeds limit %v", end, limit)})
		return g1obj{}, false
	}
	return g1obj{addr: a, size: size, numRefs: numRefs, region: r}, true
}

// verifyRegionLists checks that the free/eden/survivor/old/hum id lists
// agree exactly with the region kinds, with no duplicates.
func (g *G1) verifyRegionLists(report func(check.Failure)) {
	listed := make(map[int]regionKind, len(g.regions))
	note := func(ids []int, kind regionKind, listName string) {
		for _, id := range ids {
			if prev, dup := listed[id]; dup {
				report(check.Failure{Rule: "g1-region-list", Space: listName, Region: id,
					Card: -1, Field: -1,
					Detail: fmt.Sprintf("region listed twice (also on the %s list)", kindName(prev))})
				continue
			}
			listed[id] = kind
			if id < 0 || id >= len(g.regions) {
				report(check.Failure{Rule: "g1-region-list", Space: listName, Region: id,
					Card: -1, Field: -1, Detail: "region id out of range"})
				continue
			}
			if got := g.regions[id].kind; got != kind {
				report(check.Failure{Rule: "g1-region-list", Space: listName, Region: id,
					Card: -1, Field: -1,
					Detail: fmt.Sprintf("region is on the %s list but has kind %s", listName, kindName(got))})
			}
		}
	}
	note(g.free, regFree, "free")
	note(g.eden, regEden, "eden")
	note(g.survivor, regSurvivor, "survivor")
	note(g.old, regOld, "old")
	note(g.hum, regHumongousStart, "humongous")
	for _, r := range g.regions {
		if r.kind == regHumongousCont {
			continue // continuation regions are tracked via their run
		}
		if _, ok := listed[r.id]; !ok {
			report(check.Failure{Rule: "g1-region-list", Space: kindName(r.kind), Region: r.id,
				Card: -1, Field: -1,
				Detail: fmt.Sprintf("region of kind %s is on no list", kindName(r.kind))})
		}
	}
	if g.curEden != nil && g.curEden.kind != regEden {
		report(check.Failure{Rule: "g1-region-list", Space: "eden", Region: g.curEden.id,
			Card: -1, Field: -1,
			Detail: fmt.Sprintf("current eden region has kind %s", kindName(g.curEden.kind))})
	}
}

// verifyReachable BFS-walks the object graph from the root set: every
// reference must target null, a live (non-husk) H1 object start, or an
// allocated H2 address.
func (g *G1) verifyReachable(starts map[vm.Addr]*g1obj, report func(check.Failure)) {
	h2, hasH2 := g.th.(check.H2)
	visited := make(map[vm.Addr]bool)
	var queue []vm.Addr
	push := func(a vm.Addr) {
		if !visited[a] {
			visited[a] = true
			queue = append(queue, a)
		}
	}
	rootIdx := 0
	g.roots.ForEach(func(h *vm.Handle) {
		a := h.Addr()
		switch {
		case a.IsNull():
		case g.th.Contains(a):
			if hasH2 && !h2.ContainsAllocated(a) {
				report(check.Failure{Rule: "root-dangling-h2", Space: "roots", Region: -1,
					Card: -1, Field: rootIdx,
					Detail: fmt.Sprintf("root handle %d targets unallocated H2 address %v", rootIdx, a)})
			}
		default:
			if _, ok := starts[a]; !ok {
				report(check.Failure{Rule: "root-dangling", Space: "roots", Region: -1,
					Card: -1, Field: rootIdx,
					Detail: fmt.Sprintf("root handle %d targets %v, not a live H1 object start", rootIdx, a)})
			} else {
				push(a)
			}
		}
		rootIdx++
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		o := starts[a]
		for i := 0; i < o.numRefs; i++ {
			t := vm.Addr(g.as.Peek(a + vm.Addr((vm.HeaderWords+i)*vm.WordSize)))
			if t.IsNull() {
				continue
			}
			if g.th.Contains(t) {
				if hasH2 && !h2.ContainsAllocated(t) {
					report(check.Failure{Rule: "ref-dangling-h2", Space: kindName(o.region.kind),
						Region: o.region.id, Card: -1, Holder: a, Field: i,
						Detail: fmt.Sprintf("reference targets unallocated H2 address %v", t)})
				}
				continue // H2 interiors are verified by H2.VerifySelf
			}
			if _, ok := starts[t]; !ok {
				rule := "ref-dangling"
				detail := fmt.Sprintf("reference targets %v, not a live object start", t)
				if g.as.Resolve(t) == nil {
					rule = "ref-unmapped"
					detail = fmt.Sprintf("reference targets unmapped address %v", t)
				}
				report(check.Failure{Rule: rule, Space: kindName(o.region.kind),
					Region: o.region.id, Card: -1, Holder: a, Field: i, Detail: detail})
				continue
			}
			push(t)
		}
	}
}

// cardObjects returns the objects whose starts the card table records:
// the live objects of old and humongous-start regions, and the husks in
// old regions (a husk's start still parses; its fields are stale, so it is
// passed with no references).
func (g *G1) cardObjects(live []g1obj, husks []vm.Addr) []check.Object {
	var objs []check.Object
	for i := range live {
		if k := live[i].region.kind; k == regOld || k == regHumongousStart {
			objs = append(objs, check.Object{Addr: live[i].addr, NumRefs: live[i].numRefs})
		}
	}
	for _, a := range husks {
		if g.regionOf(a).kind == regOld {
			objs = append(objs, check.Object{Addr: a})
		}
	}
	return objs
}
