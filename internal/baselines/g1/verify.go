package g1

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// This file holds G1's own verifier rules; the object-header parse, the
// root/reference walk and the card rules are check's, shared with Parallel
// Scavenge and H2. G1's own rules:
//
//   - the region lists (free/eden/survivor/old/hum) agree with the kinds,
//     and free regions are empty;
//   - a humongous run is a start region followed by its continuation
//     regions, and holds exactly one object, which may extend past the
//     start region's end; no continuation region is orphaned;
//   - the husk rule: an object moved to H2 during a marking cycle leaves a
//     forwarded husk in its H1 region, legal outside a pause only in a
//     linear region, only when the forwardee is in H2, and only when the
//     shape still parses (the parse admits it through Span.Husk);
//   - the card table covers the whole heap but records object starts for
//     old and humongous regions only, so only their objects (husks
//     included) go to the card rules.

// VerifyNow runs every invariant rule against the quiescent heap and
// returns all violations found.
func (g *G1) VerifyNow() []check.Failure {
	var failures []check.Failure
	report := func(f check.Failure) { failures = append(failures, f) }

	vr := g.Verifier()
	vr.Begin(g.Mem().AS, g.Classes())
	cardObjs := g.parseRegions(vr, report)
	g.verifyRegionLists(report)
	var h2 check.H2
	if g.TH != nil { // a nil *TeraHeap in the interface would be non-nil
		h2 = g.TH
	}
	vr.VerifyRoots(g.Roots, h2, report)
	vr.VerifyCards(g.cards, cardObjs, g.inYoung, report)
	if h2 != nil {
		h2.VerifySelf(vr, g.inYoung, report)
	}
	check.VerifyClock(g.Clock(), report)
	return failures
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

// parseRegions parses every region through the shared header rules and
// checks the free-region and humongous-run rules. It returns the objects
// whose starts the card table records: those of old and humongous
// regions, husks included.
func (g *G1) parseRegions(vr *check.Verifier, report func(check.Failure)) []check.Object {
	var cardObjs []check.Object
	humCovered := make([]bool, len(g.regions))
	husk := g.TH.Contains
	for _, r := range g.regions {
		switch r.kind {
		case regFree:
			if r.top != r.start {
				report(check.Failure{Rule: "g1-free-region-not-empty", Space: "free", Region: r.id,
					Card: -1, Field: -1,
					Detail: fmt.Sprintf("free region top %v != start %v", r.top, r.start)})
			}
		case regEden, regSurvivor, regOld:
			objs, _ := vr.Parse(check.Span{Space: kindName(r.kind), Region: r.id,
				Start: r.start, Top: r.top, End: r.end, Husk: husk}, report)
			if r.kind == regOld {
				cardObjs = append(cardObjs, objs...)
			}
		case regHumongousStart:
			cardObjs = append(cardObjs, g.parseHumongous(vr, r, humCovered, report)...)
		}
	}
	for _, r := range g.regions {
		if r.kind == regHumongousCont && !humCovered[r.id] {
			report(check.Failure{Rule: "g1-orphan-humongous-cont", Space: "humongous-cont",
				Region: r.id, Card: -1, Field: -1,
				Detail: "continuation region not covered by any humongous run"})
		}
	}
	return cardObjs
}

// parseHumongous checks a humongous run's shape and parses its one
// object, which starts at the start region's start and may extend to the
// end of the run's last region. A humongous object is never a husk: runs
// whose object moved to H2 are freed within the marking pause.
func (g *G1) parseHumongous(vr *check.Verifier, r *region, humCovered []bool, report func(check.Failure)) []check.Object {
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
	objs, ok := vr.Parse(check.Span{Space: "humongous", Region: r.id, Start: r.start, Top: r.top, End: runEnd}, report)
	if ok && len(objs) != 1 {
		report(check.Failure{Rule: "g1-humongous-run", Space: "humongous", Region: r.id,
			Card: -1, Field: -1,
			Detail: fmt.Sprintf("humongous run holds %d objects, want exactly one", len(objs))})
	}
	return objs
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
