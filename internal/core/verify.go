package core

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// ContainsAllocated reports whether a falls inside the allocated prefix of
// a live H2 region; part of the check.H2 interface.
func (th *TeraHeap) ContainsAllocated(a vm.Addr) bool {
	r := th.regionOf(a)
	return r != nil && a >= r.start && a < r.top
}

// VerifySelf implements check.H2: it parses every allocated region
// through vr's shared header rules (H2 objects have the H1 format) and
// checks the H2-side metadata: no reservation or staged promotion-buffer
// write survives a pause, per-region object counts and segFirst entries
// match the parse, reference fields target H2 object starts or valid H1
// object starts, segment card states are at least as strong as the
// backward references present, and dependency lists (or union-find
// groups) cover every cross-region reference. It also runs the page-cache
// LRU/map self-check. Only valid outside a GC pause.
func (th *TeraHeap) VerifySelf(vr *check.Verifier, isYoung func(vm.Addr) bool, report func(check.Failure)) {
	// No reservation or staged promotion-buffer write may survive a pause.
	for _, r := range th.regions {
		if r == nil {
			continue
		}
		for i := r.resvHead; i < len(r.resv); i++ {
			report(check.Failure{Rule: "h2-reservation-leak", Space: "h2",
				Region: r.id, Card: -1, Holder: r.resv[i].addr, Field: -1,
				Detail: fmt.Sprintf("%d-word reservation never committed", r.resv[i].words)})
		}
	}

	// Pass 1: parse every allocated region, so that every region's object
	// starts are known to pass 2.
	objs := make([][]check.Object, len(th.regions))
	for i, r := range th.regions {
		if r == nil {
			continue
		}
		if r.buf.pendingBytes != 0 || len(r.buf.recs) != 0 {
			report(check.Failure{Rule: "h2-promo-buffer-not-flushed", Space: "h2",
				Region: r.id, Card: -1, Field: -1,
				Detail: fmt.Sprintf("%d bytes (%d writes) staged outside a GC pause", r.buf.pendingBytes, len(r.buf.recs))})
		}
		if !r.empty() {
			objs[i] = th.verifyRegion(vr, r, report)
		}
	}

	// Pass 2: reference fields, segment card states and dependency
	// coverage.
	for i, r := range th.regions {
		if r != nil {
			th.verifyRegionRefs(r, objs[i], vr.IsStart, isYoung, report)
		}
	}

	if err := th.mapped.Cache().CheckConsistency(); err != nil {
		report(check.Failure{Rule: "pagecache", Space: "pagecache", Region: -1, Card: -1, Field: -1,
			Detail: err.Error()})
	}
}

// verifyRegion parses one region and checks its object count and segFirst
// entries against the parse. It returns the objects parsed.
func (th *TeraHeap) verifyRegion(vr *check.Verifier, r *region, report func(check.Failure)) []check.Object {
	objs, ok := vr.Parse(check.Span{Space: "h2", Region: r.id, Start: r.start, Top: r.top, End: r.end}, report)
	if !ok {
		return objs
	}
	if int64(len(objs)) != r.objects {
		report(check.Failure{Rule: "h2-object-count", Space: "h2", Region: r.id, Card: -1, Field: -1,
			Detail: fmt.Sprintf("walked %d objects but region metadata records %d", len(objs), r.objects)})
	}
	segFirstWant := make([]vm.Addr, len(r.segFirst))
	for _, o := range objs {
		if seg := int(int64(o.Addr-r.start) / th.cfg.CardSegmentSize); segFirstWant[seg].IsNull() {
			segFirstWant[seg] = o.Addr
		}
	}
	for s := range r.segFirst {
		if r.segFirst[s] != segFirstWant[s] {
			report(check.Failure{Rule: "h2-seg-first", Space: "h2", Region: r.id,
				Card: th.segmentOf(r.start) + s, Holder: r.segFirst[s], Field: -1,
				Detail: fmt.Sprintf("segFirst[%d]=%v but first object starting in segment is %v", s, r.segFirst[s], segFirstWant[s])})
		}
	}
	return objs
}

// verifyRegionRefs walks the reference fields of one region's parsed
// objects, checking target validity, segment card states against the
// reference kinds present, and dependency-list / union-find coverage of
// cross-region references. isStart tells object starts, H1 and H2.
func (th *TeraHeap) verifyRegionRefs(r *region, objs []check.Object, isStart, isYoung func(vm.Addr) bool, report func(check.Failure)) {
	for _, o := range objs {
		a := o.Addr
		seg := th.segmentOf(a)
		st := th.cards.get(seg)
		for f := 0; f < o.NumRefs; f++ {
			t := th.peekRef(a, f)
			if t.IsNull() {
				continue
			}
			if th.Contains(t) {
				rt := th.regionOf(t)
				if rt == nil || t >= rt.top {
					report(check.Failure{Rule: "h2-ref-dangling", Space: "h2", Region: r.id, Card: seg,
						Holder: a, Field: f,
						Detail: fmt.Sprintf("reference targets unallocated H2 address %v", t)})
					continue
				}
				if !isStart(t) {
					report(check.Failure{Rule: "h2-ref-dangling", Space: "h2", Region: r.id, Card: seg,
						Holder: a, Field: f,
						Detail: fmt.Sprintf("reference targets %v, not an H2 object start", t)})
					continue
				}
				if rt != r && st != cardDirty && !th.depCovers(r, rt) {
					report(check.Failure{Rule: "h2-dep-missing", Space: "h2", Region: r.id, Card: seg,
						Holder: a, Field: f,
						Detail: fmt.Sprintf("cross-region reference to region %d not covered by %s and segment not dirty", rt.id, th.groupModeName())})
				}
				continue
			}
			// Backward reference into H1.
			if !isStart(t) {
				report(check.Failure{Rule: "h2-backward-ref-dangling", Space: "h2", Region: r.id, Card: seg,
					Holder: a, Field: f,
					Detail: fmt.Sprintf("backward reference targets %v, not a valid H1 object start", t)})
				continue
			}
			need := cardOldGen
			if isYoung(t) {
				need = cardYoungGen
			}
			if st < need {
				report(check.Failure{Rule: "h2-card-state", Space: "h2", Region: r.id, Card: seg,
					Holder: a, Field: f,
					Detail: fmt.Sprintf("segment state %d weaker than backward reference to %v requires (%d)", st, t, need)})
			}
		}
	}
}

// depCovers reports whether the liveness machinery records the
// cross-region edge from rf to rt: a dependency-list entry, or membership
// in the same union-find group.
func (th *TeraHeap) depCovers(rf, rt *region) bool {
	if th.cfg.GroupMode == UnionFind {
		return th.find(rf.id) == th.find(rt.id)
	}
	_, ok := rf.deps[rt.id]
	return ok
}

func (th *TeraHeap) groupModeName() string {
	if th.cfg.GroupMode == UnionFind {
		return "union-find group"
	}
	return "dependency list"
}
