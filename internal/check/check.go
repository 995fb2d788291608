// Package check is the simulator's analog of OpenJDK's
// -XX:+VerifyBeforeGC/-XX:+VerifyAfterGC: a full-heap, full-metadata
// invariant verifier. It walks H1 (eden, survivors, old generation) and —
// through the H2 interface — every second-heap region, and validates
//
//	(a) object-graph closure: every reference field of every reachable
//	    object targets a mapped address holding a valid class id and a
//	    sane size/numRefs, and no forwarding pointers survive outside a
//	    GC pause;
//	(b) H1 card-table/start-array consistency, one rule set for both
//	    collectors (VerifyCards): every old object holding a young
//	    reference has the card of its start dirty, and each card's
//	    first-start entry is exactly the lowest object header in it;
//	(c) H2 card-table and region-metadata consistency (delegated to the
//	    H2 implementation, which owns the region internals);
//	(d) accounting conservation: space Used() equals the sum of walked
//	    object sizes, and simclock category breakdowns sum to Total().
//
// All heap reads go through the cost-free Peek path so that enabling
// verification never perturbs the deterministic simulated clock.
package check

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Failure is one invariant violation, located as precisely as the rule
// allows: which space, which region, which card, which holder object and
// which of its reference fields. Unset positional fields are -1 (or the
// null address for Holder).
type Failure struct {
	Rule   string  // short rule identifier, e.g. "h1-card-missing-dirty"
	Space  string  // heap space or subsystem name ("eden", "old", "h2", "clock", ...)
	Region int     // H2/G1 region id, or -1
	Card   int     // card index, or -1
	Holder vm.Addr // object whose metadata or field is at fault, or null
	Field  int     // reference-field index within Holder, or -1
	Detail string  // human-readable diagnosis
}

// New returns a Failure for rule with every positional field unset;
// callers fill in what they know.
func New(rule, detail string) Failure {
	return Failure{Rule: rule, Region: -1, Card: -1, Field: -1, Detail: detail}
}

// String renders the failure with only the fields that are set.
func (f Failure) String() string {
	var b strings.Builder
	b.WriteString(f.Rule)
	if f.Space != "" {
		fmt.Fprintf(&b, " space=%s", f.Space)
	}
	if f.Region >= 0 {
		fmt.Fprintf(&b, " region=%d", f.Region)
	}
	if f.Card >= 0 {
		fmt.Fprintf(&b, " card=%d", f.Card)
	}
	if !f.Holder.IsNull() {
		fmt.Fprintf(&b, " holder=%v", f.Holder)
	}
	if f.Field >= 0 {
		fmt.Fprintf(&b, " field=%d", f.Field)
	}
	fmt.Fprintf(&b, ": %s", f.Detail)
	return b.String()
}

// Error makes a Failure usable as an error value.
func (f Failure) Error() string { return "check: " + f.String() }

// Report renders a bounded multi-line summary of failures, suitable for a
// panic message.
func Report(when string, failures []Failure) string {
	const maxShown = 12
	var b strings.Builder
	fmt.Fprintf(&b, "heap verification failed (%s): %d violation(s)\n", when, len(failures))
	for i, f := range failures {
		if i == maxShown {
			fmt.Fprintf(&b, "  ... %d more\n", len(failures)-maxShown)
			break
		}
		fmt.Fprintf(&b, "  %s\n", f.String())
	}
	return strings.TrimRight(b.String(), "\n")
}

// H2 is the verifier's view of a second heap. Region internals (segment
// cards, segFirst arrays, dependency lists, promotion buffers) are private
// to the implementing package, so the H2 side verifies itself and reports
// through the shared Failure type.
type H2 interface {
	// Contains reports whether a falls inside the H2 address range.
	Contains(a vm.Addr) bool
	// ContainsAllocated reports whether a falls inside the allocated
	// prefix of a live H2 region (i.e. is a plausible H2 object address).
	ContainsAllocated(a vm.Addr) bool
	// VerifySelf checks every H2 region's objects and metadata.
	// isYoung classifies H1 addresses for backward-reference card states;
	// validH1 reports whether an address is a valid H1 object start.
	VerifySelf(isYoung func(vm.Addr) bool, validH1 func(vm.Addr) bool, report func(Failure))
}

// PSView is everything the verifier needs to check a Parallel
// Scavenge-style collector (the gc.Collector used by the PS, TeraHeap,
// memory-mode and Panthera configurations).
type PSView struct {
	AS      *vm.AddressSpace
	Classes *vm.ClassTable
	H1      *heap.H1
	Roots   *vm.RootSet
	Clock   *simclock.Clock
	H2      H2 // nil when no second heap is attached
}

// Object is one parsed heap object: its start and reference-field count.
type Object struct {
	Addr    vm.Addr
	NumRefs int
}

// Verifier runs the PS invariant rules with reusable scratch state, so a
// collector that verifies after every cycle (TH_VERIFY=1) amortizes the
// maps, object lists and BFS queue across runs instead of reallocating
// them each pause.
type Verifier struct {
	starts  map[vm.Addr]Object
	objs    []Object // arena for per-space object lists
	visited map[vm.Addr]bool
	queue   []vm.Addr
	want    []vm.Addr
	isStart func(vm.Addr) bool // pre-built closure over starts
}

// NewVerifier returns a Verifier with empty scratch state.
func NewVerifier() *Verifier {
	vr := &Verifier{
		starts:  make(map[vm.Addr]Object),
		visited: make(map[vm.Addr]bool),
	}
	vr.isStart = func(a vm.Addr) bool {
		_, ok := vr.starts[a]
		return ok
	}
	return vr
}

// VerifyPS runs every invariant rule against a quiescent (outside-pause)
// PS heap and returns all violations found. One-shot convenience over
// (*Verifier).VerifyPS.
func VerifyPS(v PSView) []Failure { return NewVerifier().VerifyPS(v) }

// VerifyPS runs every invariant rule against a quiescent (outside-pause)
// PS heap and returns all violations found.
func (vr *Verifier) VerifyPS(v PSView) []Failure {
	var failures []Failure
	report := func(f Failure) { failures = append(failures, f) }

	clear(vr.starts)
	vr.objs = vr.objs[:0]
	vr.walkSpace(v, v.H1.Eden, "eden", report)
	vr.walkSpace(v, v.H1.From, "from", report)
	oldStart := len(vr.objs)
	vr.walkSpace(v, v.H1.Old, "old", report)
	old := vr.objs[oldStart:]

	// To-space must be empty between pauses: scavenge swaps survivors
	// after copying, major GC empties the young generation entirely.
	if v.H1.To.Used() != 0 {
		report(Failure{Rule: "h1-to-space-not-empty", Space: "to", Region: -1, Card: -1, Field: -1,
			Detail: fmt.Sprintf("to-space holds %d bytes outside a GC pause", v.H1.To.Used())})
	}

	vr.verifyReachable(v, report)
	vr.VerifyCards(v.AS, v.H1.Cards, old, v.H1.InYoung, report)

	if v.H2 != nil {
		v.H2.VerifySelf(v.H1.InYoung, vr.isStart, report)
	}

	VerifyClock(v.Clock, report)

	return failures
}

// VerifyClock checks rule (d) for the simulated clock: the per-category
// breakdown must sum exactly to the total (conservation of simulated
// time). A nil clock is skipped.
func VerifyClock(clock *simclock.Clock, report func(Failure)) {
	if clock == nil {
		return
	}
	b := clock.Breakdown()
	var sum time.Duration
	for c := simclock.Category(0); int(c) < len(b.NS); c++ {
		sum += b.Get(c)
	}
	if sum != b.Total() {
		report(Failure{Rule: "clock-breakdown-sum", Space: "clock", Region: -1, Card: -1, Field: -1,
			Detail: fmt.Sprintf("category sum %v != total %v", sum, b.Total())})
	}
}

// walkSpace parse-walks [sp.Start, sp.Top), validating every header and
// checking that the walked sizes sum exactly to sp.Used(). Each valid
// object is recorded in vr.starts and appended to the vr.objs arena.
func (vr *Verifier) walkSpace(v PSView, sp *vm.Space, name string, report func(Failure)) {
	var sumWords int64
	a := sp.Start
	for a < sp.Top {
		status := v.AS.Peek(a)
		if vm.StatusForwarded(status) {
			report(Failure{Rule: "h1-forwarding-outside-pause", Space: name, Region: -1, Card: -1,
				Holder: a, Field: -1,
				Detail: fmt.Sprintf("forwarding pointer to %v survives outside a GC pause", vm.StatusForwardee(status))})
			return // cannot parse past a clobbered header
		}
		if status&(vm.FlagMark|vm.FlagClosure) != 0 {
			report(Failure{Rule: "h1-stale-gc-bits", Space: name, Region: -1, Card: -1,
				Holder: a, Field: -1,
				Detail: fmt.Sprintf("mark/closure bits 0x%x set outside a GC pause", status&(vm.FlagMark|vm.FlagClosure))})
		}
		cid := vm.StatusClassID(status)
		if cid == 0 || int(cid) >= v.Classes.Len() {
			report(Failure{Rule: "h1-bad-class", Space: name, Region: -1, Card: -1,
				Holder: a, Field: -1,
				Detail: fmt.Sprintf("class id %d out of range [1, %d)", cid, v.Classes.Len())})
			return
		}
		shape := v.AS.Peek(a + vm.WordSize)
		size := vm.ShapeSizeWords(shape)
		numRefs := vm.ShapeNumRefs(shape)
		if size < vm.HeaderWords || vm.HeaderWords+numRefs > size {
			report(Failure{Rule: "h1-bad-shape", Space: name, Region: -1, Card: -1,
				Holder: a, Field: -1,
				Detail: fmt.Sprintf("size %d words, %d refs is not a valid shape", size, numRefs)})
			return
		}
		end := a + vm.Addr(size*vm.WordSize)
		if end > sp.Top {
			report(Failure{Rule: "h1-object-overruns-top", Space: name, Region: -1, Card: -1,
				Holder: a, Field: -1,
				Detail: fmt.Sprintf("object end %v exceeds space top %v", end, sp.Top)})
			return
		}
		o := Object{Addr: a, NumRefs: numRefs}
		vr.objs = append(vr.objs, o)
		vr.starts[a] = o
		sumWords += int64(size)
		a = end
	}
	if got, want := sumWords*vm.WordSize, sp.Used(); got != want {
		report(Failure{Rule: "h1-accounting", Space: name, Region: -1, Card: -1, Field: -1,
			Detail: fmt.Sprintf("walked object bytes %d != Used() %d", got, want)})
	}
}

// verifyReachable BFS-walks the object graph from the root set, checking
// that every reference field of every reachable H1 object targets null, a
// valid H1 object start, or an allocated H2 address.
func (vr *Verifier) verifyReachable(v PSView, report func(Failure)) {
	clear(vr.visited)
	visited := vr.visited
	queue := vr.queue[:0]
	push := func(a vm.Addr) {
		if !visited[a] {
			visited[a] = true
			queue = append(queue, a)
		}
	}
	rootIdx := 0
	v.Roots.ForEach(func(h *vm.Handle) {
		a := h.Addr()
		if a.IsNull() {
			rootIdx++
			return
		}
		if v.H2 != nil && v.H2.Contains(a) {
			if !v.H2.ContainsAllocated(a) {
				report(Failure{Rule: "root-dangling-h2", Space: "roots", Region: -1, Card: -1, Field: rootIdx,
					Detail: fmt.Sprintf("root handle %d targets unallocated H2 address %v", rootIdx, a)})
			}
		} else if _, ok := vr.starts[a]; !ok {
			report(Failure{Rule: "root-dangling", Space: "roots", Region: -1, Card: -1, Field: rootIdx,
				Detail: fmt.Sprintf("root handle %d targets %v, not a valid H1 object start", rootIdx, a)})
		} else {
			push(a)
		}
		rootIdx++
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		o := vr.starts[a]
		for i := 0; i < o.NumRefs; i++ {
			t := vm.Addr(v.AS.Peek(a + vm.Addr((vm.HeaderWords+i)*vm.WordSize)))
			if t.IsNull() {
				continue
			}
			if v.H2 != nil && v.H2.Contains(t) {
				if !v.H2.ContainsAllocated(t) {
					report(Failure{Rule: "ref-dangling-h2", Space: spaceName(v, a), Region: -1, Card: -1,
						Holder: a, Field: i,
						Detail: fmt.Sprintf("reference targets unallocated H2 address %v", t)})
				}
				continue // H2 interiors are verified by H2.VerifySelf
			}
			if _, ok := vr.starts[t]; !ok {
				rule := "ref-dangling"
				detail := fmt.Sprintf("reference targets %v, not a valid object start", t)
				if v.AS.Resolve(t) == nil {
					rule = "ref-unmapped"
					detail = fmt.Sprintf("reference targets unmapped address %v", t)
				}
				report(Failure{Rule: rule, Space: spaceName(v, a), Region: -1, Card: -1,
					Holder: a, Field: i, Detail: detail})
				continue
			}
			push(t)
		}
	}
	vr.queue = queue[:0]
}

// VerifyCards checks rule (b) over an H1 card table, for either
// collector. objs are the objects whose starts the table records: the
// old generation for Parallel Scavenge; the old and humongous regions for
// G1, with the husks of objects moved to H2 passed with NumRefs 0 (their
// start still parses, but their fields are stale). Two rules:
//
//   - the card rule: an object holding a young reference has the card of
//     its start dirty — the card the write barrier and the GC walks mark,
//     and the one the card scan parses forward from;
//   - the start-array rule: each card's first-start entry is exactly the
//     lowest object start in that card, and null where none starts.
func (vr *Verifier) VerifyCards(as *vm.AddressSpace, cards *heap.CardTable, objs []Object, isYoung func(vm.Addr) bool, report func(Failure)) {
	n := cards.NumCards()
	want := vr.want
	if cap(want) < n {
		want = make([]vm.Addr, n)
	} else {
		want = want[:n]
		clear(want)
	}
	vr.want = want
	for i := range objs {
		o := &objs[i]
		ci := cards.Index(o.Addr)
		if want[ci].IsNull() || o.Addr < want[ci] {
			want[ci] = o.Addr
		}
		for f := 0; f < o.NumRefs; f++ {
			t := vm.Addr(as.Peek(o.Addr + vm.Addr((vm.HeaderWords+f)*vm.WordSize)))
			if t.IsNull() || !isYoung(t) {
				continue
			}
			if cards.Get(ci) != heap.CardDirty {
				report(Failure{Rule: "h1-card-missing-dirty", Space: "old", Region: -1, Card: ci,
					Holder: o.Addr, Field: f,
					Detail: fmt.Sprintf("old object holds young reference %v but the card of its start is clean", t)})
			}
			break // one young ref suffices to require the card
		}
	}
	for i := range want {
		if got := cards.FirstStart(i); got != want[i] {
			report(Failure{Rule: "h1-start-array", Space: "old", Region: -1, Card: i,
				Holder: got, Field: -1,
				Detail: fmt.Sprintf("start entry of card %d is %v but lowest object header in card is %v", i, got, want[i])})
		}
	}
}

// spaceName classifies an H1 address for failure reports.
func spaceName(v PSView, a vm.Addr) string {
	switch {
	case v.H1.Eden.Contains(a):
		return "eden"
	case v.H1.From.Contains(a):
		return "from"
	case v.H1.To.Contains(a):
		return "to"
	case v.H1.Old.Contains(a):
		return "old"
	}
	return "?"
}
