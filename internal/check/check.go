// Package check is the simulator's analog of OpenJDK's
// -XX:+VerifyBeforeGC/-XX:+VerifyAfterGC: a full-heap, full-metadata
// invariant verifier. H2 holds objects in the H1 format, so the object
// header parse and the root/reference walk exist once, here, for every
// heap: a Verifier parses PS spaces (VerifyPS), G1 regions and humongous
// runs, and H2 regions (through the H2 interface) span by span (Parse),
// then walks the object graph from the roots (VerifyRoots). The rules:
//
//	(a) object headers: no forwarding pointer outside a GC pause (G1's
//	    husks excepted, see Span.Husk), no stale mark/closure bit, a
//	    class id in range, a valid shape, an end within the space;
//	(b) object-graph closure: every root and every reference field of
//	    every reachable object targets null, a parsed object start, or
//	    an allocated H2 address;
//	(c) H1 card-table/start-array consistency, one rule set for both
//	    collectors (VerifyCards): every old object holding a young
//	    reference has the card of its start dirty, and each card's
//	    first-start entry is exactly the lowest object header in it;
//	(d) accounting: each walk lands exactly on its space's allocation
//	    top, and simclock category breakdowns sum to Total() (VerifyClock).
//
// The collectors and the H2 implementation check only the metadata they
// own (G1's region lists and humongous runs; H2's segment cards, segFirst
// arrays, dependency lists, object counts and promotion buffers) and
// report through the shared Failure type. All heap reads go through the
// cost-free Peek path so that enabling verification never perturbs the
// deterministic simulated clock.
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

// H2 is the verifier's view of a second heap. H2 objects have the H1
// object format, so their headers parse through the same Verifier; region
// internals (segment cards, segFirst arrays, dependency lists, promotion
// buffers) are private to the implementing package, so the H2 side checks
// them itself and reports through the shared Failure type.
type H2 interface {
	// Contains reports whether a falls inside the H2 address range.
	Contains(a vm.Addr) bool
	// ContainsAllocated reports whether a falls inside the allocated
	// prefix of a live H2 region (i.e. is a plausible H2 object address).
	ContainsAllocated(a vm.Addr) bool
	// VerifySelf parses every allocated H2 region through vr and checks
	// the region metadata. isYoung classifies H1 addresses for
	// backward-reference card states; vr.IsStart tells valid H1 object
	// starts, so the H1 spaces are parsed first.
	VerifySelf(vr *Verifier, isYoung func(vm.Addr) bool, report func(Failure))
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
// A husk is an Object with no references: its fields are stale.
type Object struct {
	Addr    vm.Addr
	NumRefs int
	span    int // index of the Span it was parsed in
}

// Span is one bump-allocated run of objects for the header parse: a PS
// space, a G1 region or humongous run, or an H2 region.
type Span struct {
	Space  string // space name in failures: "eden", "old", "humongous", "h2", ...
	Region int    // G1/H2 region id, or -1
	Start  vm.Addr
	// Top is the allocation top: the walked object bytes must sum to
	// Top-Start.
	Top vm.Addr
	// End is the capacity end: no object may extend past it.
	End vm.Addr
	// Husk, when set, admits a forwarded header whose forwardee it
	// accepts: the husk of an object moved to H2, which G1 leaves in its
	// H1 region until the region is evacuated. A husk's shape must still
	// parse; it is not an object start. Unset, every forwarding pointer
	// is a violation.
	Husk func(forwardee vm.Addr) bool
}

// Verifier holds the one object-header parse and the one root/reference
// walk, for every heap: PS spaces, G1 regions and H2 regions. Its scratch
// state is reused across runs, so a collector that verifies after every
// cycle (TH_VERIFY=1) amortizes the maps, object lists and BFS queue
// instead of reallocating them each pause.
type Verifier struct {
	as      *vm.AddressSpace
	classes *vm.ClassTable
	spans   []Span
	starts  map[vm.Addr]Object
	objs    []Object // arena for the per-span object lists
	visited map[vm.Addr]bool
	queue   []vm.Addr
	want    []vm.Addr
}

// NewVerifier returns a Verifier with empty scratch state.
func NewVerifier() *Verifier {
	return &Verifier{
		starts:  make(map[vm.Addr]Object),
		visited: make(map[vm.Addr]bool),
	}
}

// Begin starts one verification of the heap behind as, forgetting the
// objects the previous one parsed. All reads go through as.Peek.
func (vr *Verifier) Begin(as *vm.AddressSpace, classes *vm.ClassTable) {
	vr.as, vr.classes = as, classes
	vr.spans = vr.spans[:0]
	vr.objs = vr.objs[:0]
	clear(vr.starts)
}

// IsStart reports whether a is the start of an object parsed since Begin
// (husks excluded).
func (vr *Verifier) IsStart(a vm.Addr) bool {
	_, ok := vr.starts[a]
	return ok
}

// VerifyPS runs every invariant rule against a quiescent (outside-pause)
// PS heap and returns all violations found.
func (vr *Verifier) VerifyPS(v PSView) []Failure {
	var failures []Failure
	report := func(f Failure) { failures = append(failures, f) }

	vr.Begin(v.AS, v.Classes)
	vr.Parse(spaceSpan(v.H1.Eden), report)
	vr.Parse(spaceSpan(v.H1.From), report)
	old, _ := vr.Parse(spaceSpan(v.H1.Old), report)

	// To-space must be empty between pauses: scavenge swaps survivors
	// after copying, major GC empties the young generation entirely.
	if v.H1.To.Used() != 0 {
		report(Failure{Rule: "h1-to-space-not-empty", Space: "to", Region: -1, Card: -1, Field: -1,
			Detail: fmt.Sprintf("to-space holds %d bytes outside a GC pause", v.H1.To.Used())})
	}

	vr.VerifyRoots(v.Roots, v.H2, report)
	vr.VerifyCards(v.H1.Cards, old, v.H1.InYoung, report)

	if v.H2 != nil {
		v.H2.VerifySelf(vr, v.H1.InYoung, report)
	}

	VerifyClock(v.Clock, report)

	return failures
}

// spaceSpan is the parse span of a PS space.
func spaceSpan(sp *vm.Space) Span {
	return Span{Space: sp.Name, Region: -1, Start: sp.Start, Top: sp.Top, End: sp.End}
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

// Parse walks the objects of sp in address order and checks each header:
// no forwarding pointer (unless sp admits it as a husk), no mark or
// closure bit, a class id in range, a valid shape, and an end within
// sp.End. A header that fails the forwarding, class, shape or end rule
// cannot be parsed past: the walk stops there and ok is false. A walk
// that reaches Top checks the accounting rule: the walked object bytes
// equal Top-Start. Parse records each object start for IsStart and the
// reference walk, and returns the span's objects (husks with no
// references), as far as it got.
func (vr *Verifier) Parse(sp Span, report func(Failure)) (objs []Object, ok bool) {
	idx, first := len(vr.spans), len(vr.objs)
	vr.spans = append(vr.spans, sp)
	a, last := sp.Start, vm.NullAddr
	for ok = true; a < sp.Top; {
		numRefs, end, husk, parsed := vr.parseHeader(&sp, a, report)
		if !parsed {
			ok = false
			break
		}
		o := Object{Addr: a, span: idx}
		if !husk {
			o.NumRefs = numRefs
			vr.starts[a] = o
		}
		vr.objs = append(vr.objs, o)
		last, a = a, end
	}
	if ok && a != sp.Top {
		report(Failure{Rule: "accounting", Space: sp.Space, Region: sp.Region, Card: -1, Holder: last, Field: -1,
			Detail: fmt.Sprintf("walked object bytes %d != used %d: the last object ends past top %v",
				int64(a-sp.Start), int64(sp.Top-sp.Start), sp.Top)})
	}
	n := len(vr.objs)
	return vr.objs[first:n:n], ok
}

// parseHeader checks the header at a and returns the object's reference
// count and end, and whether it is a husk. ok is false when the walk
// cannot go on.
func (vr *Verifier) parseHeader(sp *Span, a vm.Addr, report func(Failure)) (numRefs int, end vm.Addr, husk, ok bool) {
	fail := func(rule, format string, args ...any) {
		report(Failure{Rule: rule, Space: sp.Space, Region: sp.Region, Card: -1, Holder: a, Field: -1,
			Detail: fmt.Sprintf(format, args...)})
	}
	status := vr.as.Peek(a)
	husk = vm.StatusForwarded(status)
	if husk {
		if fw := vm.StatusForwardee(status); sp.Husk == nil || !sp.Husk(fw) {
			fail("forwarding-outside-pause", "forwarding pointer to %v survives outside a GC pause", fw)
			return 0, 0, husk, false
		}
	} else {
		if bits := status & (vm.FlagMark | vm.FlagClosure); bits != 0 {
			fail("stale-gc-bits", "mark/closure bits 0x%x set outside a GC pause", bits)
		}
		if cid := vm.StatusClassID(status); cid == 0 || int(cid) >= vr.classes.Len() {
			fail("bad-class", "class id %d out of range [1, %d)", cid, vr.classes.Len())
			return 0, 0, husk, false
		}
	}
	shape := vr.as.Peek(a + vm.WordSize)
	size := vm.ShapeSizeWords(shape)
	numRefs = vm.ShapeNumRefs(shape)
	if size < vm.HeaderWords || vm.HeaderWords+numRefs > size {
		fail("bad-shape", "size %d words, %d refs is not a valid shape", size, numRefs)
		return 0, 0, husk, false
	}
	end = a + vm.Addr(size*vm.WordSize)
	if end > sp.End {
		fail("object-overruns-end", "object end %v exceeds the %s end %v", end, sp.Space, sp.End)
		return 0, 0, husk, false
	}
	return numRefs, end, husk, true
}

// VerifyRoots BFS-walks the object graph from the root set over the
// objects parsed since Begin: every root and every reference field of
// every reachable object targets null, an object start, or an allocated
// H2 address (H2 interiors are H2.VerifySelf's). h2 is nil without a
// second heap.
func (vr *Verifier) VerifyRoots(roots *vm.RootSet, h2 H2, report func(Failure)) {
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
	roots.ForEach(func(h *vm.Handle) {
		a := h.Addr()
		switch {
		case a.IsNull():
		case h2 != nil && h2.Contains(a):
			if !h2.ContainsAllocated(a) {
				report(Failure{Rule: "root-dangling-h2", Space: "roots", Region: -1, Card: -1, Field: rootIdx,
					Detail: fmt.Sprintf("root handle %d targets unallocated H2 address %v", rootIdx, a)})
			}
		case !vr.IsStart(a):
			report(Failure{Rule: "root-dangling", Space: "roots", Region: -1, Card: -1, Field: rootIdx,
				Detail: fmt.Sprintf("root handle %d targets %v, not a valid H1 object start", rootIdx, a)})
		default:
			push(a)
		}
		rootIdx++
	})
	for len(queue) > 0 {
		a := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		o := vr.starts[a]
		sp := &vr.spans[o.span]
		for i := 0; i < o.NumRefs; i++ {
			t := vm.Addr(vr.as.Peek(a + vm.Addr((vm.HeaderWords+i)*vm.WordSize)))
			if t.IsNull() {
				continue
			}
			if h2 != nil && h2.Contains(t) {
				if !h2.ContainsAllocated(t) {
					report(Failure{Rule: "ref-dangling-h2", Space: sp.Space, Region: sp.Region, Card: -1,
						Holder: a, Field: i,
						Detail: fmt.Sprintf("reference targets unallocated H2 address %v", t)})
				}
				continue
			}
			if !vr.IsStart(t) {
				rule := "ref-dangling"
				detail := fmt.Sprintf("reference targets %v, not a valid object start", t)
				if vr.as.Resolve(t) == nil {
					rule = "ref-unmapped"
					detail = fmt.Sprintf("reference targets unmapped address %v", t)
				}
				report(Failure{Rule: rule, Space: sp.Space, Region: sp.Region, Card: -1,
					Holder: a, Field: i, Detail: detail})
				continue
			}
			push(t)
		}
	}
	vr.queue = queue[:0]
}

// VerifyCards checks rule (c) over an H1 card table, for either
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
func (vr *Verifier) VerifyCards(cards *heap.CardTable, objs []Object, isYoung func(vm.Addr) bool, report func(Failure)) {
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
			t := vm.Addr(vr.as.Peek(o.Addr + vm.Addr((vm.HeaderWords+f)*vm.WordSize)))
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
