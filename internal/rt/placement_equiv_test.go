package rt

import (
	"fmt"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// legacyDouble is an independently-written reimplementation of the
// legacy placement behavior. It deliberately does not reuse
// placement.Default: the equivalence test below pins that a run with the
// policy seam actively exercised (a non-Default dynamic type at every
// call site) is byte-identical to the stock run, i.e. the seam itself
// adds no behavior and Default's semantics are exactly the hardcoded
// logic the collectors had before the refactor.
type legacyDouble struct{ calls int64 }

func (p *legacyDouble) Name() string { return "legacy-double" }
func (p *legacyDouble) AllocTarget(placement.Site, int, bool) placement.AllocDecision {
	p.calls++
	return placement.AllocDefault
}
func (p *legacyDouble) Promote(_ placement.Site, age, tenureAge int) bool {
	p.calls++
	return age >= tenureAge
}
func (p *legacyDouble) MoveToH2OnMinor(_ uint64, advised bool) bool {
	p.calls++
	return advised
}
func (p *legacyDouble) MoveClosureAtMajor(_ uint64, legacy bool) bool {
	p.calls++
	return legacy
}
func (p *legacyDouble) NoteScavenge(placement.Site, int, bool) { p.calls++ }
func (p *legacyDouble) NoteDeadOld(uint64)                     { p.calls++ }
func (p *legacyDouble) NotePretenured(placement.Site)          { p.calls++ }
func (p *legacyDouble) Stats() placement.Stats {
	return placement.Stats{Policy: "legacy-double"}
}

// installPolicy reaches the policy seam on whichever collector the
// session built, and on its second heap's movement decisions.
func installPolicy(tb testing.TB, s *Session, p placement.Policy) {
	tb.Helper()
	switch rt := s.Runtime.(type) {
	case *gc.Collector:
		rt.SetPlacementPolicy(p)
		if s.TH != nil {
			s.TH.SetPlacementPolicy(p)
		}
	case *g1.G1:
		rt.SetPlacementPolicy(p)
	default:
		tb.Fatalf("runtime %T has no placement seam", s.Runtime)
	}
}

// driveEquivWorkload is a deterministic mutator that exercises every
// policy call site: allocation-driven scavenges with a retained set (so
// survivors age and Promote fires with both outcomes), cold allocations
// (Panthera's pretenure path), labelled roots with move hints (TeraHeap's
// minor-move path), and forced major collections (closure moves and
// dead-old sweeps).
func driveEquivWorkload(tb testing.TB, r Runtime) {
	tb.Helper()
	node := r.Classes().MustFixed("equiv.Node", 2, 2)
	cold := r.Classes().MustFixed("equiv.Cold", 1, 4)
	const label = 9
	root := r.NewHandle(vm.NullAddr)
	r.TagRoot(root, label)
	r.MoveHint(label)
	retained := r.NewHandle(vm.NullAddr)
	for i := 0; i < 40000; i++ {
		a, err := r.Alloc(node)
		if err != nil {
			tb.Fatalf("Alloc %d: %v", i, err)
		}
		if i%7 == 0 {
			// Chain into the retained list so survivors accumulate age.
			r.WriteRef(a, 0, retained.Addr())
			retained.Set(a)
		}
		if i%19 == 0 {
			// Grow the labelled structure the move hint targets.
			r.WriteRef(a, 1, root.Addr())
			root.Set(a)
		}
		if i%53 == 0 {
			if _, err := r.AllocCold(cold); err != nil {
				tb.Fatalf("AllocCold %d: %v", i, err)
			}
		}
	}
	if err := r.FullGC(); err != nil {
		tb.Fatalf("final FullGC: %v", err)
	}
}

// equivFingerprint reduces a finished session to the byte-comparable
// run fingerprint: virtual-time breakdown, GC statistics, device
// counters, and (when a second heap exists) H2 movement statistics.
func equivFingerprint(ses *Session) string {
	fp := fmt.Sprintf("breakdown=%+v\ngc=%+v\ndev=%+v\n",
		ses.Clock.Breakdown(), *ses.Runtime.GCStats(), ses.Device.Stats())
	if ses.TH != nil {
		fp += fmt.Sprintf("th=%+v\n", ses.TH.Stats())
	}
	return fp
}

// TestDefaultPolicyEquivalence pins the policy plane's zero-cost
// contract on the legacy kinds: an identical workload run stock (the
// built-in Default policy) and with the seam exercised by an external
// legacy-double policy produces byte-identical clock breakdowns, GC
// stats, and device/H2 counters for PS, TeraHeap, G1, and Panthera.
func TestDefaultPolicyEquivalence(t *testing.T) {
	for _, kind := range []Kind{KindPS, KindTH, KindG1, KindPanthera} {
		t.Run(kind.String(), func(t *testing.T) {
			stock := NewSession(testSpec(kind))
			driveEquivWorkload(t, stock.Runtime)

			seamed := NewSession(testSpec(kind))
			double := &legacyDouble{}
			installPolicy(t, seamed, double)
			driveEquivWorkload(t, seamed.Runtime)

			a, b := equivFingerprint(stock), equivFingerprint(seamed)
			if a != b {
				t.Fatalf("seam changed run behavior:\nstock:\n%s\nseamed:\n%s", a, b)
			}
			if double.calls == 0 {
				t.Fatal("legacy double was never consulted (equivalence is vacuous)")
			}
		})
	}
}
