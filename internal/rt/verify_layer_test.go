package rt

import (
	"fmt"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// corruptHeap roots an object whose second field points one word past
// another object's start: inside the heap, but not an object, which every
// collector's verifier reports as a dangling reference.
func corruptHeap(tb testing.TB, r Runtime) {
	tb.Helper()
	node := r.Classes().MustFixed("corrupt.Node", 2, 1)
	a, err := r.Alloc(node)
	if err != nil {
		tb.Fatal(err)
	}
	h := r.NewHandle(a)
	b, err := r.Alloc(node)
	if err != nil {
		tb.Fatal(err)
	}
	r.WriteRef(h.Addr(), 0, b)
	r.Mem().SetRefAt(h.Addr(), 1, b+vm.WordSize)
}

// fireAfterGC dispatches one AfterGC event on the session's hook plane
// and returns the panic it raised, or nil.
func fireAfterGC(s *Session, p gc.Phase) (v any) {
	defer func() { v = recover() }()
	s.Runtime.Hooks().AfterGC(p)
	return nil
}

// TestVerifierIsOneSessionLayer: for every kind, Spec.Verify, TH_VERIFY=1
// or both register exactly one verifier hook, and it runs before the
// event counter. On a corrupted heap the verifier aborts the AfterGC
// fan-out before EventStats counts the collection; once that one hook is
// removed, the same event passes every remaining hook and is counted.
func TestVerifierIsOneSessionLayer(t *testing.T) {
	modes := []struct {
		name string
		spec bool
		env  string
	}{{"spec", true, ""}, {"env", false, "1"}, {"both", true, "1"}}
	for _, kind := range allKinds {
		for _, m := range modes {
			t.Run(fmt.Sprintf("%v/%s", kind, m.name), func(t *testing.T) {
				t.Setenv("TH_VERIFY", "")
				plain := NewSession(testSpec(kind)).Runtime.Hooks().Len()

				t.Setenv("TH_VERIFY", m.env)
				spec := testSpec(kind)
				spec.Verify = m.spec
				ses := NewSession(spec)
				if ses.verifier == nil {
					t.Fatal("no verifier registered")
				}
				if got := ses.Runtime.Hooks().Len(); got != plain+1 {
					t.Fatalf("hook count %d, want %d (unverified) + 1", got, plain)
				}
				corruptHeap(t, ses.Runtime)
				v := fireAfterGC(ses, gc.PhaseMinor)
				if msg, _ := v.(string); !strings.HasPrefix(msg, "heap verification failed (after minor GC)") {
					t.Fatalf("AfterGC on a corrupted heap: panic %v, want a verification report", v)
				}
				if ses.Events.MinorGCs != 0 {
					t.Fatalf("event counter ran before the verifier (MinorGCs=%d)", ses.Events.MinorGCs)
				}
				if !ses.Runtime.Hooks().Remove(ses.verifier) {
					t.Fatal("session verifier is not on the hook plane")
				}
				if v := fireAfterGC(ses, gc.PhaseMinor); v != nil {
					t.Fatalf("a second verifier hook remains: %v", v)
				}
				if ses.Events.MinorGCs != 1 {
					t.Fatalf("MinorGCs = %d after the verifier was removed, want 1", ses.Events.MinorGCs)
				}
			})
		}
	}
}

// TestVerifiedSessionPanicsOnCorruption: a real collection on a corrupted
// heap panics with the verifier's report, labelled with the phase, on a
// PS kind and a G1 kind.
func TestVerifiedSessionPanicsOnCorruption(t *testing.T) {
	for _, kind := range []Kind{KindTH, KindG1} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := testSpec(kind)
			spec.Verify = true
			ses := NewSession(spec)
			corruptHeap(t, ses.Runtime)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "heap verification failed (before major GC)") ||
					!strings.Contains(msg, "ref-dangling") {
					t.Fatalf("FullGC on a corrupted heap: panic %q, want a ref-dangling report before major GC", msg)
				}
			}()
			_ = ses.Runtime.FullGC()
		})
	}
}

// TestFaultPlanReachesG1TeraHeap: NewSession attaches the injector to
// the second heap on G1 kinds too, so forced H2 exhaustion fires during
// a G1+TeraHeap marking cycle and the advised closure stays in H1.
func TestFaultPlanReachesG1TeraHeap(t *testing.T) {
	spec := testSpec(KindG1TH)
	spec.FaultPlan = &fault.Plan{Seed: 7, H2ExhaustRate: 1}
	ses := NewSession(spec)
	r := ses.Runtime
	arr := r.Classes().MustRefArray("exhaust.Root[]")
	data := r.Classes().MustPrimArray("exhaust.Data[]")
	root, err := r.AllocRefArray(arr, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := r.NewHandle(root)
	for i := 0; i < 8; i++ {
		d, err := r.AllocPrimArray(data, 256)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteRef(h.Addr(), i, d)
	}
	r.TagRoot(h, 1)
	r.MoveHint(1)
	if err := r.(*g1.G1).MarkingCycle(); err != nil {
		t.Fatal(err)
	}
	if got := ses.TH.Stats().ForcedExhaustions; got == 0 {
		t.Fatal("ForcedExhaustions = 0: the fault plan never reached the second heap")
	}
	if r.InSecondHeap(h.Addr()) {
		t.Fatal("root moved to H2 under forced exhaustion")
	}
}
