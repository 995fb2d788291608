package gc_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// fallbackEnv builds a TH session with the verifier on, a tagged+advised
// closure of count 1024-word arrays hanging off one root, and returns the
// pieces the exhaustion tests inspect.
func fallbackEnv(t *testing.T, h2Size int64, count int) (*gc.Collector, *core.TeraHeap, *vm.Handle, []*vm.Handle) {
	t.Helper()
	classes := vm.NewClassTable()
	classes.MustRefArray("root[]")
	classes.MustPrimArray("big[]")
	cfg := core.DefaultConfig(h2Size)
	cfg.RegionSize = 32 * storage.KB
	ses := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 2 * storage.MB, TH: &cfg, Classes: classes,
		Layers: rt.Layers{Verify: true}})
	jvm := ses.Runtime.(*gc.Collector)

	rootArr := classes.ByName("root[]")
	bigArr := classes.ByName("big[]")
	root, err := jvm.AllocRefArray(rootArr, count)
	if err != nil {
		t.Fatal(err)
	}
	h := jvm.NewHandle(root)
	const label = 7
	jvm.TagRoot(h, label)
	var members []*vm.Handle
	for i := 0; i < count; i++ {
		b, err := jvm.AllocPrimArray(bigArr, 1024) // 8 KB each
		if err != nil {
			t.Fatal(err)
		}
		jvm.WriteRef(h.Addr(), i, b)
		members = append(members, jvm.NewHandle(b))
	}
	jvm.MoveHint(label)
	return jvm, ses.TH, h, members
}

// leakedReservations counts the verifier's h2-reservation-leak reports:
// PrepareMove reservations that no CommitMove consumed.
func leakedReservations(jvm *gc.Collector) int {
	n := 0
	for _, f := range jvm.VerifyNow() {
		if f.Rule == "h2-reservation-leak" {
			n++
		}
	}
	return n
}

// TestForcedH2ExhaustionKeepsClosureInH1 drives the fault plane's forced
// exhaustion at rate 1: every PrepareMove fails, so after a major GC the
// whole advised closure must still be in H1 with consistent metadata (the
// verifier brackets the GC) and no leaked reservations.
func TestForcedH2ExhaustionKeepsClosureInH1(t *testing.T) {
	jvm, th, h, members := fallbackEnv(t, 64*storage.MB, 16)
	inj := fault.NewInjector(&fault.Plan{Seed: 7, H2ExhaustRate: 1})
	jvm.SetFaultInjector(inj)
	th.SetFaultInjector(inj)

	if err := jvm.FullGC(); err != nil {
		t.Fatalf("FullGC under forced exhaustion: %v", err)
	}
	if jvm.InSecondHeap(h.Addr()) {
		t.Errorf("root moved to H2 despite forced exhaustion")
	}
	for i, m := range members {
		if jvm.InSecondHeap(m.Addr()) {
			t.Errorf("member %d moved to H2 despite forced exhaustion", i)
		}
	}
	if used := th.UsedBytes(); used != 0 {
		t.Errorf("H2 used %d bytes, want 0", used)
	}
	if got := th.Stats().ForcedExhaustions; got == 0 {
		t.Error("ForcedExhaustions stat not incremented")
	}
	if n := leakedReservations(jvm); n != 0 {
		t.Errorf("%d PrepareMove reservations leaked", n)
	}
	// The heap must stay fully functional: a second verified major GC with
	// the injector removed moves the closure out.
	jvm.SetFaultInjector(nil)
	th.SetFaultInjector(nil)
	if err := jvm.FullGC(); err != nil {
		t.Fatalf("FullGC after removing injector: %v", err)
	}
	if !jvm.InSecondHeap(h.Addr()) {
		t.Error("root not moved to H2 once exhaustion cleared")
	}
	if n := leakedReservations(jvm); n != 0 {
		t.Errorf("%d reservations leaked after recovery GC", n)
	}
}

// TestNaturalH2ExhaustionPartialMove fills a genuinely tiny H2 (4 regions)
// with a closure twice its size: the move must stop at capacity, the
// overflow must stay in H1, the verifier must pass, and reservations must
// not leak. This is §4's PrepareMove failure path without any injection.
func TestNaturalH2ExhaustionPartialMove(t *testing.T) {
	jvm, _, h, members := fallbackEnv(t, 4*32*storage.KB, 32) // 128 KB H2, ~256 KB closure
	if err := jvm.FullGC(); err != nil {
		t.Fatalf("FullGC with tiny H2: %v", err)
	}
	inH2 := 0
	if jvm.InSecondHeap(h.Addr()) {
		inH2++
	}
	for _, m := range members {
		if jvm.InSecondHeap(m.Addr()) {
			inH2++
		}
	}
	if inH2 == 0 {
		t.Error("nothing moved to H2: exhaustion should be partial, not total")
	}
	if inH2 == len(members)+1 {
		t.Error("entire closure fit in H2: test did not exercise exhaustion")
	}
	if n := leakedReservations(jvm); n != 0 {
		t.Errorf("%d PrepareMove reservations leaked", n)
	}
	// Subsequent verified GCs must keep working with the split closure.
	if err := jvm.FullGC(); err != nil {
		t.Fatalf("second FullGC with split closure: %v", err)
	}
	if n := leakedReservations(jvm); n != 0 {
		t.Errorf("%d reservations leaked after second GC", n)
	}
}
