package rt

import (
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// marker is the optional interface G1-family runtimes expose for forcing
// a concurrent-mark + mixed-collection cycle.
type marker interface{ MarkingCycle() error }

// churnAlloc allocates n linked nodes, retaining every k-th one, so the
// young generation fills and triggers allocation-driven minor GCs.
func churnAlloc(tb testing.TB, r Runtime, cls *vm.Class, h *vm.Handle, n, k int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		a, err := r.Alloc(cls)
		if err != nil {
			tb.Fatalf("Alloc %d: %v", i, err)
		}
		r.WriteRef(a, 0, h.Addr())
		if i%k == 0 {
			h.Set(a)
		}
	}
}

// TestEventStatsMixedPhases drives a G1 session through interleaved
// young, concurrent-mark+mixed, and full collections and checks that the
// EventStats collector attributes each pause to the right phase counter:
// young evacuations count as MinorGCs, mixed cycles as MixedGCs, and
// full compactions as MajorGCs. This is the contract pause-latency
// collectors (the serve plane's histogram, chaos triage) rely on when
// they bucket pauses by phase.
func TestEventStatsMixedPhases(t *testing.T) {
	ses := NewSession(testSpec(KindG1))
	r := ses.Runtime
	cls := r.Classes().MustFixed("events.Node", 1, 6)
	h := r.NewHandle(vm.NullAddr)

	m, ok := r.(marker)
	if !ok {
		t.Fatalf("G1 runtime %T does not expose MarkingCycle", r)
	}

	// Interleave the three collection shapes several times so counts
	// accumulate across phase changes, not just once per phase.
	for round := 0; round < 3; round++ {
		churnAlloc(t, r, cls, h, 3000, 7)
		if err := m.MarkingCycle(); err != nil {
			t.Fatalf("round %d MarkingCycle: %v", round, err)
		}
		churnAlloc(t, r, cls, h, 1500, 5)
		if err := r.FullGC(); err != nil {
			t.Fatalf("round %d FullGC: %v", round, err)
		}
	}

	ev := ses.Events
	if ev.MinorGCs == 0 {
		t.Errorf("MinorGCs = 0, want > 0 from allocation-driven young GCs")
	}
	if ev.MixedGCs < 3 {
		t.Errorf("MixedGCs = %d, want >= 3 (one per MarkingCycle)", ev.MixedGCs)
	}
	if ev.MajorGCs < 3 {
		t.Errorf("MajorGCs = %d, want >= 3 (one per FullGC)", ev.MajorGCs)
	}
	if ev.Faults != 0 || ev.OOMs != 0 {
		t.Errorf("unexpected fault/OOM events on a healthy run: %+v", ev)
	}

	// Cross-check phase attribution against the collector's own ledger.
	// G1 books both full compactions and mark+mixed cycles under
	// GCStats.MajorCount; the hook plane is what distinguishes them, so
	// EventStats must split that total as MajorGCs + MixedGCs exactly.
	st := r.GCStats()
	if int(ev.MinorGCs) != st.MinorCount {
		t.Errorf("MinorGCs = %d disagrees with GCStats.MinorCount = %d", ev.MinorGCs, st.MinorCount)
	}
	if int(ev.MajorGCs+ev.MixedGCs) != st.MajorCount {
		t.Errorf("MajorGCs+MixedGCs = %d+%d disagrees with GCStats.MajorCount = %d",
			ev.MajorGCs, ev.MixedGCs, st.MajorCount)
	}

	// A stop-the-world-only runtime must never report mixed pauses: the
	// parallel-scavenge session sees the same workload minus the marking
	// cycles and keeps MixedGCs at zero.
	ps := NewSession(testSpec(KindPS))
	pcls := ps.Runtime.Classes().MustFixed("events.Node", 1, 6)
	ph := ps.Runtime.NewHandle(vm.NullAddr)
	for round := 0; round < 3; round++ {
		churnAlloc(t, ps.Runtime, pcls, ph, 20000, 7)
		if err := ps.Runtime.FullGC(); err != nil {
			t.Fatalf("PS round %d FullGC: %v", round, err)
		}
	}
	if ps.Events.MixedGCs != 0 {
		t.Errorf("PS MixedGCs = %d, want 0 (no mixed phase exists)", ps.Events.MixedGCs)
	}
	if ps.Events.MinorGCs == 0 || ps.Events.MajorGCs < 3 {
		t.Errorf("PS events: %+v, want minor > 0 and major >= 3", ps.Events)
	}

	checkCycleLedger(t, "G1", r.GCStats())
	checkCycleLedger(t, "PS", ps.Runtime.GCStats())
}

// checkCycleLedger checks the record invariants the shared pause bracket
// guarantees on every collector: one Cycle per counted collection, and
// per cycle kind the Cycle durations sum to the kind's total time.
func checkCycleLedger(t *testing.T, name string, st *gc.Stats) {
	t.Helper()
	if len(st.Cycles) != st.MinorCount+st.MajorCount {
		t.Errorf("%s: %d Cycles, want MinorCount+MajorCount = %d+%d",
			name, len(st.Cycles), st.MinorCount, st.MajorCount)
	}
	var sum [2]time.Duration
	for _, cy := range st.Cycles {
		sum[cy.Kind] += cy.Duration
	}
	if sum[gc.Minor] != st.MinorTime {
		t.Errorf("%s: minor Cycle durations sum to %v, MinorTime = %v", name, sum[gc.Minor], st.MinorTime)
	}
	if sum[gc.Major] != st.MajorTime {
		t.Errorf("%s: major Cycle durations sum to %v, MajorTime = %v", name, sum[gc.Major], st.MajorTime)
	}
}
