package recovery

import (
	"reflect"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// breakerManager builds a Manager exercising only the breaker state
// machine (no collector/heap: strike, admit, and probe never touch them).
func breakerManager(plan *fault.Plan) *Manager {
	return NewManager(nil, nil, fault.NewInjector(plan), simclock.New())
}

// trip strikes the breaker breakerK times in a row, tripping it open.
func trip(m *Manager) {
	for i := 0; i < breakerK; i++ {
		m.strike()
	}
}

// advance consumes n injector decisions without injecting anything. The
// test plans carry a zero-length brown-out window (BrownoutEvery=1,
// BrownoutLen=0), which makes every DeviceOp consume exactly one decision
// while degrading none.
func advance(in *fault.Injector, n int) {
	for i := 0; i < n; i++ {
		in.DeviceOp(false, 0)
	}
}

// tickingPlan returns a plan whose only effect is that DeviceOp consumes
// decisions (see advance), plus any extra rates set by the caller.
func tickingPlan(regionFail float64) *fault.Plan {
	return &fault.Plan{Seed: 1, BrownoutEvery: 1, BrownoutLen: 0, BrownoutFactor: 1, RegionFailRate: regionFail}
}

func TestBreakerTripsAtK(t *testing.T) {
	m := breakerManager(&fault.Plan{Seed: 1})
	for i := 0; i < breakerK-1; i++ {
		m.strike()
		if m.State() != Closed {
			t.Fatalf("state = %v after %d strikes, want closed", m.State(), i+1)
		}
		if !m.admit() {
			t.Fatalf("admit = false while closed")
		}
	}
	m.strike()
	if m.State() != Open {
		t.Fatalf("state = %v after %d strikes, want open", m.State(), breakerK)
	}
	if got := m.Stats().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}
	if m.admit() {
		t.Fatal("admit = true immediately after trip: cooldown not enforced")
	}
	if got := m.Stats().BreakerRejects; got != 1 {
		t.Fatalf("BreakerRejects = %d, want 1", got)
	}
}

func TestBreakerProbeClosesAfterCooldown(t *testing.T) {
	// No error rates: probes always succeed once the cooldown elapses.
	m := breakerManager(tickingPlan(0))
	trip(m)
	if m.State() != Open {
		t.Fatalf("state = %v, want open", m.State())
	}
	if m.admit() {
		t.Fatal("admit = true before cooldown elapsed")
	}
	advance(m.inj, cooldownOps-1)
	if m.admit() {
		t.Fatal("admit = true one decision before the cooldown elapsed")
	}
	advance(m.inj, 1)
	if !m.admit() {
		t.Fatal("admit = false after cooldown: probe should have closed the breaker")
	}
	s := m.Stats()
	if m.State() != Closed || s.BreakerCloses != 1 || s.Probes != 1 {
		t.Fatalf("after successful probe: state=%v closes=%d probes=%d, want closed/1/1", m.State(), s.BreakerCloses, s.Probes)
	}
	if len(m.strikes) != 0 {
		t.Fatalf("strikes not cleared on close: %v", m.strikes)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	// region-fail=1 makes every probe fail: the breaker must re-open with a
	// fresh cooldown each time and never close.
	m := breakerManager(tickingPlan(1))
	trip(m)
	for round := 0; round < 3; round++ {
		advance(m.inj, cooldownOps)
		if m.admit() {
			t.Fatalf("round %d: admit = true under a dead device", round)
		}
		if m.State() != Open {
			t.Fatalf("round %d: state = %v after failed probe, want open", round, m.State())
		}
	}
	s := m.Stats()
	if s.Probes != 3 || s.ProbeFailures != 3 || s.BreakerCloses != 0 {
		t.Fatalf("probes=%d failures=%d closes=%d, want 3/3/0", s.Probes, s.ProbeFailures, s.BreakerCloses)
	}
}

func TestBreakerWindowPrunesStrikes(t *testing.T) {
	m := breakerManager(tickingPlan(0))
	m.strike()
	advance(m.inj, windowOps+1) // first strike ages out of the window
	for i := 0; i < breakerK-1; i++ {
		m.strike()
	}
	if m.State() != Closed {
		t.Fatalf("state = %v: stale strike counted toward the trip threshold", m.State())
	}
	m.strike() // breakerK strikes inside one window now
	if m.State() != Open {
		t.Fatalf("state = %v after %d in-window strikes, want open", m.State(), breakerK)
	}
}

func TestBreakerH1OnlySpanAccounting(t *testing.T) {
	clock := simclock.New()
	m := NewManager(nil, nil, fault.NewInjector(tickingPlan(0)), clock)
	trip(m)
	clock.ChargeAmbient(100) // 100ns of simulated H1-only time
	if got := m.Stats().H1OnlyTime; got != 100 {
		t.Fatalf("open-span H1OnlyTime = %v, want 100ns (live span included in snapshots)", got)
	}
	advance(m.inj, cooldownOps)
	if !m.admit() {
		t.Fatal("probe should close the breaker")
	}
	if got := m.Stats().H1OnlyTime; got != 100 {
		t.Fatalf("closed H1OnlyTime = %v, want 100ns", got)
	}
	clock.ChargeAmbient(50)
	if got := m.Stats().H1OnlyTime; got != 100 {
		t.Fatalf("H1OnlyTime grew while closed: %v", got)
	}
}

// TestRepairsMovesOnlyOnRepairs: Repairs moves when, and only when, a
// fault is recovered, a region is quarantined or the breaker trips. Every
// other counter, a scrub hit included, leaves it where it was.
func TestRepairsMovesOnlyOnRepairs(t *testing.T) {
	repairs := map[string]bool{"RecoveredFaults": true, "RegionsQuarantined": true, "BreakerTrips": true}
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type != reflect.TypeOf(int64(0)) {
			continue // H1OnlyTime and State are not counters
		}
		m := breakerManager(&fault.Plan{Seed: 1})
		before := m.Repairs()
		reflect.ValueOf(&m.stats).Elem().Field(i).SetInt(1)
		if moved := m.Repairs() != before; moved != repairs[f.Name] {
			t.Errorf("%s +1: Repairs moved = %v, want %v", f.Name, moved, repairs[f.Name])
		}
	}

	// The breaker's own transitions: strikes below the threshold and a
	// probe that closes it leave Repairs alone; each trip moves it by one.
	m := breakerManager(tickingPlan(0))
	for i := 0; i < breakerK-1; i++ {
		m.strike()
	}
	if got := m.Repairs(); got != 0 {
		t.Fatalf("Repairs = %d after %d strikes below the threshold, want 0", got, breakerK-1)
	}
	m.strike()
	if got := m.Repairs(); got != 1 {
		t.Fatalf("Repairs = %d after the trip, want 1", got)
	}
	advance(m.inj, cooldownOps)
	if !m.admit() || m.State() != Closed {
		t.Fatal("probe should close the breaker")
	}
	if got := m.Repairs(); got != 1 {
		t.Fatalf("Repairs = %d after the probe closed the breaker, want 1", got)
	}
	trip(m)
	if got := m.Repairs(); got != 2 {
		t.Fatalf("Repairs = %d after the second trip, want 2", got)
	}
}
