// Package recovery is the self-healing layer over TeraHeap's H2: it turns
// latched persistent device failures from run-terminating events into
// survivable ones. Three mechanisms compose:
//
//   - Region quarantine + salvage. When a region's backing blocks fail
//     (fault.RegionFailure), the Manager — registered as a gc.Hooks layer —
//     wakes inside OnFault at a collector safepoint, re-materializes the
//     region's objects back into H1 through the §4 fallback direction,
//     repairs every reference holder (handle roots, H1 fields, H2 fields,
//     cards, dependency edges), retires the region permanently, and
//     absorbs the fault so the run continues. Objects the device lost
//     (checksum-excluded spans) are tombstoned and accounted, never
//     silently dropped or returned as wrong answers.
//
//   - H2 circuit breaker. Each salvage is a strike; K strikes inside a
//     failure window trip the breaker to Open, holding H2 closed: every
//     PrepareMove routes to the H1 path. After a cooldown the breaker
//     half-opens and probes the device. Windows, cooldowns, and probes are
//     priced through the injector's op counter — no wall clock — so the
//     breaker's trajectory is a pure function of the run.
//
//   - Checksum scrubbing. AfterGC, the Manager asks core to recompute a
//     few region checksums against their device images; a mismatch (a
//     write the device acked but dropped) becomes a quarantine instead of
//     a latent wrong answer.
//
// The layer is inert by construction on fault-free runs: the breaker's
// Closed fast path does no work, OnFault never fires, and the scrub uses
// the costless peek path — a run with recovery installed and no faults is
// byte-identical to one without.
package recovery

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// State is the circuit breaker's position.
type State int

// Breaker states: Closed admits promotions to H2, Open routes everything
// to H1, HalfOpen is the transient probing position between them.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The recovery layer's policy. Every run uses the same one.
const (
	// breakerK strikes inside windowOps trip the breaker.
	breakerK = 3
	// windowOps is the failure window, in injector decisions.
	windowOps = 200000
	// cooldownOps is how many injector decisions the breaker stays Open
	// before a half-open probe.
	cooldownOps = 50000
	// scrubRegionsPerGC bounds the opportunistic checksum scrub per pause.
	scrubRegionsPerGC = 1
)

// Stats counts the recovery layer's activity for one run.
type Stats struct {
	RecoveredFaults    int64 // latched faults absorbed (run continued)
	RegionsQuarantined int64 // regions salvaged and retired
	SalvagedObjects    int64
	SalvagedBytes      int64
	TombstonedObjects  int64 // unreadable objects nulled out, never dropped silently
	TombstonedBytes    int64
	RewrittenH2Refs    int64 // H2-held fields repointed during salvage
	CorruptDetected    int64 // scrub-detected checksum mismatches
	RegionsScrubbed    int64
	Strikes            int64
	BreakerTrips       int64 // Closed→Open transitions
	BreakerCloses      int64 // probe-success re-admissions
	Probes             int64
	ProbeFailures      int64
	BreakerRejects     int64         // PrepareMoves routed to H1 while not Closed
	H1OnlyTime         time.Duration // simulated time spent with H2 closed
	State              State         // breaker position at snapshot time
}

// Active reports whether the layer did any recovery work (as opposed to
// sitting installed and idle on a healthy run).
func (s Stats) Active() bool {
	return s.RecoveredFaults > 0 || s.RegionsQuarantined > 0 ||
		s.CorruptDetected > 0 || s.BreakerTrips > 0
}

// String summarizes the recovery activity in one compact line.
func (s Stats) String() string {
	return fmt.Sprintf("quarantined=%d salvaged=%d/%dB tombstoned=%d/%dB scrubhits=%d trips=%d closes=%d h1only=%v breaker=%s",
		s.RegionsQuarantined, s.SalvagedObjects, s.SalvagedBytes,
		s.TombstonedObjects, s.TombstonedBytes, s.CorruptDetected,
		s.BreakerTrips, s.BreakerCloses, s.H1OnlyTime, s.State)
}

// Manager is the recovery layer for one run: a gc.Hook whose OnFault
// performs quarantine-and-salvage and whose AfterGC drives the scrubber
// and the breaker's half-open probes. One Manager per session; like the
// collector it serves, it is not safe for concurrent use.
type Manager struct {
	gc.BaseHook
	col   *gc.Collector
	th    *core.TeraHeap
	inj   *fault.Injector
	clock *simclock.Clock

	state     State
	openedOps int64         // injector op count at the Closed→Open trip
	openedAt  time.Duration // simulated time at the Closed→Open trip
	strikes   []int64       // op indices of recent strikes (window pruned)

	inRecovery bool // reentrancy guard: salvage can reach pollFault paths

	stats Stats
}

// NewManager builds the layer over one collector/TeraHeap pair. The
// injector may be nil (fault-free run: the layer stays idle; probes
// trivially succeed). Call Install to wire it in.
func NewManager(col *gc.Collector, th *core.TeraHeap, inj *fault.Injector, clock *simclock.Clock) *Manager {
	return &Manager{col: col, th: th, inj: inj, clock: clock}
}

// Install registers the Manager on the collector's hook plane — after the
// verifier, so the verifier observes the faulted heap before any repair —
// and installs the breaker's PrepareMove admission gate.
func (m *Manager) Install() {
	m.col.Hooks().Register(m)
	m.th.SetAdmission(m.admit)
}

// State returns the breaker's position.
func (m *Manager) State() State { return m.state }

// Repairs counts the repairs so far: recovered faults, quarantined
// regions and breaker trips. Each of the three only grows, so the sum
// changes exactly when one of them does; a scrub hit alone does not move
// it. It is the one counter a request boundary reads.
func (m *Manager) Repairs() int64 {
	return m.stats.RecoveredFaults + m.stats.RegionsQuarantined + m.stats.BreakerTrips
}

// Stats returns a snapshot of the recovery counters. An in-progress
// H1-only span is included in H1OnlyTime up to the snapshot instant.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.State = m.state
	if m.state != Closed {
		s.H1OnlyTime += m.clock.Now() - m.openedAt
	}
	return s
}

// OnFault fires when the collector latches a FaultError at a safepoint:
// promotion buffers are flushed and the heap is parse-consistent, so this
// is the one place a repair is sound. If every failed region salvages
// cleanly the fault is absorbed and the run continues; otherwise (H1 lacks
// the capacity to take the survivors) the fault stays latched and the run
// ends Faulted, exactly as before this layer existed.
func (m *Manager) OnFault(err error) {
	fe, ok := err.(*gc.FaultError)
	if !ok || m.inRecovery {
		return
	}
	m.inRecovery = true
	defer func() { m.inRecovery = false }()
	m.recover(fe)
}

func (m *Manager) recover(_ *gc.FaultError) {
	recovered := true
	// Salvage every failed region, not just the one the latch names: the
	// latch is a wake-up signal, and several regions can fail inside one
	// GC cycle.
	for _, id := range m.th.FailedRegions() {
		if m.salvageRegion(id) {
			m.strike()
		} else {
			recovered = false
		}
	}
	if !recovered {
		return // leave the fault latched: honest degradation
	}
	m.inj.ClearRegionFault()
	if m.inj.Failure() != nil {
		// Whole-device persistent failure (a read/write exhausted its
		// retry budget somewhere we cannot isolate to a region). There is
		// nothing to salvage — the data is intact — but continuing to
		// drive a device in this state is what the breaker exists to stop:
		// strike it, unlatch, and let the breaker route traffic to H1.
		m.strike()
		m.inj.ClearFailure()
	}
	m.stats.RecoveredFaults++
	m.col.AbsorbFault()
}

// salvageRegion re-materializes region id's objects into H1's old
// generation and retires the region. Returns false — leaving the region
// failed and the fault latched — when H1 cannot hold the survivors.
func (m *Manager) salvageRegion(id int) bool {
	objs := m.th.SalvageObjects(id)

	// Capacity pre-check: salvage runs at a safepoint where triggering a
	// nested GC would be unsound, so the survivors must fit as-is.
	var needWords int64
	for _, o := range objs {
		if !o.Unreadable {
			needWords += int64(o.SizeWords)
		}
	}
	if m.col.H1.Old.Free() < needWords*vm.WordSize {
		return false
	}

	// Pass 1: copy survivors out (charged device reads through the normal
	// mapped path), tombstone the unreadable.
	remap := make(map[vm.Addr]vm.Addr, len(objs))
	dsts := make([]vm.Addr, 0, len(objs))
	for _, o := range objs {
		if o.Unreadable {
			remap[o.Addr] = vm.NullAddr
			m.stats.TombstonedObjects++
			m.stats.TombstonedBytes += int64(o.SizeWords) * vm.WordSize
			continue
		}
		dst, ok := m.col.SalvageAllocOld(o.SizeWords)
		if !ok {
			// The pre-check passed but the space is fragmented short; undo
			// nothing (copied objects are plain old-gen allocations the
			// next major GC treats as garbage if unreferenced) and report
			// salvage failure.
			return false
		}
		m.col.Mem().CopyObject(dst, o.Addr, o.SizeWords)
		remap[o.Addr] = dst
		dsts = append(dsts, dst)
		m.stats.SalvagedObjects++
		m.stats.SalvagedBytes += int64(o.SizeWords) * vm.WordSize
	}

	lookup := func(a vm.Addr) (vm.Addr, bool) {
		nt, ok := remap[a]
		return nt, ok
	}

	// Pass 2: repair every reference holder. Handle roots first, then
	// every H1 space (Old's walk covers the fresh dsts too, fixing
	// intra-region references), then healthy H2 regions (which also drops
	// their dependency edges to the dead region).
	m.col.Roots.ForEach(func(h *vm.Handle) {
		if nt, ok := remap[h.Addr()]; ok {
			h.Set(nt)
		}
	})
	for _, sp := range []*vm.Space{m.col.H1.Eden, m.col.H1.From, m.col.H1.Old} {
		sp.Walk(m.col.Mem(), func(a vm.Addr) {
			n := m.col.Mem().NumRefs(a)
			for i := 0; i < n; i++ {
				if nt, ok := remap[m.col.Mem().RefAt(a, i)]; ok {
					m.col.Mem().SetRefAt(a, i, nt)
				}
			}
		})
	}
	m.stats.RewrittenH2Refs += int64(m.th.RewriteH2Refs(id, lookup))

	// Pass 3: card states. A salvaged object that references young H1
	// objects now holds an old→young reference H2's card plane no longer
	// tracks; dirty its H1 card so the next minor scan finds it.
	for _, dst := range dsts {
		n := m.col.Mem().NumRefs(dst)
		for i := 0; i < n; i++ {
			if t := m.col.Mem().RefAt(dst, i); !t.IsNull() && m.col.H1.InYoung(t) {
				m.col.H1.Cards.MarkDirty(dst)
				break
			}
		}
	}

	m.th.RetireRegion(id)
	m.stats.RegionsQuarantined++

	if failures := m.col.VerifyNow(); len(failures) > 0 {
		panic(check.Report("after salvage", failures))
	}
	return true
}

// strike records one persistent failure at the injector's current op
// index, prunes strikes outside the window, and trips the breaker when the
// threshold is met.
func (m *Manager) strike() {
	m.stats.Strikes++
	now := m.inj.Ops()
	kept := m.strikes[:0]
	for _, s := range m.strikes {
		if now-s <= windowOps {
			kept = append(kept, s)
		}
	}
	m.strikes = append(kept, now)
	if m.state == Closed && len(m.strikes) >= breakerK {
		m.state = Open
		m.openedOps = now
		m.openedAt = m.clock.Now()
		m.stats.BreakerTrips++
	}
}

// admit is the PrepareMove admission gate. Closed admits (the fault-free
// fast path: two loads, no decisions). Open rejects until the cooldown —
// measured in injector decisions — elapses, then half-opens and probes.
func (m *Manager) admit() bool {
	if m.state == Closed {
		return true
	}
	if m.inj.Ops()-m.openedOps < cooldownOps {
		m.stats.BreakerRejects++
		return false
	}
	if m.probe() {
		return true
	}
	m.stats.BreakerRejects++
	return false
}

// probe runs one half-open probe: on success the breaker closes (H2
// re-admitted, the H1-only span accounted); on failure it re-opens with a
// fresh cooldown, keeping the original openedAt so H1OnlyTime spans the
// whole outage.
func (m *Manager) probe() bool {
	m.state = HalfOpen
	m.stats.Probes++
	if m.inj.Probe() {
		m.state = Closed
		m.stats.BreakerCloses++
		m.stats.H1OnlyTime += m.clock.Now() - m.openedAt
		m.strikes = m.strikes[:0]
		return true
	}
	m.stats.ProbeFailures++
	m.state = Open
	m.openedOps = m.inj.Ops()
	return false
}

// AfterGC drives the opportunistic scrubber, salvages any failed region
// still awaiting quarantine, and gives an Open breaker a chance to probe
// even when no promotion traffic is arriving (an H1-only workload would
// otherwise never re-admit H2). It fires at the same safepoints pollFault
// does — promotion buffers flushed, heap parse-consistent.
func (m *Manager) AfterGC(gc.Phase) {
	if m.inRecovery {
		return
	}
	corrupt, scanned := m.th.ScrubStep(scrubRegionsPerGC)
	m.stats.RegionsScrubbed += int64(scanned)
	m.stats.CorruptDetected += int64(len(corrupt))
	// Salvage every failed region not yet retired: fresh scrub hits, and
	// regions an earlier pass could not place (retried now that this GC
	// may have freed H1 space). A region that still cannot salvage stays
	// failed — exempt from reclamation, never silently dropped.
	for _, id := range m.th.FailedRegions() {
		m.inRecovery = true
		ok := m.salvageRegion(id)
		m.inRecovery = false
		if ok {
			m.strike()
		}
	}
	if m.state == Open && m.inj.Ops()-m.openedOps >= cooldownOps {
		m.probe()
	}
}
