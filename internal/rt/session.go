package rt

import (
	"fmt"
	"os"

	"github.com/carv-repro/teraheap-go/internal/check"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Kind selects a runtime configuration. The registry in kinds.go maps
// kinds to their names, labels, aliases, and builders;
// String/SparkLabel/KindByName and NewSession all read it.
type Kind int

// Runtime kinds: the paper's six configurations (§6 Table 2) plus the
// NG2C pretenuring and Deca lifetime-region runtimes.
const (
	KindPS       Kind = iota // native Parallel Scavenge JVM (Spark-SD, Giraph-OOC)
	KindTH                   // PS + TeraHeap
	KindG1                   // Garbage First baseline
	KindMO                   // PS over NVM memory mode (Spark-MO)
	KindPanthera             // DRAM+NVM split old generation
	KindG1TH                 // G1 with an attached TeraHeap (§7.1)
	KindNG2C                 // PS + TeraHeap + NG2C allocation-site pretenuring
	KindDeca                 // PS + Deca lifetime regions in DRAM
)

// Spec declares one run's runtime: which configuration to build, how to
// size it, and which cross-cutting layers to wire in. NewSession resolves
// a Spec into a Session; it is the single construction path for every
// runtime kind.
//
// All sizes are simulator bytes (experiment code converts paper GB with
// its Scale; see THSizing for the TeraHeap derivation).
type Spec struct {
	Kind Kind

	// H1Size is the managed heap size (for KindMO/KindPanthera, the whole
	// NVM-backed heap).
	H1Size int64
	// HeapCfg optionally overrides the PS heap geometry (Giraph runs
	// shrink the young generation); nil derives defaults from H1Size.
	HeapCfg *heap.Config

	// TH is the TeraHeap configuration; required for every kind whose
	// registry row has TeraHeap set.
	TH *core.Config

	// DeviceKind is the technology backing H2/off-heap; the zero value
	// (DRAM) defaults to NVMe SSD, the paper's base configuration (Deca,
	// whose lifetime regions live in memory, keeps DRAM).
	DeviceKind storage.Kind
	// Stripes stripes the device across N units (0/1 = one).
	Stripes int

	// DRAMCacheBytes sizes the hardware-managed DRAM cache in front of
	// the NVM heap (KindMO).
	DRAMCacheBytes int64
	// DRAMOldBytes is the DRAM share of the old generation (KindPanthera).
	DRAMOldBytes int64

	// Classes and Clock are shared when non-nil (microbenchmarks build
	// their class tables up front); nil builds fresh per-session ones.
	Classes *vm.ClassTable
	Clock   *simclock.Clock

	// Layers are the cross-cutting settings wired around the kind.
	Layers
}

// Layers are the cross-cutting per-run settings that apply to any runtime
// kind: verification, fault injection, and the gang and writeback cost
// knobs. Spec embeds them, and the experiment runners carry them as one
// value (the Ctx of a run and the Layers of an experiments.Env).
type Layers struct {
	// Verify registers the full-heap invariant verifier hook (the
	// TH_VERIFY=1 environment variable does the same for every session).
	Verify bool
	// FaultPlan, when non-nil, builds this run's fault injector and
	// attaches it to the device and runtime. The plan is shared immutable
	// configuration; each session builds its own injector from it, so
	// concurrent sessions never share fault state.
	FaultPlan *fault.Plan
	// GCWorkers sets the simulated GC gang size on PS-based kinds (PS, TH,
	// MO, Panthera, NG2C, Deca): each pause's work items are dealt
	// round-robin onto N per-worker spans and the pause charges
	// max-over-workers. 0 or 1 is a gang of one, the serial charge; above
	// one worker each barrier also pays a steal/sync overhead. G1-based
	// kinds model their own pause pipeline and ignore it.
	GCWorkers int
	// WritebackDepth enables the device's asynchronous writeback queue
	// with the given in-flight batch cap: H2 promotion buffers and
	// page-cache writeback submit to the queue and the residual service
	// time is charged when the queue drains at safepoints. 0 prices each
	// asynchronous write with the device's flat async-overlap discount
	// instead, the model every figure uses.
	WritebackDepth int
}

// Session is a fully wired runtime instance: the runtime itself plus the
// per-run resources it was built from. Every run is self-contained — its
// own clock, class table, device, injector, and hook registrations — so
// sessions with different Verify/FaultPlan settings execute concurrently
// without observing each other.
type Session struct {
	Spec    Spec
	Clock   *simclock.Clock
	Classes *vm.ClassTable
	Runtime Runtime
	// Device is the H2/off-heap device (always built: PS/G1 runs use it
	// for the off-heap shuffle/cache files).
	Device *storage.Device
	// TH is the second heap, or nil for kinds without one.
	TH *core.TeraHeap
	// Injector is the run's fault injector (nil when Spec.FaultPlan is).
	Injector *fault.Injector
	// Events is the stock lifecycle-event accounting hook, registered on
	// every session after the verifier (the verifier must observe the
	// heap first).
	Events *EventStats
	// Recovery is the self-healing layer, installed last on the hook
	// plane for PS-based sessions with a second heap (TH, NG2C, Deca);
	// nil otherwise.
	Recovery *recovery.Manager
	// Placement is the session's placement policy when the kind installs
	// a non-default one (NG2C, Deca); nil for legacy-placement kinds.
	Placement placement.Policy

	// verifier is the registered verifier hook, nil when verification is
	// off.
	verifier *verifyHook
}

// verifyHook runs the full-heap invariant verifier around every pause (the
// VerifyBeforeGC/VerifyAfterGC analog) and panics with a structured report
// on the first violation: the first stock hook of the plane.
type verifyHook struct {
	gc.BaseHook
	rt Runtime
}

func (h *verifyHook) BeforeGC(p gc.Phase) { h.verify("before ", p) }
func (h *verifyHook) AfterGC(p gc.Phase)  { h.verify("after ", p) }

func (h *verifyHook) verify(when string, p gc.Phase) {
	if failures := h.rt.VerifyNow(); len(failures) > 0 {
		panic(check.Report(when+p.String()+" GC", failures))
	}
}

// EventStats counts collector lifecycle events: the second stock hook of
// the plane (after the verifier). Counting is observation only — it never
// mutates the heap or charges simulated time.
type EventStats struct {
	gc.BaseHook
	MinorGCs int64
	MajorGCs int64
	MixedGCs int64
	Faults   int64
	OOMs     int64
}

// AfterGC counts the completed collection.
func (e *EventStats) AfterGC(p gc.Phase) {
	switch p {
	case gc.PhaseMinor:
		e.MinorGCs++
	case gc.PhaseMajor:
		e.MajorGCs++
	case gc.PhaseMixed:
		e.MixedGCs++
	}
}

// OnFault counts a latched persistent device failure.
func (e *EventStats) OnFault(error) { e.Faults++ }

// OnOOM counts a latched out-of-memory condition.
func (e *EventStats) OnOOM(error) { e.OOMs++ }

// writebackHook drains the device's asynchronous writeback queue at every
// safepoint. BeforeGC fires while the clock is still in mutator context,
// so the residual service time lands in Other: the mutator waits for its
// dirty data to reach the device before the pause begins.
type writebackHook struct {
	gc.BaseHook
	dev *storage.Device
}

func (w *writebackHook) BeforeGC(gc.Phase) { w.dev.DrainWriteback() }

// NewSession resolves spec into a wired runtime: the kind's registry row
// builds the runtime, then the cross-cutting layers are attached in a
// fixed order. It panics on an invalid spec (unknown kind, missing TH
// config), matching the constructors it wraps; experiment code validates
// sizes beforehand where it needs soft failure.
func NewSession(spec Spec) *Session {
	info := spec.Kind.Info()
	if info.build == nil {
		panic(fmt.Sprintf("rt: unknown runtime kind %d", int(spec.Kind)))
	}
	if info.TeraHeap && spec.TH == nil {
		panic(fmt.Sprintf("rt: Spec.TH is required for kind %s", info.Name))
	}
	s := &Session{Spec: spec, Clock: spec.Clock, Classes: spec.Classes}
	if s.Clock == nil {
		s.Clock = simclock.New()
	}
	if s.Classes == nil {
		s.Classes = vm.NewClassTable()
	}
	info.build(s)
	// Kinds whose runtime has no device still get one: PS and G1 runs use
	// it for the off-heap shuffle/cache files.
	dev := s.device(storage.NVMeSSD)

	// Gang size: cost attribution only, so it is set post-construction on
	// the PS collector. G1 kinds model their own pause pipeline and take
	// no gang.
	col, isPS := s.Runtime.(*gc.Collector)
	if isPS {
		col.Workers = spec.GCWorkers
	}

	// Cross-cutting layers ride the hook plane, in fixed order: the
	// verifier first (it must see the heap before any layer reacts),
	// event accounting second.
	if spec.Verify || os.Getenv("TH_VERIFY") == "1" {
		s.verifier = &verifyHook{rt: s.Runtime}
		s.Runtime.Hooks().Register(s.verifier)
	}
	s.Events = &EventStats{}
	s.Runtime.Hooks().Register(s.Events)

	// The writeback queue drains at safepoints: a hook charges the
	// residual service time as mutator (ambient) wait just before each
	// pause — the documented second exception to the hook plane's
	// "never charge simulated time" rule.
	if spec.WritebackDepth > 0 {
		dev.SetWritebackDepth(spec.WritebackDepth)
		s.Runtime.Hooks().Register(&writebackHook{dev: dev})
	}

	// One injector per run, attached to the device, the runtime and the
	// second heap: all fault decisions draw from a single monotonic
	// counter, which is what makes a faulty run reproducible from its seed.
	// Only the PS collector polls it; G1 reports through Fault alone.
	s.Injector = fault.NewInjector(spec.FaultPlan)
	dev.SetFaultInjector(s.Injector)
	s.Runtime.SetFaultInjector(s.Injector)
	if s.TH != nil {
		s.TH.SetFaultInjector(s.Injector)
	}

	// The recovery layer registers last, so the verifier and event counters
	// observe a fault before any repair runs. Salvage re-materializes into
	// the PS collector's old generation, so only sessions with both a PS
	// collector and a second heap get one.
	if isPS && s.TH != nil {
		s.Recovery = recovery.NewManager(col, s.TH, s.Injector, s.Clock)
		s.Recovery.Install()
	}
	return s
}

// device returns the session's H2/off-heap device, building it on first
// use: a Spec.DeviceKind device (def when DeviceKind is zero) striped
// across Spec.Stripes units.
func (s *Session) device(def storage.Kind) *storage.Device {
	if s.Device != nil {
		return s.Device
	}
	kind := s.Spec.DeviceKind
	if kind == storage.DRAM {
		kind = def
	}
	if s.Spec.Stripes > 1 {
		s.Device = storage.NewStripedDevice(kind, s.Spec.Stripes, s.Clock)
	} else {
		s.Device = storage.NewDevice(kind, s.Clock)
	}
	return s.Device
}

// PlacementStats returns a snapshot of the session's placement-policy
// counters, or nil for legacy-placement kinds.
func (s *Session) PlacementStats() *placement.Stats {
	if s.Placement == nil {
		return nil
	}
	st := s.Placement.Stats()
	return &st
}

// RecoveryStats returns a snapshot of the recovery layer's counters, or
// nil when the session has no recovery layer installed.
func (s *Session) RecoveryStats() *recovery.Stats {
	if s.Recovery == nil {
		return nil
	}
	st := s.Recovery.Stats()
	return &st
}

// Fault returns the run's persistent storage failure, or nil when the run
// is healthy: the runtime's Fault (gc.CollectedHeap.Fault).
func (s *Session) Fault() error { return s.Runtime.Fault() }
