package gc

// Collector lifecycle hooks: the one extension point for cross-cutting
// layers (invariant verification, fault/event accounting, tracing, memory
// profiling). Both collectors — Parallel Scavenge here and the G1 baseline
// in internal/baselines/g1 — fire the same events, so a layer registers
// one Hook and observes every runtime kind without editing any collector.
//
// Hooks observe; they must not mutate the heap, allocate in it, or charge
// simulated time, so a run's results are byte-identical with any set of
// hooks registered. (The verifier hook that rt.NewSession registers
// enforces its findings by panicking with a structured report, which is an
// abort, not a mutation.) Two sanctioned exceptions exist. The recovery layer (internal/recovery):
// its OnFault fires only at collector safepoints and only after a fault
// has already perturbed the run, so the byte-identity contract — which is
// quantified over fault-free runs — is preserved. And the writeback drain
// hook (internal/rt): its BeforeGC charges the device writeback queue's
// residual service time as mutator wait, which is exactly the queue's
// purpose; the hook only exists on sessions that opted into the queue, so
// default-configuration runs stay byte-identical.

// Phase identifies the collection type a lifecycle event belongs to.
type Phase int

// Collection phases. PS maps minor→PhaseMinor and major→PhaseMajor; G1
// maps young→PhaseMinor, concurrent-mark+mixed→PhaseMixed, and full
// compaction→PhaseMajor.
const (
	PhaseMinor Phase = iota
	PhaseMajor
	PhaseMixed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMinor:
		return "minor"
	case PhaseMajor:
		return "major"
	case PhaseMixed:
		return "mixed"
	}
	return "unknown"
}

// Hook observes collector lifecycle events.
type Hook interface {
	// BeforeGC fires at the start of a collection pause, before any object
	// moves; AfterGC fires after the pause's bookkeeping completes.
	BeforeGC(p Phase)
	AfterGC(p Phase)
	// OnFault fires once, when a persistent device failure latches on the
	// collector.
	OnFault(err error)
	// OnOOM fires once, when an out-of-memory condition latches.
	OnOOM(err error)
}

// BaseHook is a no-op Hook for embedding: implementations override only
// the events they care about.
type BaseHook struct{}

// BeforeGC is a no-op.
func (BaseHook) BeforeGC(Phase) {}

// AfterGC is a no-op.
func (BaseHook) AfterGC(Phase) {}

// OnFault is a no-op.
func (BaseHook) OnFault(error) {}

// OnOOM is a no-op.
func (BaseHook) OnOOM(error) {}

// Hooks is an ordered hook list; registration order is invocation order.
// The zero value is an empty, usable list. Like the collector itself it is
// not safe for concurrent mutation: a run is single-threaded by
// construction.
//
// Mutation during dispatch is allowed: each fan-out iterates the list as
// registered when the event fired, so a hook that registers, removes, or
// removes *itself* from inside a callback never perturbs the in-flight
// event — a hook added during dispatch first sees the next event, and a
// hook removed during dispatch still sees the current one. The recovery
// layer relies on this to retire itself from inside OnFault.
type Hooks struct {
	list []Hook
}

// Register appends h to the list.
func (hs *Hooks) Register(h Hook) {
	hs.list = append(hs.list, h)
}

// Remove deletes the first registered hook equal to h, preserving order.
// It reports whether a hook was removed. The removal is copy-on-write so
// an in-flight fan-out (which holds the old slice header) is never
// perturbed — required for hooks that remove themselves from inside a
// callback.
func (hs *Hooks) Remove(h Hook) bool {
	for i, x := range hs.list {
		if x == h {
			next := make([]Hook, 0, len(hs.list)-1)
			next = append(next, hs.list[:i]...)
			next = append(next, hs.list[i+1:]...)
			hs.list = next
			return true
		}
	}
	return false
}

// Len returns the number of registered hooks.
func (hs *Hooks) Len() int { return len(hs.list) }

// BeforeGC fans the event out in registration order.
func (hs *Hooks) BeforeGC(p Phase) {
	for _, h := range hs.list {
		h.BeforeGC(p)
	}
}

// AfterGC fans the event out in registration order.
func (hs *Hooks) AfterGC(p Phase) {
	for _, h := range hs.list {
		h.AfterGC(p)
	}
}

// OnFault fans the event out in registration order.
func (hs *Hooks) OnFault(err error) {
	for _, h := range hs.list {
		h.OnFault(err)
	}
}

// OnOOM fans the event out in registration order.
func (hs *Hooks) OnOOM(err error) {
	for _, h := range hs.list {
		h.OnOOM(err)
	}
}
