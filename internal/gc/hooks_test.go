package gc

import (
	"errors"
	"testing"
)

// recHook records the events it sees and optionally runs a side effect
// inside OnFault — the mutation-during-dispatch surface the recovery
// layer depends on.
type recHook struct {
	BaseHook
	name    string
	events  *[]string
	onFault func()
}

func (h *recHook) BeforeGC(p Phase) { *h.events = append(*h.events, h.name+":before") }
func (h *recHook) AfterGC(p Phase)  { *h.events = append(*h.events, h.name+":after") }
func (h *recHook) OnFault(error) {
	*h.events = append(*h.events, h.name+":fault")
	if h.onFault != nil {
		h.onFault()
	}
}

// TestHooksOrdering checks that registration order is invocation order
// for every event kind.
func TestHooksOrdering(t *testing.T) {
	var events []string
	hs := &Hooks{}
	hs.Register(&recHook{name: "v", events: &events})
	hs.Register(&recHook{name: "a", events: &events})
	hs.Register(&recHook{name: "b", events: &events})

	hs.BeforeGC(PhaseMinor)
	hs.OnFault(errors.New("x"))
	hs.AfterGC(PhaseMinor)

	want := []string{"v:before", "a:before", "b:before",
		"v:fault", "a:fault", "b:fault",
		"v:after", "a:after", "b:after"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events[%d] = %q, want %q (full: %v)", i, events[i], want[i], events)
		}
	}
}

// TestHooksRemove checks removal semantics: first match only, order
// preserved, and a miss reports false.
func TestHooksRemove(t *testing.T) {
	var events []string
	hs := &Hooks{}
	a := &recHook{name: "a", events: &events}
	b := &recHook{name: "b", events: &events}
	c := &recHook{name: "c", events: &events}
	hs.Register(a)
	hs.Register(b)
	hs.Register(c)

	if !hs.Remove(b) {
		t.Fatal("Remove(b) = false, want true")
	}
	if hs.Remove(b) {
		t.Fatal("second Remove(b) = true, want false")
	}
	if hs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", hs.Len())
	}
	hs.BeforeGC(PhaseMajor)
	if len(events) != 2 || events[0] != "a:before" || events[1] != "c:before" {
		t.Fatalf("after removal events = %v, want [a:before c:before]", events)
	}
}

// TestHookRegistersHookDuringDispatch: a hook registered from inside
// OnFault must not see the in-flight event, but must see the next one.
func TestHookRegistersHookDuringDispatch(t *testing.T) {
	var events []string
	hs := &Hooks{}
	late := &recHook{name: "late", events: &events}
	hs.Register(&recHook{name: "a", events: &events, onFault: func() {
		hs.Register(late)
	}})

	hs.OnFault(errors.New("x"))
	if len(events) != 1 || events[0] != "a:fault" {
		t.Fatalf("in-flight events = %v, want [a:fault]: hook registered during dispatch leaked into the current event", events)
	}
	events = events[:0]
	hs.OnFault(errors.New("y"))
	if len(events) != 2 || events[1] != "late:fault" {
		t.Fatalf("next-event fan-out = %v, want [a:fault late:fault]", events)
	}
}

// TestHookRemovesItselfDuringDispatch: self-removal inside OnFault (the
// recovery layer's Uninstall-from-callback path) must complete the
// in-flight event and drop the hook from subsequent ones.
func TestHookRemovesItselfDuringDispatch(t *testing.T) {
	var events []string
	hs := &Hooks{}
	var self *recHook
	self = &recHook{name: "self", events: &events, onFault: func() {
		if !hs.Remove(self) {
			t.Error("self-removal failed")
		}
	}}
	hs.Register(self)
	after := &recHook{name: "after", events: &events}
	hs.Register(after)

	hs.OnFault(errors.New("x"))
	if len(events) != 2 || events[0] != "self:fault" || events[1] != "after:fault" {
		t.Fatalf("in-flight events = %v, want [self:fault after:fault]: removal during dispatch perturbed the fan-out", events)
	}
	if hs.Len() != 1 {
		t.Fatalf("Len = %d after self-removal, want 1", hs.Len())
	}
	events = events[:0]
	hs.OnFault(errors.New("y"))
	if len(events) != 1 || events[0] != "after:fault" {
		t.Fatalf("next-event fan-out = %v, want [after:fault]", events)
	}
}

// TestHookRemovesLaterHookDuringDispatch: removing a not-yet-visited hook
// mid-dispatch must still deliver the in-flight event to it (the fan-out
// iterates the list as it stood when the event fired), while excluding it
// from subsequent events.
func TestHookRemovesLaterHookDuringDispatch(t *testing.T) {
	var events []string
	hs := &Hooks{}
	victim := &recHook{name: "victim", events: &events}
	hs.Register(&recHook{name: "a", events: &events, onFault: func() {
		hs.Remove(victim)
	}})
	hs.Register(victim)

	hs.OnFault(errors.New("x"))
	if len(events) != 2 || events[1] != "victim:fault" {
		t.Fatalf("in-flight events = %v, want [a:fault victim:fault]: COW removal must not hide the hook from the current event", events)
	}
	events = events[:0]
	hs.OnFault(errors.New("y"))
	if len(events) != 1 || events[0] != "a:fault" {
		t.Fatalf("next-event fan-out = %v, want [a:fault]", events)
	}
}
