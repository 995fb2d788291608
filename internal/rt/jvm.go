package rt

import (
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// JVM is the Parallel Scavenge-based runtime: the native JVM, TeraHeap
// and its placement-policy variants, and the Spark-MO and Panthera
// baselines. The kind registry's builders (kinds.go) construct it.
type JVM struct {
	clock     *simclock.Clock
	classes   *vm.ClassTable
	collector *gc.Collector
	th        *core.TeraHeap
	pretenure bool
}

var _ Runtime = (*JVM)(nil)

// Classes returns the class table.
func (j *JVM) Classes() *vm.ClassTable { return j.classes }

// Mem returns the object accessors.
func (j *JVM) Mem() *vm.Mem { return j.collector.Mem }

// Clock returns the simulation clock.
func (j *JVM) Clock() *simclock.Clock { return j.clock }

// Collector exposes the underlying collector (experiments, tests).
func (j *JVM) Collector() *gc.Collector { return j.collector }

// SetPlacementPolicy installs a placement policy on the collector and,
// when TeraHeap is attached, on its H2 movement decisions. Must be
// called before any allocation.
func (j *JVM) SetPlacementPolicy(p placement.Policy) {
	j.collector.SetPlacementPolicy(p)
	if j.th != nil {
		j.th.SetPlacementPolicy(p)
	}
}

// SetVerify toggles before/after-collection heap verification.
func (j *JVM) SetVerify(v bool) { j.collector.SetVerify(v) }

// Hooks exposes the collector's lifecycle-hook plane.
func (j *JVM) Hooks() *gc.Hooks { return j.collector.Hooks() }

// VerifyEnabled reports whether the verifier hook is registered.
func (j *JVM) VerifyEnabled() bool { return j.collector.VerifyEnabled() }

// SetFaultInjector attaches the run's fault injector to the collector and
// the H2 allocator (NewSession attaches it to the device). One injector
// per run: all fault decisions draw from a single monotonic counter, which
// is what makes a faulty run reproducible from its seed.
func (j *JVM) SetFaultInjector(in *fault.Injector) {
	j.collector.SetFaultInjector(in)
	if j.th != nil {
		j.th.SetFaultInjector(in)
	}
}

// Fault returns the latched persistent storage fault (nil-safe for
// interface use), mirroring OOM.
func (j *JVM) Fault() error {
	if e := j.collector.Fault(); e != nil {
		return e
	}
	return nil
}

// TeraHeap returns the H2 instance, or nil.
func (j *JVM) TeraHeap() *core.TeraHeap { return j.th }

// Alloc allocates a fixed-layout instance.
func (j *JVM) Alloc(c *vm.Class) (vm.Addr, error) { return j.collector.Alloc(c) }

// AllocRefArray allocates a reference array of n elements.
func (j *JVM) AllocRefArray(c *vm.Class, n int) (vm.Addr, error) {
	return j.collector.AllocRefArray(c, n)
}

// AllocPrimArray allocates a primitive array of n words.
func (j *JVM) AllocPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	return j.collector.AllocPrimArray(c, n)
}

// AllocCold allocates long-lived framework data (pretenured on Panthera;
// otherwise the cold bit reaches the placement policy's alloc decision).
func (j *JVM) AllocCold(c *vm.Class) (vm.Addr, error) {
	if j.pretenure {
		return j.collector.AllocPretenured(c, c.NumRefs, c.InstanceWords())
	}
	return j.collector.AllocCold(c)
}

// AllocColdRefArray allocates a long-lived reference array.
func (j *JVM) AllocColdRefArray(c *vm.Class, n int) (vm.Addr, error) {
	if j.pretenure {
		return j.collector.AllocPretenured(c, n, vm.HeaderWords+n)
	}
	return j.collector.AllocColdRefArray(c, n)
}

// AllocColdPrimArray allocates a long-lived primitive array.
func (j *JVM) AllocColdPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	if j.pretenure {
		return j.collector.AllocPretenured(c, 0, vm.HeaderWords+n)
	}
	return j.collector.AllocColdPrimArray(c, n)
}

// WriteRef stores a reference field through the post-write barrier.
func (j *JVM) WriteRef(obj vm.Addr, field int, val vm.Addr) { j.collector.WriteRef(obj, field, val) }

// ReadRef loads a reference field.
func (j *JVM) ReadRef(obj vm.Addr, field int) vm.Addr { return j.collector.ReadRef(obj, field) }

// WritePrim stores a primitive word.
func (j *JVM) WritePrim(obj vm.Addr, i int, v uint64) { j.collector.WritePrim(obj, i, v) }

// ReadPrim loads a primitive word.
func (j *JVM) ReadPrim(obj vm.Addr, i int) uint64 { return j.collector.ReadPrim(obj, i) }

// NewHandle roots a handle.
func (j *JVM) NewHandle(a vm.Addr) *vm.Handle { return j.collector.NewHandle(a) }

// Release unroots a handle.
func (j *JVM) Release(h *vm.Handle) { j.collector.Release(h) }

// TagRoot applies h2_tag_root (no-op without TeraHeap).
func (j *JVM) TagRoot(h *vm.Handle, label uint64) {
	if j.th != nil {
		j.th.TagRoot(h, label)
	}
}

// MoveHint applies h2_move (no-op without TeraHeap).
func (j *JVM) MoveHint(label uint64) {
	if j.th != nil {
		j.th.Move(label)
	}
}

// InSecondHeap reports whether a is in H2.
func (j *JVM) InSecondHeap(a vm.Addr) bool { return j.th != nil && j.th.Contains(a) }

// HeapUsed returns H1 usage and capacity.
func (j *JVM) HeapUsed() (int64, int64) {
	return j.collector.H1.Used(), j.collector.H1.Cfg.H1Size
}

// FullGC forces a major collection.
func (j *JVM) FullGC() error { return j.collector.MajorGC() }

// OOM returns the latched out-of-memory error (nil-safe for interface use).
func (j *JVM) OOM() error {
	if e := j.collector.OOM(); e != nil {
		return e
	}
	return nil
}

// GCStats returns collector statistics.
func (j *JVM) GCStats() *gc.Stats { return j.collector.Stats() }

// Breakdown snapshots the execution-time breakdown.
func (j *JVM) Breakdown() simclock.Breakdown { return j.clock.Breakdown() }
