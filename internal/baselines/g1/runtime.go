package g1

import (
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// G1 implements rt.Runtime; the assertion lives in internal/rt, which
// imports this package.

// Classes returns the class table.
func (g *G1) Classes() *vm.ClassTable { return g.classes }

// Mem returns the object accessors.
func (g *G1) Mem() *vm.Mem { return g.mem }

// Clock returns the simulation clock.
func (g *G1) Clock() *simclock.Clock { return g.clock }

// Alloc allocates a fixed-layout instance.
func (g *G1) Alloc(c *vm.Class) (vm.Addr, error) {
	return g.allocObject(c, c.NumRefs, c.InstanceWords())
}

// AllocRefArray allocates a reference array.
func (g *G1) AllocRefArray(c *vm.Class, n int) (vm.Addr, error) {
	return g.allocObject(c, n, vm.HeaderWords+n)
}

// AllocPrimArray allocates a primitive array.
func (g *G1) AllocPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	return g.allocObject(c, 0, vm.HeaderWords+n)
}

// AllocCold is a plain allocation on G1 (no pretenuring).
func (g *G1) AllocCold(c *vm.Class) (vm.Addr, error) { return g.Alloc(c) }

// AllocColdRefArray is a plain reference-array allocation.
func (g *G1) AllocColdRefArray(c *vm.Class, n int) (vm.Addr, error) {
	return g.AllocRefArray(c, n)
}

// AllocColdPrimArray is a plain primitive-array allocation.
func (g *G1) AllocColdPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	return g.AllocPrimArray(c, n)
}

func (g *G1) allocObject(c *vm.Class, numRefs, sizeWords int) (vm.Addr, error) {
	a, err := g.allocWords(sizeWords)
	if err != nil {
		return vm.NullAddr, err
	}
	g.mem.InitObject(a, c, numRefs, sizeWords)
	g.stats.BytesAllocated += int64(sizeWords) * vm.WordSize
	g.stats.ObjectsAllocated++
	return a, nil
}

// WriteRef stores a reference with G1's post-write barrier, extended with
// the H2 reference range check when a second heap is attached.
func (g *G1) WriteRef(obj vm.Addr, field int, val vm.Addr) {
	g.clock.Charge(simclock.Other, simclock.BarrierCost)
	g.stats.BarrierExecutions++
	if g.th.Contains(obj) {
		g.mem.SetRefAt(obj, field, val)
		g.th.DirtyCard(obj)
		return
	}
	g.mem.SetRefAt(obj, field, val)
	if val.IsNull() {
		return
	}
	if r := g.regionOf(obj); r != nil && (r.kind == regOld || r.kind == regHumongousStart) {
		g.cards.MarkDirty(obj)
	}
}

// ReadRef loads a reference field.
func (g *G1) ReadRef(obj vm.Addr, field int) vm.Addr { return g.mem.RefAt(obj, field) }

// WritePrim stores a primitive word.
func (g *G1) WritePrim(obj vm.Addr, i int, v uint64) { g.mem.SetPrimAt(obj, i, v) }

// ReadPrim loads a primitive word.
func (g *G1) ReadPrim(obj vm.Addr, i int) uint64 { return g.mem.PrimAt(obj, i) }

// NewHandle roots a handle.
func (g *G1) NewHandle(a vm.Addr) *vm.Handle { return g.roots.Create(a) }

// Release unroots a handle.
func (g *G1) Release(h *vm.Handle) { g.roots.Release(h) }

// TagRoot applies h2_tag_root (a no-op without a second heap).
func (g *G1) TagRoot(h *vm.Handle, label uint64) {
	if g.th != nil {
		g.th.TagRoot(h, label)
	}
}

// MoveHint applies h2_move (a no-op without a second heap).
func (g *G1) MoveHint(label uint64) {
	if g.th != nil {
		g.th.Move(label)
	}
}

// InSecondHeap reports whether a resides in the attached second heap.
func (g *G1) InSecondHeap(a vm.Addr) bool { return g.th.Contains(a) }

// HeapUsed returns used and capacity bytes.
func (g *G1) HeapUsed() (int64, int64) { return g.usedBytes(), g.h1Size }

// FullGC forces a full collection.
func (g *G1) FullGC() error { return g.fullGC() }

// OOM returns the latched out-of-memory error.
func (g *G1) OOM() error {
	if g.oom != nil {
		return g.oom
	}
	return nil
}

// Hooks returns the collector's lifecycle-hook plane.
func (g *G1) Hooks() *gc.Hooks { return &g.hooks }

// GCStats returns collector statistics.
func (g *G1) GCStats() *gc.Stats { return &g.stats }

// Breakdown snapshots the execution-time breakdown.
func (g *G1) Breakdown() simclock.Breakdown { return g.clock.Breakdown() }
