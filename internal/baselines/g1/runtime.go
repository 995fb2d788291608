package g1

import (
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// G1 implements rt.Runtime; the assertion lives in internal/rt, which
// imports this package. The shared surface is gc.CollectedHeap's.

// allocObject is G1's gc.AllocFunc. G1 does no pretenuring, so the cold
// hint does not change where an object goes.
func (g *G1) allocObject(c *vm.Class, numRefs, sizeWords int, _ bool) (vm.Addr, error) {
	a, err := g.allocWords(sizeWords)
	if err != nil {
		return vm.NullAddr, err
	}
	g.InitAllocated(a, c, numRefs, sizeWords)
	return a, nil
}

// WriteRef stores a reference with G1's post-write barrier, extended with
// the H2 reference range check when a second heap is attached.
func (g *G1) WriteRef(obj vm.Addr, field int, val vm.Addr) {
	g.Clock().Charge(simclock.Other, simclock.BarrierCost)
	g.GCStats().BarrierExecutions++
	if g.TH.Contains(obj) {
		g.Mem().SetRefAt(obj, field, val)
		g.TH.DirtyCard(obj)
		return
	}
	g.Mem().SetRefAt(obj, field, val)
	if val.IsNull() {
		return
	}
	if r := g.regionOf(obj); r != nil && (r.kind == regOld || r.kind == regHumongousStart) {
		g.cards.MarkDirty(obj)
	}
}

// HeapUsed returns used and capacity bytes.
func (g *G1) HeapUsed() (int64, int64) { return g.usedBytes(), g.h1Size }
