// gctour is a guided tour of the collector internals: it provokes minor
// collections, tenuring, a major collection, TeraHeap's high/low threshold
// mechanism, and region reclamation, narrating the heap state after each
// step. Useful for understanding how the pieces of §3 and §4 interact.
//
// Run with: go run ./examples/gctour
package main

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func main() {
	clock := simclock.New()
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 1, 1)
	arr := classes.MustRefArray("Object[]")

	thCfg := core.DefaultConfig(32 * storage.MB)
	thCfg.RegionSize = 64 * storage.KB
	thCfg.HighThreshold = 0.60
	thCfg.LowThreshold = 0.40
	ses := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 1 * storage.MB, TH: &thCfg,
		Classes: classes, Clock: clock})
	jvm := ses.Runtime

	state := func(step string) {
		st := jvm.GCStats()
		ths := ses.TH.Stats()
		used, capacity := jvm.HeapUsed()
		fmt.Printf("%-34s H1=%5.0fKB (%.0f%%) | minors=%d majors=%d | H2=%5.0fKB moved=%d trips=%d\n",
			step, float64(used)/1024, 100*float64(used)/float64(capacity), st.MinorCount, st.MajorCount,
			float64(ses.TH.UsedBytes())/1024, ths.ObjectsMoved, ths.HighThresholdTrips)
	}

	state("start")

	// 1. Fill eden with short-lived garbage: minor GCs reclaim it all.
	for i := 0; i < 30_000; i++ {
		if _, err := jvm.Alloc(node); err != nil {
			panic(err)
		}
	}
	state("after 30k short-lived allocs")

	// 2. Build a long-lived group: survivors age, then tenure to old gen.
	root, _ := jvm.AllocRefArray(arr, 4000)
	h := jvm.NewHandle(root)
	for i := 0; i < 4000; i++ {
		a, err := jvm.Alloc(node)
		if err != nil {
			panic(err)
		}
		jvm.WritePrim(a, 0, uint64(i))
		jvm.WriteRef(h.Addr(), i, a)
	}
	for i := 0; i < 20_000; i++ { // churn to drive tenuring
		if _, err := jvm.Alloc(node); err != nil {
			panic(err)
		}
	}
	state("after building 4k-node group")

	// 3. Tag the group. No hint yet: nothing moves without pressure.
	jvm.TagRoot(h, 1)
	if err := jvm.FullGC(); err != nil {
		panic(err)
	}
	state("tagged, major GC, no hint")

	// 4. Pile on pressure: the high threshold forces the move (bounded by
	// the low threshold), even though h2_move was never called.
	var pressure []*vm.Handle
	for p := 0; p < 6; p++ {
		r, err := jvm.AllocRefArray(arr, 2000)
		if err != nil {
			panic(err)
		}
		ph := jvm.NewHandle(r)
		jvm.TagRoot(ph, uint64(2+p))
		for i := 0; i < 2000; i++ {
			a, err := jvm.Alloc(node)
			if err != nil {
				panic(err)
			}
			jvm.WriteRef(ph.Addr(), i, a)
		}
		pressure = append(pressure, ph)
	}
	state("under pressure (high threshold)")
	fmt.Printf("    root now in H2? %v (address %v)\n", jvm.InSecondHeap(h.Addr()), h.Addr())

	// 5. Now use the hint interface properly for the rest.
	for p, ph := range pressure {
		jvm.MoveHint(uint64(2 + p))
		_ = ph
	}
	if err := jvm.FullGC(); err != nil {
		panic(err)
	}
	state("after h2_move hints + major GC")

	// 6. Drop everything: regions are reclaimed in bulk, no H2 scans.
	jvm.Release(h)
	for _, ph := range pressure {
		jvm.Release(ph)
	}
	if err := jvm.FullGC(); err != nil {
		panic(err)
	}
	state("after release + major GC")
	fmt.Printf("    regions reclaimed in bulk: %d\n", ses.TH.Stats().RegionsReclaimed)
	fmt.Printf("\nvirtual time: %v\n", clock.Breakdown())
}
