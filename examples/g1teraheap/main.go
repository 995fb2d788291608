// g1teraheap demonstrates the §7.1 "TeraHeap can also be used with G1"
// integration: a Garbage-First heap with an attached second heap. A
// humongous object group is tagged and move-advised; the next marking
// cycle moves it — closure and all — to H2, freeing the contiguous
// humongous region run that would otherwise fragment G1 forever.
//
// Run with: go run ./examples/g1teraheap
package main

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func main() {
	clock := simclock.New()
	classes := teraClasses()
	thCfg := core.DefaultConfig(64 * storage.MB)
	thCfg.RegionSize = 32 * storage.KB
	ses := rt.NewSession(rt.Spec{Kind: rt.KindG1TH, H1Size: 2 * storage.MB, TH: &thCfg,
		Classes: classes, Clock: clock})
	g, th := ses.Runtime.(*g1.G1), ses.TH

	rs := g.RegionSize()
	_, h1Size := g.HeapUsed()
	fmt.Printf("G1 heap: %d regions of %d KB (humongous above %d KB)\n",
		h1Size/rs, rs/1024, rs/2/1024)

	// A humongous array: 1.5 G1 regions, immovable by G1 itself.
	parr := classes.ByName("long[]")
	humWords := int(rs/8) * 3 / 2
	big, err := g.AllocPrimArray(parr, humWords)
	check(err)
	h := g.NewHandle(big)
	for i := 0; i < humWords; i += 512 {
		g.WritePrim(big, i, uint64(i))
	}
	used0, _ := g.HeapUsed()
	fmt.Printf("humongous object allocated: %d KB, heap used %d KB\n",
		humWords*8/1024, used0/1024)

	// Tag, advise, and run a marking cycle: the object moves to H2 and
	// the humongous run is freed.
	g.TagRoot(h, 1)
	g.MoveHint(1)
	check(g.MarkingCycle())

	used1, _ := g.HeapUsed()
	fmt.Printf("after marking cycle: in H2? %v, heap used %d KB (freed %d KB)\n",
		g.InSecondHeap(h.Addr()), used1/1024, (used0-used1)/1024)
	fmt.Printf("H2 holds %d KB in %d region(s)\n",
		th.UsedBytes()/1024, th.ActiveRegions())

	// Direct access still works.
	if g.ReadPrim(h.Addr(), 512) != 512 {
		panic("data corrupted")
	}
	fmt.Println("H2-resident humongous data read back intact")

	// Release and reclaim in bulk.
	g.Release(h)
	check(g.MarkingCycle())
	fmt.Printf("after release: H2 used = %d bytes\n", th.UsedBytes())
	fmt.Printf("virtual time: %v\n", clock.Breakdown())
}

func teraClasses() *vm.ClassTable {
	classes := vm.NewClassTable()
	classes.MustPrimArray("long[]")
	return classes
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
