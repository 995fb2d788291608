// Quickstart: build a TeraHeap-enabled managed runtime, allocate an
// object group behind a single-entry root, tag it with a label
// (h2_tag_root), advise the move (h2_move), and watch a major GC relocate
// the whole transitive closure to the storage-backed second heap — still
// directly readable, no serialization anywhere.
//
// Run with: go run ./examples/quickstart
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
	point := classes.MustFixed("Point", 1, 2) // next ref, x, y
	arr := classes.MustRefArray("Point[]")

	// An 8 MB H1 in DRAM, a 256 MB H2 over a simulated NVMe SSD.
	thCfg := core.DefaultConfig(256 * storage.MB)
	thCfg.RegionSize = 256 * storage.KB
	thCfg.CacheBytes = 2 * storage.MB
	ses := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 8 * storage.MB, TH: &thCfg,
		Classes: classes, Clock: clock})
	jvm := ses.Runtime

	// Build a partition-shaped object group: one root array holding 10k
	// Point objects.
	const n = 10_000
	root, err := jvm.AllocRefArray(arr, n)
	check(err)
	h := jvm.NewHandle(root)
	for i := 0; i < n; i++ {
		p, err := jvm.Alloc(point)
		check(err)
		jvm.WritePrim(p, 0, uint64(i))
		jvm.WritePrim(p, 1, uint64(i*i))
		jvm.WriteRef(h.Addr(), i, p)
	}
	fmt.Printf("built %d objects; root at %v (H2? %v)\n", n+1, h.Addr(), jvm.InSecondHeap(h.Addr()))

	// The hint-based interface: tag the root key-object, advise the move.
	jvm.TagRoot(h, 42)
	jvm.MoveHint(42)
	check(jvm.FullGC())

	fmt.Printf("after major GC: root at %v (H2? %v)\n", h.Addr(), jvm.InSecondHeap(h.Addr()))

	// Direct access — no deserialization. Reads fault H2 pages through the
	// simulated page cache and charge virtual I/O time.
	var sum uint64
	for i := 0; i < n; i++ {
		p := jvm.ReadRef(h.Addr(), i)
		sum += jvm.ReadPrim(p, 1)
	}
	fmt.Printf("sum of squares read straight from H2: %d\n", sum)

	st := ses.TH.Stats()
	fmt.Printf("objects moved to H2: %d (%d bytes), regions in use: %d\n",
		st.ObjectsMoved, st.BytesMoved, ses.TH.ActiveRegions())
	fmt.Printf("virtual time breakdown: %v\n", jvm.Breakdown())

	// Release the group: the next major GC reclaims its regions in bulk —
	// no H2 scan, no compaction on the device.
	jvm.Release(h)
	check(jvm.FullGC())
	fmt.Printf("after release: H2 used = %d bytes, regions reclaimed = %d\n",
		ses.TH.UsedBytes(), ses.TH.Stats().RegionsReclaimed)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
