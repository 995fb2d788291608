// Package perf holds the simulator's hot-loop microbenchmarks: host
// ns/op and allocs/op of the page cache, root set, scavenge, card scan,
// writeback queue, word access, object copy, major-GC, Giraph CDLP
// label-mode and Zipf key-draw paths, with the steady-state allocation
// counts pinned by TestMicroAllocPins.
// Run them with `go test -run '^$' -bench . ./internal/perf/`. End-to-end
// and per-layer host performance is measured by the benchmark/ module.
package perf

import (
	"os"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Micro is one hot-loop microbenchmark: Setup builds the scenario once
// and returns the steady-state operation. The op must be safe to call
// any number of times (AllocsPerRun and testing.Benchmark both drive it).
type Micro struct {
	Name  string
	Setup func() func()
}

// Micros returns the hot-loop microbenchmarks in stable order. The
// scavenge and card-scan entries are zero-alloc pins; their ops include
// the stats-history reset so the measured loop is pure steady state.
func Micros() []Micro {
	return []Micro{
		{Name: "pagecache_touch_hit", Setup: setupPageCacheHit},
		{Name: "pagecache_touch_miss_evict", Setup: setupPageCacheMiss},
		{Name: "pagecache_invalidate", Setup: setupPageCacheInvalidate},
		{Name: "h2_touch_run", Setup: setupTouchRun},
		{Name: "rootset_create_release", Setup: setupRootSet},
		{Name: "minor_gc_scavenge", Setup: setupScavenge},
		{Name: "minor_gc_scavenge_gang4", Setup: setupScavengeGang4},
		{Name: "minor_gc_scavenge_ng2c", Setup: setupScavengeNG2C},
		{Name: "card_table_scan", Setup: setupCardScan},
		{Name: "writeback_submit_drain", Setup: setupWriteback},
		{Name: "vm_load_h1", Setup: setupLoadH1},
		{Name: "vm_load_h2", Setup: setupLoadH2},
		{Name: "prim_run_h2", Setup: setupPrimRunH2},
		{Name: "copy_object", Setup: setupCopyObject},
		{Name: "major_adjust_lookup", Setup: setupAdjustLookup},
		{Name: "major_gc_full", Setup: setupMajorGC},
		{Name: "giraph_cdlp_compute", Setup: setupCDLPCompute},
		{Name: "zipf_draw", Setup: setupZipfDraw},
	}
}

// setupPageCacheHit: a warm cache touched round-robin, every access a hit.
func setupPageCacheHit() func() {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	c := storage.NewPageCache(dev, storage.DefaultPageSize, 64)
	for p := int64(0); p < 64; p++ {
		c.Touch(p, false)
	}
	i := int64(0)
	return func() {
		c.Touch(i&63, false)
		i++
	}
}

// setupPageCacheMiss: a 32-page cache walked over 64 pages, so every
// access misses, inserts, and evicts the LRU page.
func setupPageCacheMiss() func() {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	c := storage.NewPageCache(dev, storage.DefaultPageSize, 32)
	for p := int64(0); p < 64; p++ { // pre-grow the slot table
		c.Touch(p, false)
	}
	i := int64(0)
	return func() {
		c.Touch(i&63, false)
		i += 33 // stride coprime to 64, always outside the resident window
	}
}

// setupPageCacheInvalidate: touch a run of pages, then invalidate it.
func setupPageCacheInvalidate() func() {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	c := storage.NewPageCache(dev, storage.DefaultPageSize, 64)
	return func() {
		for p := int64(0); p < 8; p++ {
			c.Touch(p, true)
		}
		c.InvalidateRange(0, 7)
	}
}

// setupTouchRun: a warm cache where each op is one 64-touch run on a
// resident page, the page-cache step of an H2 object read.
func setupTouchRun() func() {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	c := storage.NewPageCache(dev, storage.DefaultPageSize, 64)
	for p := int64(0); p < 64; p++ {
		c.Touch(p, false)
	}
	i := int64(0)
	return func() {
		c.TouchRun(i&63, 64, false)
		i++
	}
}

// setupRootSet: create and release one handle per op against a root set
// holding a stable population (exercises the slot append and tombstone
// compaction paths).
func setupRootSet() func() {
	rs := vm.NewRootSet()
	for i := 0; i < 64; i++ {
		rs.Create(vm.Addr(uint64(i+1) * 8))
	}
	return func() {
		h := rs.Create(vm.Addr(8))
		rs.Release(h)
	}
}

// unverified builds a session without the verifier hook even when
// TH_VERIFY=1 is set: micros measure the collector itself, so allocs/op
// must not depend on the environment.
func unverified(spec rt.Spec) *rt.Session {
	if v, ok := os.LookupEnv("TH_VERIFY"); ok {
		os.Unsetenv("TH_VERIFY")
		defer os.Setenv("TH_VERIFY", v)
	}
	return rt.NewSession(spec)
}

// setupScavenge: a PS JVM with a tenured working set; each op allocates
// young garbage and runs one minor GC. Steady state must be 0 allocs/op.
func setupScavenge() func() {
	col := unverified(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime.(*gc.Collector)
	node := col.Classes().MustFixed("Node", 1, 1)
	h := col.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := col.Alloc(node)
		if err != nil {
			panic(err)
		}
		col.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := col.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		resetCycles(col.GCStats())
	}
	// Warm up: tenure the working set and grow every reusable buffer.
	for i := 0; i < 32; i++ {
		op()
	}
	return op
}

// setupScavengeGang4: the scavenge scenario with a 4-worker gang, so the
// per-item dealing and span bookkeeping on the minor-GC hot path is
// measured against the serial baseline. Steady state must stay 0
// allocs/op: the gang reuses its span backing across phases.
func setupScavengeGang4() func() {
	col := unverified(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime.(*gc.Collector)
	node := col.Classes().MustFixed("Node", 1, 1)
	h := col.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := col.Alloc(node)
		if err != nil {
			panic(err)
		}
		col.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	col.Workers = 4
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := col.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		resetCycles(col.GCStats())
	}
	for i := 0; i < 32; i++ {
		op()
	}
	return op
}

// setupScavengeNG2C: the scavenge scenario with the NG2C profiling policy
// installed, so every measured minor GC runs the full placement decision
// path (AllocTarget on each allocation, Promote and NoteScavenge on each
// surviving object). The delta against minor_gc_scavenge prices the
// policy seam; steady state must stay 0 allocs/op — the profiler's site
// slab is grown during warm-up and never reallocated after.
func setupScavengeNG2C() func() {
	col := unverified(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime.(*gc.Collector)
	col.SetPlacementPolicy(placement.NewNG2C())
	node := col.Classes().MustFixed("Node", 1, 1)
	h := col.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := col.Alloc(node)
		if err != nil {
			panic(err)
		}
		col.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := col.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		resetCycles(col.GCStats())
	}
	for i := 0; i < 32; i++ {
		op()
	}
	return op
}

// setupWriteback: one op submits a burst of async batches against a
// depth-capped queue and drains it at a simulated safepoint. Steady state
// must be 0 allocs/op: the queue recycles its completion ring.
func setupWriteback() func() {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	dev.SetWritebackDepth(4)
	op := func() {
		for i := 0; i < 8; i++ {
			dev.WriteAsync(64*storage.KB, storage.DefaultPageSize)
		}
		dev.DrainWriteback()
	}
	op() // warm: grow the completion ring once
	return op
}

// setupCardScan: a TeraHeap JVM with an H2 object holding backward
// references into H1; each op scans the H2 card table with pre-built
// visitors. Steady state must be 0 allocs/op.
func setupCardScan() func() {
	thcfg := core.DefaultConfig(64 * storage.MB)
	ses := unverified(rt.Spec{Kind: rt.KindTH, H1Size: 8 * storage.MB, TH: &thcfg})
	j, th := ses.Runtime.(*gc.Collector), ses.TH
	node := j.Classes().MustFixed("Node", 4, 1)

	root, err := j.Alloc(node)
	if err != nil {
		panic(err)
	}
	h := j.NewHandle(root)
	j.TagRoot(h, 7)
	j.MoveHint(7)
	if err := j.MinorGC(); err != nil {
		panic(err)
	}
	if !th.Contains(h.Addr()) {
		panic("perf: card-scan root did not move to H2")
	}
	// Young H1 targets written through the post-write barrier dirty the
	// H2 card; claiming they stay young keeps the segment in the youngGen
	// state, so every scan revisits it.
	for f := 0; f < 4; f++ {
		y, err := j.Alloc(node)
		if err != nil {
			panic(err)
		}
		j.WriteRef(h.Addr(), f, y)
	}
	visit := func(_ uint64, t vm.Addr) vm.Addr { return t }
	isYoung := func(vm.Addr) bool { return true }
	op := func() {
		th.ScanBackwardRefs(false, visit, isYoung)
	}
	op() // warm: recompute card states once
	return op
}

// setupLoadH1: 64 word loads spread over a PS heap's H1, every one inside
// the DRAM window.
func setupLoadH1() func() {
	j := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime
	as := j.Mem().AS
	var sink uint64
	return func() {
		for i := vm.Addr(0); i < 64; i++ {
			sink += as.Load(vm.H1Base + i*4099*vm.WordSize)
		}
	}
}

// setupLoadH2: 64 word loads over a few resident pages of a TeraHeap H2,
// so every load takes the H2 window and hits the page cache.
func setupLoadH2() func() {
	thcfg := core.DefaultConfig(64 * storage.MB)
	j := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 8 * storage.MB, TH: &thcfg}).Runtime
	as := j.Mem().AS
	var sink uint64
	op := func() {
		for i := vm.Addr(0); i < 64; i++ {
			sink += as.Load(vm.H2Base + i*67*vm.WordSize)
		}
	}
	op() // warm: fault the pages in
	return op
}

// setupPrimRunH2: one 1000-word primitive run over a resident H2 object
// that straddles two pages, so the run makes one TouchRun on the header's
// page and the pair replay on the next.
func setupPrimRunH2() func() {
	thcfg := core.DefaultConfig(64 * storage.MB)
	j := rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 8 * storage.MB, TH: &thcfg}).Runtime
	m := j.Mem()
	const prims = 1000
	m.AS.Store(vm.H2Base+vm.WordSize, vm.HeaderWords+prims) // shape: no refs
	dst := make([]uint64, prims)
	op := func() { m.PrimRun(vm.H2Base, 0, 1, dst) }
	op() // warm: fault the pages in
	return op
}

// setupCopyObject: one 32-word object copy between two H1 addresses inside
// the DRAM window, the major compaction and scavenge copy.
func setupCopyObject() func() {
	j := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime
	m := j.Mem()
	src, dst := vm.H1Base+4096, vm.H1Base+1*storage.MB
	return func() { m.CopyObject(dst, src, 32) }
}

// setupAdjustLookup: 64 forwarding lookups against a 4096-entry major-GC
// forwarding table with irregular gaps, through the block index.
func setupAdjustLookup() func() {
	const n = 4096
	src := make([]vm.Addr, n)
	dst := make([]vm.Addr, n)
	a := vm.H1Base
	for i := range src {
		a += vm.Addr(3+i%7) * vm.WordSize
		src[i], dst[i] = a, vm.H1Base+vm.Addr(i)*vm.WordSize
	}
	var x gc.FwdIndex
	x.Build(src)
	var sink vm.Addr
	return func() {
		for i := 0; i < 64; i++ {
			d, ok := x.Lookup(src, dst, src[i*61%n])
			if !ok {
				panic("perf: forwarded source not found")
			}
			sink += d
		}
	}
}

// resetCycles drops the recorded per-cycle history while keeping its
// backing array and the aggregate counters, so a steady-state GC loop
// never grows the history slice between operations.
func resetCycles(s *gc.Stats) { s.Cycles = s.Cycles[:0] }

// setupMajorGC: a PS JVM whose old generation holds a tenured working set
// of linked nodes; each op allocates eden garbage and runs one full GC,
// which finds the old generation live and in place. Steady state must be
// 0 allocs/op: every major-GC scratch array is reused across cycles.
func setupMajorGC() func() {
	col := unverified(rt.Spec{Kind: rt.KindPS, H1Size: 8 * storage.MB}).Runtime.(*gc.Collector)
	node := col.Classes().MustFixed("Node", 2, 1)
	h := col.NewHandle(vm.NullAddr)
	for i := 0; i < 4096; i++ {
		a, err := col.Alloc(node)
		if err != nil {
			panic(err)
		}
		col.WriteRef(a, 0, h.Addr())
		col.WritePrim(a, 0, uint64(i))
		h.Set(a)
	}
	op := func() {
		for i := 0; i < 512; i++ {
			if _, err := col.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.FullGC(); err != nil {
			panic(err)
		}
		resetCycles(col.GCStats())
	}
	// Warm up: compact the working set into the old generation and grow
	// every reusable buffer.
	for i := 0; i < 4; i++ {
		op()
	}
	return op
}

// setupCDLPCompute: one CDLP superstep's label mode over 256 vertices of
// a 4096-vertex graph, 32 messages each, drawn from few labels so counts
// tie, as they do once label propagation starts to converge.
func setupCDLPCompute() func() {
	const n, verts, deg = 4096, 256, 32
	c := &giraph.CDLP{Iterations: 10}
	for v := 0; v < n; v++ {
		c.Init(v, deg, n)
	}
	msgs := make([][]float64, verts)
	x := uint64(1)
	for v := range msgs {
		msgs[v] = make([]float64, deg)
		for j := range msgs[v] {
			x = x*6364136223846793005 + 1442695040888963407
			msgs[v][j] = float64((x >> 33) % 8 * 509)
		}
	}
	var sink float64
	return func() {
		for v, m := range msgs {
			nv, _, _ := c.Compute(1, v, float64(v), m, deg)
			sink += nv
		}
	}
}

// setupZipfDraw: the serve plane's key sampler (4096 keys, s = 0.99),
// 1024 draws per op from one stream, its bucket memo warm after the
// first ops.
func setupZipfDraw() func() {
	z := workloads.NewZipf(4096, 0.99)
	r := workloads.NewRand(1)
	var sink int
	return func() {
		for i := 0; i < 1024; i++ {
			sink += z.Draw(r)
		}
	}
}
