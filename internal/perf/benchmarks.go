package perf

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Micro is one hot-loop microbenchmark: Setup builds the scenario once
// and returns the steady-state operation. The op must be safe to call
// any number of times (AllocsPerRun and testing.Benchmark both drive it).
type Micro struct {
	Name  string
	Setup func() func()
}

// Micros returns the hot-loop microbenchmarks recorded in every BENCH
// report, in stable order. The scavenge and card-scan entries are the
// zero-alloc pins of the acceptance criteria; their ops include the
// stats-history reset so the measured loop is pure steady state.
func Micros() []Micro {
	return []Micro{
		{Name: "pagecache_touch_hit", Setup: setupPageCacheHit},
		{Name: "pagecache_touch_miss_evict", Setup: setupPageCacheMiss},
		{Name: "pagecache_invalidate", Setup: setupPageCacheInvalidate},
		{Name: "rootset_create_release", Setup: setupRootSet},
		{Name: "minor_gc_scavenge", Setup: setupScavenge},
		{Name: "minor_gc_scavenge_gang4", Setup: setupScavengeGang4},
		{Name: "minor_gc_scavenge_ng2c", Setup: setupScavengeNG2C},
		{Name: "card_table_scan", Setup: setupCardScan},
		{Name: "writeback_submit_drain", Setup: setupWriteback},
		{Name: "vm_load_h1", Setup: setupLoadH1},
		{Name: "vm_load_h2", Setup: setupLoadH2},
		{Name: "copy_object", Setup: setupCopyObject},
		{Name: "major_adjust_lookup", Setup: setupAdjustLookup},
	}
}

// RunMicros measures every microbenchmark: ns/op via testing.Benchmark,
// allocs/op via testing.AllocsPerRun (exact, not sampled).
func RunMicros() []Benchmark {
	out := make([]Benchmark, 0, len(Micros()))
	for _, m := range Micros() {
		op := m.Setup()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		allocs := testing.AllocsPerRun(100, op)
		out = append(out, Benchmark{
			Name:        m.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: allocs,
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
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

// setupScavenge: a PS JVM with a tenured working set; each op allocates
// young garbage and runs one minor GC. Steady state must be 0 allocs/op.
func setupScavenge() func() {
	clock := simclock.New()
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB}, nil, clock)
	node := j.Classes().MustFixed("Node", 1, 1)
	h := j.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := j.Alloc(node)
		if err != nil {
			panic(err)
		}
		j.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	col := j.Collector()
	// Micros measure the scavenge path itself: force the env-triggered
	// verifier off so allocs/op is identical with or without TH_VERIFY=1.
	col.SetVerify(false)
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := j.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		col.Stats().ResetCycles()
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
	clock := simclock.New()
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB}, nil, clock)
	node := j.Classes().MustFixed("Node", 1, 1)
	h := j.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := j.Alloc(node)
		if err != nil {
			panic(err)
		}
		j.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	col := j.Collector()
	col.SetVerify(false)
	col.Costs.Workers = 4
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := j.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		col.Stats().ResetCycles()
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
	clock := simclock.New()
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB}, nil, clock)
	j.SetPlacementPolicy(placement.NewNG2C(placement.DefaultNG2CConfig()))
	node := j.Classes().MustFixed("Node", 1, 1)
	h := j.NewHandle(vm.NullAddr)
	for i := 0; i < 64; i++ {
		a, err := j.Alloc(node)
		if err != nil {
			panic(err)
		}
		j.WriteRef(a, 0, h.Addr())
		h.Set(a)
	}
	col := j.Collector()
	col.SetVerify(false)
	op := func() {
		for i := 0; i < 32; i++ {
			if _, err := j.Alloc(node); err != nil {
				panic(err)
			}
		}
		if err := col.MinorGC(); err != nil {
			panic(err)
		}
		col.Stats().ResetCycles()
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
	clock := simclock.New()
	thcfg := core.DefaultConfig(64 * storage.MB)
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB, TH: &thcfg}, nil, clock)
	th := j.TeraHeap()
	j.Collector().SetVerify(false) // env-independent, as in setupScavenge
	node := j.Classes().MustFixed("Node", 4, 1)

	root, err := j.Alloc(node)
	if err != nil {
		panic(err)
	}
	h := j.NewHandle(root)
	j.TagRoot(h, 7)
	j.MoveHint(7)
	if err := j.Collector().MinorGC(); err != nil {
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
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB}, nil, simclock.New())
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
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB, TH: &thcfg}, nil, simclock.New())
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

// setupCopyObject: one 32-word object copy between two H1 addresses inside
// the DRAM window, the major compaction and scavenge copy.
func setupCopyObject() func() {
	j := rt.NewJVM(rt.Options{H1Size: 8 * storage.MB}, nil, simclock.New())
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
