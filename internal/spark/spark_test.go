package spark_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func newCtx(t *testing.T, mode spark.Mode, h1Size int64) *spark.Context {
	t.Helper()
	spec := rt.Spec{Kind: rt.KindPS, H1Size: h1Size}
	if mode == spark.ModeTH {
		cfg := core.DefaultConfig(256 * storage.MB)
		cfg.RegionSize = 256 * storage.KB
		cfg.CacheBytes = 4 * storage.MB
		spec.Kind, spec.TH = rt.KindTH, &cfg
	}
	jvm := rt.NewSession(spec).Runtime
	return spark.NewContext(spark.Conf{
		RT:                jvm,
		Mode:              mode,
		Threads:           4,
		SerKind:           serde.Kryo,
		OffHeapCacheBytes: 2 * storage.MB,
		OnHeapCacheBytes:  h1Size / 2,
	})
}

// buildCounting returns a BuildFn materializing numElem prim arrays of
// elemWords words, each filled with its partition-global index.
func buildCounting(numElem, elemWords int) spark.BuildFn {
	return func(ctx *spark.Context, p int) (*vm.Handle, spark.PartStats, error) {
		var st spark.PartStats
		root, err := ctx.RT.AllocRefArray(ctx.ClsPartition, numElem)
		if err != nil {
			return nil, st, err
		}
		h := ctx.RT.NewHandle(root)
		st.Objects = 1
		st.Words = int64(vm.HeaderWords + numElem)
		for i := 0; i < numElem; i++ {
			e, err := ctx.RT.AllocPrimArray(ctx.ClsData, elemWords)
			if err != nil {
				ctx.RT.Release(h)
				return nil, st, err
			}
			ctx.RT.WritePrim(e, 0, uint64(p*numElem+i))
			ctx.RT.WriteRef(h.Addr(), i, e)
			st.Objects++
			st.Words += int64(vm.HeaderWords + elemWords)
			st.Elements++
		}
		return h, st, nil
	}
}

func sumRDD(t *testing.T, r *spark.RDD, numElem int) uint64 {
	t.Helper()
	var sum uint64
	err := r.ForEachPartition(func(p int, root vm.Addr) error {
		for i := 0; i < numElem; i++ {
			e := r.Ctx.RT.ReadRef(root, i)
			sum += r.Ctx.RT.ReadPrim(e, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return sum
}

func wantSum(parts, numElem int) uint64 {
	n := uint64(parts * numElem)
	return n * (n - 1) / 2
}

func TestRDDMaterializeAndIterate(t *testing.T) {
	ctx := newCtx(t, spark.ModeSD, 8*storage.MB)
	r := spark.NewRDD(ctx, 4, buildCounting(50, 4))
	if got, want := sumRDD(t, r, 50), wantSum(4, 50); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestPersistOnHeapServesFromCache(t *testing.T) {
	ctx := newCtx(t, spark.ModeMO, 16*storage.MB)
	r := spark.NewRDD(ctx, 4, buildCounting(50, 4)).Persist()
	want := wantSum(4, 50)
	for i := 0; i < 3; i++ {
		if got := sumRDD(t, r, 50); got != want {
			t.Fatalf("pass %d: sum = %d, want %d", i, got, want)
		}
	}
	if ctx.BM.Builds != 4 {
		t.Fatalf("builds = %d, want 4 (one per partition)", ctx.BM.Builds)
	}
	if ctx.BM.OnHeapHits < 8 {
		t.Fatalf("on-heap hits = %d, want >= 8", ctx.BM.OnHeapHits)
	}
}

func TestSDModeSpillsToOffHeap(t *testing.T) {
	ctx := newCtx(t, spark.ModeSD, 8*storage.MB)
	// Cap the on-heap cache tightly so most partitions spill.
	ctx.Conf.OnHeapCacheBytes = 64 * storage.KB
	r := spark.NewRDD(ctx, 8, buildCounting(200, 8)).Persist()
	want := wantSum(8, 200)
	for i := 0; i < 2; i++ {
		if got := sumRDD(t, r, 200); got != want {
			t.Fatalf("pass %d: sum = %d, want %d", i, got, want)
		}
	}
	if ctx.BM.Spills == 0 {
		t.Fatal("no partitions spilled off-heap")
	}
	if ctx.BM.OffHeapHits == 0 {
		t.Fatal("no off-heap reads")
	}
	b := ctx.Breakdown()
	if b.Get(simclock.SerDesIO) <= 0 {
		t.Fatal("no S/D time charged for off-heap caching")
	}
}

func TestTHModeMovesCachedDataToH2(t *testing.T) {
	ctx := newCtx(t, spark.ModeTH, 8*storage.MB)
	r := spark.NewRDD(ctx, 8, buildCounting(200, 8)).Persist()
	want := wantSum(8, 200)
	if got := sumRDD(t, r, 200); got != want {
		t.Fatalf("first pass: sum = %d, want %d", got, want)
	}
	// Force the move and re-read through H2.
	if err := ctx.RT.FullGC(); err != nil {
		t.Fatal(err)
	}
	if got := sumRDD(t, r, 200); got != want {
		t.Fatalf("post-move pass: sum = %d, want %d", got, want)
	}
	if ctx.RT.(*gc.Collector).TH.Stats().ObjectsMoved == 0 {
		t.Fatal("nothing moved to H2")
	}
	if ctx.BM.Spills != 0 {
		t.Fatal("TH mode must not spill off-heap")
	}
}

func TestShuffleChargesSD(t *testing.T) {
	ctx := newCtx(t, spark.ModeMO, 8*storage.MB)
	if err := ctx.Shuffle(10000); err != nil {
		t.Fatal(err)
	}
	if ctx.Breakdown().Get(simclock.SerDesIO) <= 0 {
		t.Fatal("shuffle charged no S/D time")
	}
}

func TestTHModeNeverRebuilds(t *testing.T) {
	ctx := newCtx(t, spark.ModeTH, 8*storage.MB)
	r := spark.NewRDD(ctx, 8, buildCounting(100, 4)).Persist()
	want := wantSum(8, 100)
	for i := 0; i < 5; i++ {
		if got := sumRDD(t, r, 100); got != want {
			t.Fatalf("pass %d: sum = %d", i, got)
		}
	}
	if ctx.BM.Builds != 8 {
		t.Fatalf("builds = %d, want exactly one per partition", ctx.BM.Builds)
	}
	if ctx.BM.OffHeapHits != 0 {
		t.Fatal("TH mode read from the off-heap store")
	}
}

func TestWaveFootprintScalesWithThreads(t *testing.T) {
	// Unpersisted RDD: each wave holds Threads partitions live at once.
	// With a tiny heap, 8 threads must OOM where 2 threads survive.
	run := func(threads int) error {
		jvm := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB}).Runtime
		ctx := spark.NewContext(spark.Conf{
			RT: jvm, Mode: spark.ModeMO, Threads: threads, SerKind: serde.Kryo,
		})
		r := spark.NewRDD(ctx, 16, buildCounting(1500, 8)) // ~100KB per partition
		return r.ForEachPartition(func(p int, root vm.Addr) error { return nil })
	}
	if err := run(2); err != nil {
		t.Fatalf("2 threads should fit: %v", err)
	}
	if err := run(8); err == nil {
		t.Fatal("8 threads should exceed the heap")
	}
}

func TestSDModeOffHeapRebuildChargesSD(t *testing.T) {
	ctx := newCtx(t, spark.ModeSD, 8*storage.MB)
	ctx.Conf.OnHeapCacheBytes = 16 * storage.KB // force spills
	r := spark.NewRDD(ctx, 4, buildCounting(300, 8)).Persist()
	want := wantSum(4, 300)
	if got := sumRDD(t, r, 300); got != want {
		t.Fatal("first pass wrong")
	}
	before := ctx.Breakdown().Get(simclock.SerDesIO)
	if got := sumRDD(t, r, 300); got != want {
		t.Fatal("second pass wrong")
	}
	if ctx.Breakdown().Get(simclock.SerDesIO) <= before {
		t.Fatal("re-reading spilled partitions charged no S/D")
	}
}

func TestPartitionOutOfRange(t *testing.T) {
	ctx := newCtx(t, spark.ModeMO, 4*storage.MB)
	r := spark.NewRDD(ctx, 4, buildCounting(10, 4))
	if _, _, err := r.GetPartition(4); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if _, _, err := r.GetPartition(-1); err == nil {
		t.Fatal("negative partition accepted")
	}
}
