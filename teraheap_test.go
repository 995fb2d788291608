package teraheap_test

import (
	"testing"

	teraheap "github.com/carv-repro/teraheap-go"
)

// These tests exercise the public facade exactly as a downstream user
// would.

func TestPublicAPIRoundTrip(t *testing.T) {
	ses := teraheap.New(teraheap.Options{
		H1Size: 4 * teraheap.MB,
		H2Size: 64 * teraheap.MB,
	})
	rt := ses.Runtime
	classes := rt.Classes()
	point := classes.MustFixed("Point", 0, 2)
	arr := classes.MustRefArray("Point[]")

	const n = 500
	root, err := rt.AllocRefArray(arr, n)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle(root)
	for i := 0; i < n; i++ {
		p, err := rt.Alloc(point)
		if err != nil {
			t.Fatal(err)
		}
		rt.WritePrim(p, 0, uint64(i))
		rt.WritePrim(p, 1, uint64(i*i))
		rt.WriteRef(h.Addr(), i, p)
	}

	rt.TagRoot(h, 1)
	rt.MoveHint(1)
	if err := rt.FullGC(); err != nil {
		t.Fatal(err)
	}
	if !rt.InSecondHeap(h.Addr()) {
		t.Fatal("group not in H2")
	}
	var sum uint64
	for i := 0; i < n; i++ {
		sum += rt.ReadPrim(rt.ReadRef(h.Addr(), i), 1)
	}
	var want uint64
	for i := 0; i < n; i++ {
		want += uint64(i * i)
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}

	b := rt.Breakdown()
	if b.Total() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	st := ses.TH.Stats()
	if st.ObjectsMoved < int64(n) {
		t.Fatalf("moved = %d", st.ObjectsMoved)
	}
}

func TestPublicAPINativeRuntime(t *testing.T) {
	ses := teraheap.NewNative(2 * teraheap.MB)
	if ses.TH != nil {
		t.Fatal("native runtime has an H2")
	}
	rt := ses.Runtime
	cls := rt.Classes().MustPrimArray("x[]")
	a, err := rt.AllocPrimArray(cls, 100)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.NewHandle(a)
	rt.WritePrim(a, 7, 99)
	if err := rt.FullGC(); err != nil {
		t.Fatal(err)
	}
	if rt.ReadPrim(h.Addr(), 7) != 99 {
		t.Fatal("data lost")
	}
	// Hints are harmless no-ops without H2.
	rt.TagRoot(h, 1)
	rt.MoveHint(1)
}

func TestPublicAPISparkContext(t *testing.T) {
	ses := teraheap.New(teraheap.Options{H1Size: 4 * teraheap.MB, H2Size: 64 * teraheap.MB})
	ctx := teraheap.NewSparkContext(teraheap.SparkConf{
		RT: ses.Runtime, Mode: teraheap.SparkTH, Threads: 4,
	})
	if ctx == nil || ctx.BM == nil {
		t.Fatal("context not wired")
	}
}

func TestPublicConfigDefaults(t *testing.T) {
	cfg := teraheap.DefaultH2Config(1 * teraheap.GB)
	if cfg.H2Size != 1*teraheap.GB || cfg.RegionSize <= 0 || cfg.HighThreshold <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.GroupMode != teraheap.DependencyLists {
		t.Fatal("default group mode")
	}
}
