package rt_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func buildAndCheckList(t *testing.T, r rt.Runtime, n int) {
	t.Helper()
	classes := r.Classes()
	node := classes.ByName("Node")
	if node == nil {
		node = classes.MustFixed("Node", 1, 1)
	}
	h := r.NewHandle(vm.NullAddr)
	for i := n - 1; i >= 0; i-- {
		a, err := r.Alloc(node)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		r.WriteRef(a, 0, h.Addr())
		r.WritePrim(a, 0, uint64(i))
		h.Set(a)
	}
	if err := r.FullGC(); err != nil {
		t.Fatal(err)
	}
	a := h.Addr()
	for i := 0; i < n; i++ {
		if v := r.ReadPrim(a, 0); v != uint64(i) {
			t.Fatalf("node %d = %d", i, v)
		}
		a = r.ReadRef(a, 0)
	}
}

// nvmSession builds a Spark-MO or Panthera session whose heap is backed by
// NVM, with dramBytes of DRAM in front of it (MO) or of its old
// generation (Panthera).
func nvmSession(kind rt.Kind, dramBytes int64) *rt.Session {
	return rt.NewSession(rt.Spec{Kind: kind, H1Size: 2 * storage.MB, DeviceKind: storage.NVM,
		DRAMCacheBytes: dramBytes, DRAMOldBytes: dramBytes})
}

func TestMemoryModeJVMWorksAndChargesNVM(t *testing.T) {
	ses := nvmSession(rt.KindMO, 256*storage.KB)
	buildAndCheckList(t, ses.Runtime, 2000)
	st := ses.Device.Stats()
	if st.BytesRead == 0 {
		t.Fatal("memory mode charged no NVM reads (DRAM cache smaller than heap)")
	}
}

func TestPantheraPretenuresCold(t *testing.T) {
	j := nvmSession(rt.KindPanthera, 256*storage.KB).Runtime.(*gc.Collector)
	cls := j.Classes().MustPrimArray("cold[]")
	a, err := j.AllocColdPrimArray(cls, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !j.H1.InOld(a) {
		t.Fatalf("cold allocation not pretenured: %v", a)
	}
	// Writing deep into the old generation touches the NVM part.
	for i := 0; i < 64; i++ {
		j.WritePrim(a, i, uint64(i))
	}
	buildAndCheckList(t, j, 500)
}

func TestPantheraNVMPartChargesTime(t *testing.T) {
	// Tiny DRAM share: almost all of the old generation lives on NVM.
	ses := nvmSession(rt.KindPanthera, 32*storage.KB)
	j := ses.Runtime
	cls := j.Classes().MustPrimArray("cold[]")
	for i := 0; i < 64; i++ {
		if _, err := j.AllocColdPrimArray(cls, 256); err != nil {
			t.Fatal(err)
		}
	}
	if ses.Device.Stats().BytesWritten == 0 {
		t.Fatal("no NVM write traffic recorded")
	}
	if ses.Clock.Now() == 0 {
		t.Fatal("no time charged for NVM access")
	}
}

func TestVanillaVsTHSameResults(t *testing.T) {
	run := func(withTH bool) uint64 {
		classes := vm.NewClassTable()
		node := classes.MustFixed("Node", 1, 1)
		spec := rt.Spec{Kind: rt.KindPS, H1Size: 1 * storage.MB, Classes: classes}
		if withTH {
			cfg := core.DefaultConfig(32 * storage.MB)
			cfg.RegionSize = 32 * storage.KB
			spec.Kind, spec.TH = rt.KindTH, &cfg
		}
		j := rt.NewSession(spec).Runtime
		h := j.NewHandle(vm.NullAddr)
		var sum uint64
		for i := 0; i < 5000; i++ {
			a, err := j.Alloc(node)
			if err != nil {
				t.Fatal(err)
			}
			j.WritePrim(a, 0, uint64(i*i))
			j.WriteRef(a, 0, h.Addr())
			h.Set(a)
			if i == 1000 && withTH {
				j.TagRoot(h, 1)
				j.MoveHint(1)
			}
		}
		if err := j.FullGC(); err != nil {
			t.Fatal(err)
		}
		for a := h.Addr(); !a.IsNull(); a = j.ReadRef(a, 0) {
			sum += j.ReadPrim(a, 0)
		}
		return sum
	}
	if v, th := run(false), run(true); v != th {
		t.Fatalf("results diverge: vanilla=%d teraheap=%d", v, th)
	}
}

func TestHeapUsedReporting(t *testing.T) {
	j := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: storage.MB}).Runtime
	used0, cap0 := j.HeapUsed()
	if cap0 != storage.MB&^63 {
		t.Fatalf("capacity = %d", cap0)
	}
	cls := j.Classes().MustPrimArray("x[]")
	if _, err := j.AllocPrimArray(cls, 1000); err != nil {
		t.Fatal(err)
	}
	used1, _ := j.HeapUsed()
	if used1 <= used0 {
		t.Fatal("usage did not grow")
	}
}
