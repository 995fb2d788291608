package serde_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func setup(t *testing.T) (rt.Runtime, *vm.Class, *vm.Class) {
	t.Helper()
	classes := vm.NewClassTable()
	node := classes.MustFixed("Node", 2, 1)
	arr := classes.MustRefArray("Object[]")
	jvm := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 4 * storage.MB, Classes: classes}).Runtime
	return jvm, node, arr
}

// buildGraph makes a root array of n nodes, with some shared structure.
func buildGraph(t *testing.T, jvm rt.Runtime, arr, node *vm.Class, n int) *vm.Handle {
	t.Helper()
	root, err := jvm.AllocRefArray(arr, n)
	if err != nil {
		t.Fatal(err)
	}
	h := jvm.NewHandle(root)
	shared, err := jvm.Alloc(node)
	if err != nil {
		t.Fatal(err)
	}
	sh := jvm.NewHandle(shared)
	for i := 0; i < n; i++ {
		a, err := jvm.Alloc(node)
		if err != nil {
			t.Fatal(err)
		}
		jvm.WriteRef(a, 0, sh.Addr())
		jvm.WriteRef(h.Addr(), i, a)
	}
	jvm.Release(sh)
	return h
}

func TestMeasureCountsClosureOnce(t *testing.T) {
	jvm, node, arr := setup(t)
	s := serde.New(jvm, serde.Kryo)
	h := buildGraph(t, jvm, arr, node, 10)
	objects, words := s.Measure(h.Addr())
	// root + 10 nodes + 1 shared node (counted once despite 10 refs).
	if objects != 12 {
		t.Fatalf("objects = %d, want 12", objects)
	}
	wantWords := int64(vm.HeaderWords+10) + 11*int64(vm.HeaderWords+3)
	if words != wantWords {
		t.Fatalf("words = %d, want %d", words, wantWords)
	}
}

func TestSerializeChargesSDTime(t *testing.T) {
	jvm, node, arr := setup(t)
	s := serde.New(jvm, serde.Kryo)
	h := buildGraph(t, jvm, arr, node, 100)
	before := jvm.Breakdown().Get(simclock.SerDesIO)
	size, err := s.Serialize(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("zero serialized size")
	}
	if jvm.Breakdown().Get(simclock.SerDesIO) <= before {
		t.Fatal("no S/D time charged")
	}
	if s.TempBytesAllocated <= 0 {
		t.Fatal("no temp objects allocated")
	}
}

func TestJavaCostsMoreThanKryo(t *testing.T) {
	run := func(kind serde.Kind) int64 {
		jvm, node, arr := setup(t)
		s := serde.New(jvm, kind)
		h := buildGraph(t, jvm, arr, node, 200)
		if _, err := s.Serialize(h.Addr()); err != nil {
			t.Fatal(err)
		}
		return int64(jvm.Breakdown().Get(simclock.SerDesIO))
	}
	if java, kryo := run(serde.Java), run(serde.Kryo); java <= kryo {
		t.Fatalf("java (%d) not more expensive than kryo (%d)", java, kryo)
	}
}

func TestParallelismReducesCPU(t *testing.T) {
	run := func(par int) int64 {
		jvm, node, arr := setup(t)
		s := serde.New(jvm, serde.Kryo)
		s.Parallelism = par
		h := buildGraph(t, jvm, arr, node, 200)
		if _, err := s.Serialize(h.Addr()); err != nil {
			t.Fatal(err)
		}
		return int64(jvm.Breakdown().Get(simclock.SerDesIO))
	}
	if one, eight := run(1), run(8); eight >= one {
		t.Fatalf("8 threads (%d) not cheaper than 1 (%d)", eight, one)
	}
}

func TestDeserializeChargesAndAllocates(t *testing.T) {
	jvm, _, _ := setup(t)
	s := serde.New(jvm, serde.Kryo)
	alloc0 := jvm.GCStats().ObjectsAllocated
	if err := s.ChargeDeserialize(50, 5000); err != nil {
		t.Fatal(err)
	}
	if jvm.GCStats().ObjectsAllocated <= alloc0 {
		t.Fatal("deserialization allocated no temps")
	}
	if s.WordsDeserialized != 5000 {
		t.Fatalf("words = %d", s.WordsDeserialized)
	}
}
