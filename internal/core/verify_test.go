package core_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// h2Env moves a partition big enough to span several 64 KB H2 regions (so
// cross-region references and multi-segment metadata exist) and checks the
// verifier accepts the clean heap.
func h2Env(t *testing.T) (*thEnv, *vm.Handle) {
	t.Helper()
	e := newTHEnv(t, 1<<20, func(cfg *core.Config) { cfg.GroupMode = core.DependencyLists })
	h := e.buildPartition(t, 2048)
	e.jvm.TagRoot(h, 2)
	e.jvm.MoveHint(2)
	if err := e.jvm.FullGC(); err != nil {
		t.Fatal(err)
	}
	if !e.jvm.InSecondHeap(h.Addr()) {
		t.Fatal("partition not moved to H2")
	}
	if fails := e.jvm.VerifyNow(); len(fails) != 0 {
		t.Fatalf("clean heap reported violations: %v", fails)
	}
	return e, h
}

// TestVerifyCatchesSegFirstCorruption pins the structured failure for a
// corrupted segment-start entry: the violation names the region and the
// bogus address.
func TestVerifyCatchesSegFirstCorruption(t *testing.T) {
	e, h := h2Env(t)
	if !e.th.CorruptSegFirstForTest(h.Addr()) {
		t.Fatal("corruption hook found no region")
	}
	fails := e.jvm.VerifyNow()
	found := false
	for _, f := range fails {
		if f.Rule == "h2-seg-first" && f.Region >= 0 && f.Holder == h.Addr()+vm.WordSize {
			found = true
		}
	}
	if !found {
		t.Fatalf("segFirst corruption not diagnosed: %v", fails)
	}
}

// TestVerifyCatchesDroppedDependency pins the failure for a lost
// cross-region liveness edge: the partition array references nodes that
// overflowed into the next region, so erasing its region's dependency
// list must surface h2-dep-missing naming the array as holder.
func TestVerifyCatchesDroppedDependency(t *testing.T) {
	e, h := h2Env(t)
	if !e.th.DropDepsForTest(h.Addr()) {
		t.Fatal("corruption hook found no region")
	}
	fails := e.jvm.VerifyNow()
	found := false
	for _, f := range fails {
		if f.Rule == "h2-dep-missing" && f.Holder == h.Addr() && f.Field >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped dependency not diagnosed: %v", fails)
	}
}
