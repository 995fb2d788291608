package core_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

func TestSizeSegregationSeparatesChains(t *testing.T) {
	e := newTHEnv(t, 1<<20, func(c *core.Config) {
		c.Ext.SizeSegregatedRegions = true
		c.Ext.BigObjectWords = 64
		c.RegionSize = 16 * storage.KB
	})
	th := e.th
	// Small and big reservations under the same label land in different
	// regions.
	small, ok := th.PrepareMove(5, 8)
	if !ok {
		t.Fatal("small reservation failed")
	}
	big, ok := th.PrepareMove(5, 128)
	if !ok {
		t.Fatal("big reservation failed")
	}
	rs := int(int64(small-vm.H2Base) / (16 * storage.KB))
	rb := int(int64(big-vm.H2Base) / (16 * storage.KB))
	if rs == rb {
		t.Fatalf("small and big share region %d", rs)
	}
	// Balance the reservation ledger.
	th.CommitMove(small, make([]uint64, 8))
	th.CommitMove(big, make([]uint64, 128))
}

func TestSizeSegregationDisabledSharesChain(t *testing.T) {
	e := newTHEnv(t, 1<<20, func(c *core.Config) {
		c.RegionSize = 16 * storage.KB
	})
	th := e.th
	a, _ := th.PrepareMove(5, 8)
	b, _ := th.PrepareMove(5, 128)
	ra := int(int64(a-vm.H2Base) / (16 * storage.KB))
	rb := int(int64(b-vm.H2Base) / (16 * storage.KB))
	if ra != rb {
		t.Fatalf("default placement split label 5 across regions %d and %d", ra, rb)
	}
	th.CommitMove(a, make([]uint64, 8))
	th.CommitMove(b, make([]uint64, 128))
}

func TestDynamicThresholdsAdapt(t *testing.T) {
	e := newTHEnv(t, 1<<19, func(c *core.Config) {
		c.HighThreshold = 0.15
		c.LowThreshold = 0.60 // conservative; nothing below high moves
		c.Ext.DynamicThresholds = true
		c.Ext.DynamicFloor = 0.20
	})
	th := e.th
	start := th.LowThresholdNow()
	// Sustained pressure: a big tagged partition kept live.
	h := e.buildPartition(t, 1800)
	e.jvm.TagRoot(h, 2)
	for i := 0; i < 6; i++ {
		if err := e.jvm.FullGC(); err != nil {
			t.Fatal(err)
		}
	}
	if th.LowThresholdNow() >= start {
		t.Fatalf("low threshold did not adapt down: %v -> %v", start, th.LowThresholdNow())
	}
	if th.Stats().DynamicAdjustments == 0 {
		t.Fatal("no adjustments recorded")
	}
}

func TestDynamicThresholdsRecoverOnCalm(t *testing.T) {
	e := newTHEnv(t, 1<<20, func(c *core.Config) {
		c.HighThreshold = 0.85
		c.LowThreshold = 0.30
		c.Ext.DynamicThresholds = true
		c.Ext.DynamicCeil = 0.60
	})
	th := e.th
	// No pressure at all: several calm majors raise the low threshold.
	h := e.buildPartition(t, 16)
	_ = h
	for i := 0; i < 10; i++ {
		if err := e.jvm.FullGC(); err != nil {
			t.Fatal(err)
		}
	}
	if th.LowThresholdNow() <= 0.30 {
		t.Fatalf("low threshold did not recover: %v", th.LowThresholdNow())
	}
	if th.LowThresholdNow() > 0.60 {
		t.Fatalf("low threshold exceeded ceiling: %v", th.LowThresholdNow())
	}
}
