package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// Fig11a measures minor-GC H2 card-scanning time for card segment sizes
// from 512 B to 16 KB, normalized to 512 B (Figure 11a). Larger segments
// mean fewer cards to examine but more objects scanned per dirty card.
func (e *Env) Fig11a() string {
	segs := []struct {
		label string
		size  int64
	}{
		{"512B", 512},
		{"1KB", 1 * storage.KB},
		{"4KB", 4 * storage.KB},
		{"8KB", 8 * storage.KB},
		{"16KB", 16 * storage.KB},
	}
	workloads := GiraphWorkloads()
	var specs []Spec
	for _, w := range workloads {
		// The scanning-heavy configuration: reduced DRAM and forced
		// movement without the hint, so mutable stores sit in H2 and
		// their updates dirty cards that minor GC must scan — the
		// behaviour whose cost the card-segment size trades off.
		dram := giraphSpecs[w].dramGB[0]
		for _, s := range segs {
			size := s.size
			specs = append(specs, GiraphSpec(GiraphRun{Workload: w, Mode: giraph.ModeTH, DramGB: dram,
				THConfig: func(c *core.Config) {
					c.CardSegmentSize = size
					// Stripe size equals region size (256 MB paper-scale).
					c.RegionSize = 256 * storage.KB
					c.EnableMoveHint = false
					c.LowThreshold = 0
				}}))
		}
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	sb.WriteString("== Fig 11a: H2 minor-GC scan time vs card segment size (norm. to 512B) ==\n")
	fmt.Fprintf(&sb, "%-6s", "wl")
	for _, s := range segs {
		fmt.Fprintf(&sb, " %8s", s.label)
	}
	sb.WriteString("\n")
	for wi, w := range workloads {
		var base time.Duration
		fmt.Fprintf(&sb, "%-6s", w)
		for i := range segs {
			r := runs[wi*len(segs)+i]
			t := time.Duration(0)
			if r.THStats != nil {
				t = r.THStats.MinorScanTime
			}
			if i == 0 {
				base = t
				if base == 0 {
					base = 1
				}
			}
			fmt.Fprintf(&sb, " %8.3f", float64(t)/float64(base))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig11b compares the four major-GC phases between Giraph-OOC and
// TeraHeap (Figure 11b).
func (e *Env) Fig11b() string {
	workloads := GiraphWorkloads()
	var specs []Spec
	for _, w := range workloads {
		dram := giraphSpecs[w].dramGB[len(giraphSpecs[w].dramGB)-1]
		specs = append(specs,
			GiraphSpec(GiraphRun{Workload: w, Mode: giraph.ModeOOC, DramGB: dram}),
			GiraphSpec(GiraphRun{Workload: w, Mode: giraph.ModeTH, DramGB: dram}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	sb.WriteString("== Fig 11b: major GC phase breakdown (Giraph-OOC vs TeraHeap) ==\n")
	fmt.Fprintf(&sb, "%-6s %-4s %12s %12s %12s %12s %12s\n",
		"wl", "cfg", "Marking", "Precompact", "Adjust", "Compact", "total")
	for wi, w := range workloads {
		write := func(cfg string, r RunResult) {
			if r.OOM {
				fmt.Fprintf(&sb, "%-6s %-4s OOM\n", w, cfg)
				return
			}
			ph := r.GCStats.PhaseTotals()
			var total time.Duration
			for _, p := range ph {
				total += p
			}
			fmt.Fprintf(&sb, "%-6s %-4s %12v %12v %12v %12v %12v\n", w, cfg,
				ph[gc.PhaseMark].Round(time.Microsecond),
				ph[gc.PhasePrecompact].Round(time.Microsecond),
				ph[gc.PhaseAdjust].Round(time.Microsecond),
				ph[gc.PhaseCompact].Round(time.Microsecond),
				total.Round(time.Microsecond))
		}
		write("OC", runs[2*wi])
		write("TH", runs[2*wi+1])
	}
	return sb.String()
}
