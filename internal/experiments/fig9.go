package experiments

import (
	"strings"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
)

// Fig9a measures the effect of the h2_move transfer hint on Giraph
// (Figure 9a): TeraHeap with the hint (H) against TeraHeap relying only
// on the high-threshold mechanism (NH). Without the hint, mutable message
// stores reach H2 early and every subsequent update is a device
// read-modify-write.
func (e *Env) Fig9a() string {
	workloads := GiraphWorkloads()
	var specs []Spec
	for _, w := range workloads {
		// The reduced-DRAM point: the threshold mechanism actually fires
		// there, which is what the hint comparison is about.
		dram := giraphSpecs[w].dramGB[0]
		// Fig 9a isolates the transfer hint: both configurations use only
		// the high threshold (the low threshold is Fig 9b's subject), so
		// forced movement takes every marked object — including mutable
		// stores, whose subsequent updates become device RMWs.
		specs = append(specs,
			GiraphSpec(GiraphRun{Workload: w, Mode: giraph.ModeTH, DramGB: dram,
				THConfig: func(c *core.Config) {
					c.EnableMoveHint = false
					c.LowThreshold = 0
				}}),
			GiraphSpec(GiraphRun{Workload: w, Mode: giraph.ModeTH, DramGB: dram,
				THConfig: func(c *core.Config) { c.LowThreshold = 0 }}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, w := range workloads {
		nh, h := runs[2*i], runs[2*i+1]
		rows := []metrics.Row{
			nh.RowNamed(w + "/NH(no hint)"),
			h.RowNamed(w + "/H(hint)"),
		}
		sb.WriteString(metrics.FormatBreakdown("Fig 9a "+w+" (transfer hint)", rows, true))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig9b measures the low-threshold mechanism (Figure 9b) on Giraph PR and
// SSSP with the large (91 GB) dataset: forced movement bounded by the 50%
// low threshold (L) against unbounded forced movement (NL). Both use the
// transfer hint and trip the 85% high threshold during graph loading.
func (e *Env) Fig9b() string {
	// DRAM sized so that graph loading crosses the high threshold before
	// the h2_move hint arrives (the paper's 170/200 GB points relative to
	// its heap representation; our representation is slightly leaner, so
	// the equivalent pressure points sit lower).
	cases := []struct {
		w      string
		dramGB float64
		scale  float64
	}{
		{"PR", 140, 91.0 / 85.0},
		{"SSSP", 155, 91.0 / 90.0},
	}
	var specs []Spec
	for _, c := range cases {
		specs = append(specs,
			GiraphSpec(GiraphRun{Workload: c.w, Mode: giraph.ModeTH, DramGB: c.dramGB,
				DatasetScale: c.scale,
				THConfig:     func(cc *core.Config) { cc.LowThreshold = 0 }}),
			GiraphSpec(GiraphRun{Workload: c.w, Mode: giraph.ModeTH, DramGB: c.dramGB,
				DatasetScale: c.scale,
				THConfig:     func(cc *core.Config) { cc.LowThreshold = 0.5 }}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, c := range cases {
		nl, l := runs[2*i], runs[2*i+1]
		rows := []metrics.Row{
			nl.RowNamed(c.w + "/NL(no low)"),
			l.RowNamed(c.w + "/L(low=50%)"),
		}
		sb.WriteString(metrics.FormatBreakdown("Fig 9b "+c.w+" (low threshold, 91GB)", rows, true))
		sb.WriteString("\n")
	}
	return sb.String()
}
