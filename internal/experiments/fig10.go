package experiments

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// Fig10 reproduces the region-liveness CDFs (Figure 10): for each Giraph
// workload and two region sizes (the paper's 16 MB and 256 MB, scaled),
// the distribution of live objects per region and of space occupied by
// live objects, over all allocated regions (reclaimed regions count as 0%
// live).
func (e *Env) Fig10() string {
	regionSizes := []struct {
		label string
		size  int64
	}{
		{"16MB", 16 * storage.KB},
		{"256MB", 256 * storage.KB},
	}
	workloads := GiraphWorkloads()
	var specs []Spec
	for _, rs := range regionSizes {
		size := rs.size
		for _, w := range workloads {
			spec := giraphSpecs[w]
			dram := spec.dramGB[len(spec.dramGB)-1]
			specs = append(specs, GiraphSpec(GiraphRun{
				Workload: w, Mode: giraph.ModeTH, DramGB: dram, AnalyzeRegions: true,
				THConfig: func(c *core.Config) { c.RegionSize = size },
			}))
		}
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for ri, rs := range regionSizes {
		fmt.Fprintf(&sb, "== Fig 10: region liveness (region size = %s paper-scale) ==\n", rs.label)
		for wi, w := range workloads {
			r := runs[ri*len(workloads)+wi]
			if r.OOM || r.THStats == nil {
				fmt.Fprintf(&sb, "%-6s OOM\n", w)
				continue
			}
			var liveObjPct, liveSpacePct []float64
			reclaimed := 0
			for _, snap := range r.THStats.RegionSnapshots {
				liveObjPct = append(liveObjPct, snap.LiveObjectsPct)
				liveSpacePct = append(liveSpacePct, snap.LiveSpacePct)
				if snap.Reclaimed {
					reclaimed++
				}
			}
			total := len(r.THStats.RegionSnapshots)
			reclPct := 0.0
			if total > 0 {
				reclPct = 100 * float64(reclaimed) / float64(total)
			}
			fmt.Fprintf(&sb, "%-6s regions=%d reclaimed=%.0f%%\n", w, total, reclPct)
			sb.WriteString("  live-objects% " + metrics.FormatCDF("cdf", liveObjPct))
			sb.WriteString("  live-space%   " + metrics.FormatCDF("cdf", liveSpacePct))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
