package experiments

import (
	"strings"

	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Fig8 compares PS, G1, and TeraHeap on every Spark workload at equal
// DRAM (Figure 8). G1's humongous-object fragmentation OOMs SVM, BC, and
// RL in the paper.
func (e *Env) Fig8() string {
	workloads := SparkWorkloads()
	var specs []Spec
	for _, w := range workloads {
		dram := sparkSpecs[w].thDramGB[len(sparkSpecs[w].thDramGB)-1]
		for _, rk := range []rt.Kind{rt.KindPS, rt.KindG1, rt.KindTH} {
			specs = append(specs, SparkSpec(SparkRun{Workload: w, Runtime: rk, DramGB: dram}))
		}
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	for i, w := range workloads {
		rows := []metrics.Row{
			runs[3*i+0].Row(),
			runs[3*i+1].Row(),
			runs[3*i+2].Row(),
		}
		rows[0].Name = w + "/PS"
		rows[1].Name = w + "/G1"
		rows[2].Name = w + "/TH"
		sb.WriteString(metrics.FormatBreakdown("Fig 8 "+w+" (PS vs G1 vs TH)", rows, true))
		sb.WriteString("\n")
	}
	return sb.String()
}
