package experiments

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Fig13a measures scaling with 4, 8, and 16 mutator threads for Spark CC
// and LR and Giraph CDLP, each normalized to its own 8-thread run
// (Figure 13a).
func (e *Env) Fig13a() string {
	ccDram := sparkSpecs["CC"].thDramGB[len(sparkSpecs["CC"].thDramGB)-1]
	lrDram := sparkSpecs["LR"].thDramGB[len(sparkSpecs["LR"].thDramGB)-1]
	cdlpDram := giraphSpecs["CDLP"].dramGB[len(giraphSpecs["CDLP"].dramGB)-1]

	configs := []struct {
		name string
		spec func(threads int) Spec
	}{
		{"Spark-CC/SD", func(t int) Spec {
			return SparkSpec(SparkRun{Workload: "CC", Runtime: rt.KindPS, DramGB: ccDram, Threads: t})
		}},
		{"Spark-CC/TH", func(t int) Spec {
			return SparkSpec(SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: ccDram, Threads: t})
		}},
		{"Spark-LR/SD", func(t int) Spec {
			return SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindPS, DramGB: lrDram, Threads: t})
		}},
		{"Spark-LR/TH", func(t int) Spec {
			return SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: lrDram, Threads: t})
		}},
		{"Giraph-CDLP/OOC", func(t int) Spec {
			return GiraphSpec(GiraphRun{Workload: "CDLP", Mode: giraph.ModeOOC, DramGB: cdlpDram, Threads: t})
		}},
		{"Giraph-CDLP/TH", func(t int) Spec {
			return GiraphSpec(GiraphRun{Workload: "CDLP", Mode: giraph.ModeTH, DramGB: cdlpDram, Threads: t})
		}},
	}
	threads := []int{4, 8, 16}
	var specs []Spec
	for _, c := range configs {
		for _, t := range threads {
			specs = append(specs, c.spec(t))
		}
	}
	runs := e.RunAll(specs)

	var sb strings.Builder
	sb.WriteString("== Fig 13a: scaling with mutator threads (normalized to 8 threads) ==\n")
	fmt.Fprintf(&sb, "%-22s %8s %8s %8s\n", "config", "4", "8", "16")
	for ci, c := range configs {
		r4, r8, r16 := runs[3*ci], runs[3*ci+1], runs[3*ci+2]
		base := float64(r8.B.Total())
		cell := func(r RunResult) string {
			if r.OOM {
				return "OOM"
			}
			return fmt.Sprintf("%.3f", float64(r.B.Total())/base)
		}
		fmt.Fprintf(&sb, "%-22s %8s %8s %8s\n", c.name, cell(r4), cell(r8), cell(r16))
	}
	return sb.String()
}

// Fig13b measures robustness to dataset size (Figure 13b): native vs
// TeraHeap at the base and enlarged datasets, reporting TH/native time.
func (e *Env) Fig13b() string {
	type cfg struct {
		name    string
		baseGB  float64
		largeGB float64
		spark   bool
		w       string
	}
	cases := []cfg{
		{"Spark-CC", 32, 73, true, "CC"},
		{"Spark-LR", 64, 256, true, "LR"},
		{"Giraph-CDLP", 25, 91, false, "CDLP"},
	}
	// Per case and dataset size: the native run then the TeraHeap run.
	var specs []Spec
	for _, c := range cases {
		for _, scaleTo := range []float64{c.baseGB, c.largeGB} {
			if c.spark {
				spec := sparkSpecs[c.w]
				scale := scaleTo / spec.datasetGB
				dram := spec.thDramGB[len(spec.thDramGB)-1] * scale
				specs = append(specs,
					SparkSpec(SparkRun{Workload: c.w, Runtime: rt.KindPS, DramGB: dram, DatasetScale: scale}),
					SparkSpec(SparkRun{Workload: c.w, Runtime: rt.KindTH, DramGB: dram, DatasetScale: scale}))
			} else {
				spec := giraphSpecs[c.w]
				scale := scaleTo / spec.datasetGB
				dram := spec.dramGB[len(spec.dramGB)-1] * scale
				specs = append(specs,
					GiraphSpec(GiraphRun{Workload: c.w, Mode: giraph.ModeOOC, DramGB: dram, DatasetScale: scale}),
					GiraphSpec(GiraphRun{Workload: c.w, Mode: giraph.ModeTH, DramGB: dram, DatasetScale: scale}))
			}
		}
	}
	runs := e.RunAll(specs)

	var sb strings.Builder
	sb.WriteString("== Fig 13b: scaling with dataset size (TH time / native time) ==\n")
	fmt.Fprintf(&sb, "%-16s %10s %10s\n", "workload", "base", "large")
	for ci, c := range cases {
		cell := func(sizeIdx int) string {
			nat := runs[4*ci+2*sizeIdx]
			th := runs[4*ci+2*sizeIdx+1]
			if nat.OOM {
				return "nat-OOM"
			}
			if th.OOM {
				return "th-OOM"
			}
			return fmt.Sprintf("%.3f", float64(th.B.Total())/float64(nat.B.Total()))
		}
		fmt.Fprintf(&sb, "%-16s %10s %10s\n", c.name, cell(0), cell(1))
	}
	return sb.String()
}
