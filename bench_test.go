// Package teraheap's benchmark suite regenerates every table and figure
// of the paper's evaluation (§7) as testing.B benchmarks. Each benchmark
// reports the simulated execution times of the configurations it compares
// as custom metrics (sim-ms), alongside the usual wall-clock numbers.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// or a single figure:
//
//	go test -bench=BenchmarkFig6SparkPR
package teraheap

import (
	"runtime"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// reportRuns attaches each run's simulated total as a custom metric.
func reportRuns(b *testing.B, runs ...experiments.RunResult) {
	b.Helper()
	for _, r := range runs {
		name := "sim-ms-" + r.Name
		if r.OOM {
			b.ReportMetric(-1, name)
			continue
		}
		b.ReportMetric(float64(r.B.Total().Milliseconds()), name)
	}
}

// --- Figure 6 (Spark): TeraHeap vs Spark-SD per workload -------------------

func benchFig6Spark(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		r := new(experiments.Env).Fig6Spark(workload)
		if i == b.N-1 {
			reportRuns(b, r.Runs...)
		}
	}
}

func BenchmarkFig6SparkPR(b *testing.B)   { benchFig6Spark(b, "PR") }
func BenchmarkFig6SparkCC(b *testing.B)   { benchFig6Spark(b, "CC") }
func BenchmarkFig6SparkSSSP(b *testing.B) { benchFig6Spark(b, "SSSP") }
func BenchmarkFig6SparkSVD(b *testing.B)  { benchFig6Spark(b, "SVD") }
func BenchmarkFig6SparkTR(b *testing.B)   { benchFig6Spark(b, "TR") }
func BenchmarkFig6SparkLR(b *testing.B)   { benchFig6Spark(b, "LR") }
func BenchmarkFig6SparkLgR(b *testing.B)  { benchFig6Spark(b, "LgR") }
func BenchmarkFig6SparkSVM(b *testing.B)  { benchFig6Spark(b, "SVM") }
func BenchmarkFig6SparkBC(b *testing.B)   { benchFig6Spark(b, "BC") }
func BenchmarkFig6SparkRL(b *testing.B)   { benchFig6Spark(b, "RL") }

// --- Figure 6 (Giraph): TeraHeap vs Giraph-OOC per workload ----------------

func benchFig6Giraph(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		r := new(experiments.Env).Fig6Giraph(workload)
		if i == b.N-1 {
			reportRuns(b, r.Runs...)
		}
	}
}

func BenchmarkFig6GiraphPR(b *testing.B)   { benchFig6Giraph(b, "PR") }
func BenchmarkFig6GiraphCDLP(b *testing.B) { benchFig6Giraph(b, "CDLP") }
func BenchmarkFig6GiraphWCC(b *testing.B)  { benchFig6Giraph(b, "WCC") }
func BenchmarkFig6GiraphBFS(b *testing.B)  { benchFig6Giraph(b, "BFS") }
func BenchmarkFig6GiraphSSSP(b *testing.B) { benchFig6Giraph(b, "SSSP") }

// --- Figure 7: GC timelines -------------------------------------------------

func BenchmarkFig7Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := new(experiments.Env).Fig7()
		if i == b.N-1 {
			reportRuns(b, r.SD, r.TH)
			sdMajors := 0
			for _, cy := range r.SD.GCStats.Cycles {
				if cy.Kind == 1 {
					sdMajors++
				}
			}
			b.ReportMetric(float64(r.SD.GCStats.MajorCount), "sd-majors")
			b.ReportMetric(float64(r.TH.GCStats.MajorCount), "th-majors")
		}
	}
}

// --- Figure 8: PS vs G1 vs TeraHeap (one representative workload each of
// the three G1 behaviours: wins, loses to TH, humongous-OOM) ----------------

func benchFig8(b *testing.B, workload string) {
	spec := experiments.SparkWorkloads()
	_ = spec
	for i := 0; i < b.N; i++ {
		ps := experiments.RunSpark(experiments.SparkRun{Workload: workload, Runtime: rt.KindPS, DramGB: 80})
		g1r := experiments.RunSpark(experiments.SparkRun{Workload: workload, Runtime: rt.KindG1, DramGB: 80})
		th := experiments.RunSpark(experiments.SparkRun{Workload: workload, Runtime: rt.KindTH, DramGB: 80})
		if i == b.N-1 {
			reportRuns(b, ps, g1r, th)
		}
	}
}

func BenchmarkFig8G1PR(b *testing.B) { benchFig8(b, "PR") }
func BenchmarkFig8G1RL(b *testing.B) { benchFig8(b, "RL") }

// --- Figure 9: transfer hint and low threshold ------------------------------

func BenchmarkFig9aHint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nh := experiments.RunGiraph(experiments.GiraphRun{
			Workload: "WCC", Mode: giraph.ModeTH, DramGB: 74,
			THConfig: func(c *core.Config) { c.EnableMoveHint = false; c.LowThreshold = 0 },
		})
		h := experiments.RunGiraph(experiments.GiraphRun{
			Workload: "WCC", Mode: giraph.ModeTH, DramGB: 74,
			THConfig: func(c *core.Config) { c.LowThreshold = 0 },
		})
		if i == b.N-1 {
			reportRuns(b, nh, h)
		}
	}
}

func BenchmarkFig9bLowThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nl := experiments.RunGiraph(experiments.GiraphRun{
			Workload: "PR", Mode: giraph.ModeTH, DramGB: 140, DatasetScale: 91.0 / 85.0,
			THConfig: func(c *core.Config) { c.LowThreshold = 0 },
		})
		l := experiments.RunGiraph(experiments.GiraphRun{
			Workload: "PR", Mode: giraph.ModeTH, DramGB: 140, DatasetScale: 91.0 / 85.0,
			THConfig: func(c *core.Config) { c.LowThreshold = 0.5 },
		})
		if i == b.N-1 {
			reportRuns(b, nl, l)
		}
	}
}

// --- Figure 10: region liveness CDFs ----------------------------------------

func BenchmarkFig10RegionCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunGiraph(experiments.GiraphRun{
			Workload: "PR", Mode: giraph.ModeTH, DramGB: 85, AnalyzeRegions: true,
			THConfig: func(c *core.Config) { c.RegionSize = 16 * storage.KB },
		})
		if i == b.N-1 && r.THStats != nil {
			reclaimed := 0
			for _, s := range r.THStats.RegionSnapshots {
				if s.Reclaimed {
					reclaimed++
				}
			}
			b.ReportMetric(float64(len(r.THStats.RegionSnapshots)), "regions")
			b.ReportMetric(float64(reclaimed), "reclaimed")
		}
	}
}

// --- Figure 11: card segment size and major-GC phases -----------------------

func BenchmarkFig11aCardSegment(b *testing.B) {
	for _, seg := range []int64{512, 4 * storage.KB, 16 * storage.KB} {
		seg := seg
		b.Run(segName(seg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunGiraph(experiments.GiraphRun{
					Workload: "CDLP", Mode: giraph.ModeTH, DramGB: 85,
					THConfig: func(c *core.Config) {
						c.CardSegmentSize = seg
						c.RegionSize = 256 * storage.KB
					},
				})
				if i == b.N-1 && r.THStats != nil {
					b.ReportMetric(float64(r.THStats.MinorScanTime.Microseconds()), "h2scan-us")
				}
			}
		})
	}
}

func segName(s int64) string {
	switch {
	case s >= storage.KB:
		return itoa(s/storage.KB) + "KB"
	default:
		return itoa(s) + "B"
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkFig11bPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oc := experiments.RunGiraph(experiments.GiraphRun{Workload: "PR", Mode: giraph.ModeOOC, DramGB: 85})
		th := experiments.RunGiraph(experiments.GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 85})
		if i == b.N-1 {
			ocPh := oc.GCStats.PhaseTotals()
			thPh := th.GCStats.PhaseTotals()
			var ocT, thT float64
			for p := range ocPh {
				ocT += float64(ocPh[p].Microseconds())
				thT += float64(thPh[p].Microseconds())
			}
			b.ReportMetric(ocT, "ooc-major-us")
			b.ReportMetric(thT, "th-major-us")
		}
	}
}

// --- Figure 12: NVM comparisons ---------------------------------------------

func BenchmarkFig12aNVMSparkSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sd := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindPS, DramGB: 80, Device: storage.NVM})
		th := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80, Device: storage.NVM})
		if i == b.N-1 {
			reportRuns(b, sd, th)
		}
	}
}

func BenchmarkFig12bNVMMemoryMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mo := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindMO, DramGB: 80, Device: storage.NVM})
		th := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80, Device: storage.NVM})
		if i == b.N-1 {
			reportRuns(b, mo, th)
		}
	}
}

func BenchmarkFig12cPanthera(b *testing.B) {
	const scale = 30.0 / 64.0 // size the dataset to Panthera's 64GB heap
	for i := 0; i < b.N; i++ {
		p := experiments.RunSpark(experiments.SparkRun{Workload: "KM", Runtime: rt.KindPanthera, DramGB: 16, Device: storage.NVM, DatasetScale: scale})
		th := experiments.RunSpark(experiments.SparkRun{Workload: "KM", Runtime: rt.KindTH, DramGB: 32, Device: storage.NVM, DatasetScale: scale})
		if i == b.N-1 {
			reportRuns(b, p, th)
		}
	}
}

// --- Figure 13: scaling -----------------------------------------------------

func BenchmarkFig13aThreads(b *testing.B) {
	for _, threads := range []int{4, 8, 16} {
		threads := threads
		b.Run("t"+itoa(int64(threads)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sd := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindPS, DramGB: 84, Threads: threads})
				th := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: 84, Threads: threads})
				if i == b.N-1 {
					reportRuns(b, sd, th)
				}
			}
		})
	}
}

func BenchmarkFig13bDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: 84})
		large := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: 84 * 73 / 32, DatasetScale: 73.0 / 32.0})
		if i == b.N-1 {
			reportRuns(b, base, large)
		}
	}
}

// --- Table 5 and §4 ----------------------------------------------------------

func BenchmarkTable5Metadata(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, mb := range []int64{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			sink += core.MetadataBytesPerTB(mb * storage.MB)
		}
	}
	if sink == 0 {
		b.Fatal("metadata model returned zero")
	}
	b.ReportMetric(float64(core.MetadataBytesPerTB(1*storage.MB))/float64(storage.MB), "MBperTB-1MBregion")
	b.ReportMetric(float64(core.MetadataBytesPerTB(256*storage.MB))/float64(storage.MB), "MBperTB-256MBregion")
}

func BenchmarkBarrierOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := new(experiments.Env).BarrierOverhead()
		if len(s) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkAblationGroupMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := new(experiments.Env).AblationGroupMode()
		if len(s) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- Parallel suite execution ------------------------------------------------

// suiteSpecs is a representative slice of the full evaluation: every Fig 6
// Spark and Giraph configuration (30 runs), the kind of fan-out "all" and
// the figure enumerators hand to the executor.
func suiteSpecs() []experiments.Spec {
	var specs []experiments.Spec
	for _, w := range experiments.SparkWorkloads() {
		specs = append(specs, experiments.Fig6SparkSpecs(w)...)
	}
	for _, w := range experiments.GiraphWorkloads() {
		specs = append(specs, experiments.Fig6GiraphSpecs(w)...)
	}
	return specs
}

// BenchmarkSuiteParallel compares the executor at -j 1 against
// -j GOMAXPROCS over the Fig 6 spec list. On a multi-core machine the
// parallel variant approaches linear speedup; results are merged in
// submission order either way, so outputs are identical.
func BenchmarkSuiteParallel(b *testing.B) {
	specs := suiteSpecs()
	b.Run("j1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runs := (&experiments.Env{Jobs: 1}).RunAll(specs)
			if len(runs) != len(specs) {
				b.Fatalf("got %d results, want %d", len(runs), len(specs))
			}
		}
	})
	b.Run("jmax", func(b *testing.B) {
		env := &experiments.Env{Jobs: runtime.GOMAXPROCS(0)}
		for i := 0; i < b.N; i++ {
			runs := env.RunAll(specs)
			if len(runs) != len(specs) {
				b.Fatalf("got %d results, want %d", len(runs), len(specs))
			}
		}
	})
}

// --- Extension ablations (the paper's future work, implemented) -------------

func BenchmarkAblationStriping(b *testing.B) {
	for _, n := range []int{1, 4} {
		n := n
		b.Run("ssd"+itoa(int64(n)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSpark(experiments.SparkRun{
					Workload: "LR", Runtime: rt.KindTH, DramGB: 70, Stripes: n,
				})
				if i == b.N-1 {
					b.ReportMetric(float64(r.B.Total().Milliseconds()), "sim-ms")
				}
			}
		})
	}
}

func BenchmarkAblationHugePages(b *testing.B) {
	for _, ps := range []int{4 * storage.KB, 64 * storage.KB} {
		ps := ps
		b.Run(segName(int64(ps)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunSpark(experiments.SparkRun{
					Workload: "LR", Runtime: rt.KindTH, DramGB: 70,
					THConfig: func(c *core.Config) { c.PageSize = ps },
				})
				if i == b.N-1 {
					b.ReportMetric(float64(r.B.Total().Milliseconds()), "sim-ms")
					b.ReportMetric(float64(r.PageFaults), "faults")
				}
			}
		})
	}
}

func BenchmarkAblationDynamicThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := new(experiments.Env).AblationDynamicThresholds()
		if len(s) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkAblationSizeSegregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := new(experiments.Env).AblationSizeSegregation()
		if len(s) == 0 {
			b.Fatal("empty result")
		}
	}
}
