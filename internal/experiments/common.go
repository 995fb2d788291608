// Package experiments reproduces every table and figure of the paper's
// evaluation (§6-§7). Each figure has a runner returning formatted results
// plus raw data; the CLI (cmd/teraheap-bench) and the benchmark suite
// (bench_test.go) both drive these runners.
//
// Scaling: 1 paper-GB is simulated as 100 KB (Scale), preserving every
// dataset:heap:DRAM ratio of Tables 3 and 4 while keeping runs fast. The
// Spark system reserve (DR2) is the paper's fixed 16 GB.
package experiments

import (
	"fmt"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/mllib"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/sparksql"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Scale maps one paper-GB to simulator bytes.
const Scale = 100 * storage.KB

// GB converts paper gigabytes to simulator bytes (64-byte aligned).
func GB(g float64) int64 { return int64(g*float64(Scale)) &^ 63 }

// DR2GB is the Spark system reserve (driver + kernel page cache).
const DR2GB = 16.0

// SparkRun configures one Spark experiment run. Runtime is an rt.Kind:
// the rt kind registry is the single enumeration of runtimes — there is
// no experiments-local mirror to keep in sync.
type SparkRun struct {
	Workload string
	Runtime  rt.Kind
	DramGB   float64
	// Device technology backing H2 / off-heap (NVMe or NVM).
	Device storage.Kind
	// Threads (0 → 8, the paper's executor size).
	Threads int
	// DatasetScale multiplies the workload's dataset size (Fig 13b).
	DatasetScale float64
	// THConfig optionally overrides the TeraHeap configuration.
	THConfig func(*core.Config)
	// Stripes stripes the H2/off-heap device across N units (0/1 = one).
	Stripes int
	// Ctx scopes the run's cross-cutting configuration (verification,
	// fault injection); nil uses the process default.
	Ctx *RunContext
}

// RunResult captures one run's outcome.
type RunResult struct {
	Name string
	B    simclock.Breakdown
	OOM  bool

	// Faulted marks a run ended by a latched persistent storage fault;
	// Failed marks a run whose goroutine panicked (recovered by the
	// executor); FailErr carries the cause for either. FaultStats counts
	// the faults injected by the active plan, whether or not the run
	// survived them.
	Faulted    bool
	Failed     bool
	FailErr    string
	FaultStats fault.Stats

	GCStats  gc.Stats
	THStats  *core.Stats
	DevStats storage.Stats
	Checksum float64

	// PageFaults counts H2 page-cache faults (TeraHeap runs only).
	PageFaults int64
	// FinalLowThreshold is the low threshold after any dynamic
	// adaptation (TeraHeap runs only).
	FinalLowThreshold float64
	// H2UsedBytes is the second heap's live allocation at run end.
	H2UsedBytes int64

	// Recovery snapshots the self-healing layer's counters (TeraHeap runs
	// with recovery installed only).
	Recovery *recovery.Stats

	// Placement snapshots the placement policy's counters (runs with a
	// non-default policy only — NG2C and Deca).
	Placement *placement.Stats

	// Serve carries the request-plane report for serve-mode runs (nil for
	// batch runs).
	Serve *server.Stats
}

// Degraded reports a run that absorbed injected faults and still completed:
// the graceful-degradation regime the fault plane exists to exercise.
func (r RunResult) Degraded() bool {
	return r.FaultStats.Any() && !r.Faulted && !r.Failed && !r.OOM
}

// Recovered reports a run the self-healing layer actively repaired — a
// salvage, quarantine, or breaker trip — that still completed with a
// correct result. It refines Degraded: every Recovered run is Degraded,
// but a run that merely absorbed transient faults is not Recovered.
func (r RunResult) Recovered() bool {
	return r.Recovery != nil && r.Recovery.Active() && !r.Faulted && !r.Failed && !r.OOM
}

// Row converts the result to a metrics row.
func (r RunResult) Row() metrics.Row {
	return r.RowNamed(r.Name)
}

// RowNamed is Row with an overridden display name (figure formatters often
// relabel configurations).
func (r RunResult) RowNamed(name string) metrics.Row {
	row := metrics.Row{Name: name, B: r.B, OOM: r.OOM, Fault: r.Faulted || r.Failed}
	if row.Fault {
		row.Note = firstLine(r.FailErr)
	}
	if r.Recovered() {
		row.Recovered = true
		row.Note = r.Recovery.String()
	}
	return row
}

// sparkSpec describes one Table 3 workload.
type sparkSpec struct {
	name      string
	datasetGB float64
	// Fig 6 DRAM ladders (paper values).
	sdDramGB []float64
	thDramGB []float64
	// thH1Frac is the hand-tuned H1 share of DRAM (§6: 50-90%).
	thH1Frac float64
	// hugePages: the paper uses 2MB mappings for the ML streamers.
	hugePages bool
	parts     int
	run       func(ctx *spark.Context, datasetBytes int64) (float64, error)
}

// The dataset constructors below go through the workloads memo cache:
// the generators are pure functions of their parameters, so every run of
// the same workload at the same scale shares one generation pass and one
// immutable in-memory dataset (the partition builders only read it).

// graph sizing: edges ≈ datasetBytes/16 (8B edge word + headers + ids),
// degree 8.
func graphFromBytes(seed uint64, datasetBytes int64) *workloads.Graph {
	edges := datasetBytes / 16
	deg := 8.0
	n := int(float64(edges) / deg)
	if n < 64 {
		n = 64
	}
	return workloads.CachedGraph(seed, n, deg, 0.8)
}

// giraphGraphFromBytes sizes Giraph graphs: each edge entry is two heap
// words (target + weight) plus per-vertex array headers, ~24 bytes/edge.
func giraphGraphFromBytes(seed uint64, datasetBytes int64) *workloads.Graph {
	edges := datasetBytes / 24
	deg := 8.0
	n := int(float64(edges) / deg)
	if n < 64 {
		n = 64
	}
	return workloads.CachedGraph(seed, n, deg, 0.8)
}

// pointsFromBytes: dim-10 points at ~112 bytes each.
func pointsFromBytes(seed uint64, datasetBytes int64) *workloads.Points {
	n := int(datasetBytes / 112)
	if n < 64 {
		n = 64
	}
	return workloads.CachedPoints(seed, n, 10)
}

// rowsFromBytes: ~56 bytes per row.
func rowsFromBytes(seed uint64, datasetBytes int64) *workloads.Rows {
	n := int(datasetBytes / 56)
	if n < 64 {
		n = 64
	}
	return workloads.CachedRows(seed, n, 512)
}

func sum64(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sparkSpecs is the Table 3 registry. DRAM ladders follow Fig 6's x-axis
// labels; iteration counts are scaled versions of the paper's (100-epoch
// trainings run 12 epochs — the cache:compute ratio per epoch is what
// shapes the figures, not the epoch count).
var sparkSpecs = map[string]*sparkSpec{
	"PR": {name: "PR", datasetGB: 80, sdDramGB: []float64{32, 48, 80, 144}, thDramGB: []float64{32, 80}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(101, ds), 128)
			r, err := g.PageRank(10)
			return sum64(r), err
		}},
	"CC": {name: "CC", datasetGB: 84, sdDramGB: []float64{33, 50, 84, 152}, thDramGB: []float64{33, 84}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(102, ds), 128)
			r, err := g.ConnectedComponents(12)
			var s float64
			for _, l := range r {
				s += float64(l)
			}
			return s, err
		}},
	"SSSP": {name: "SSSP", datasetGB: 58, sdDramGB: []float64{27, 37, 58, 100}, thDramGB: []float64{37, 58}, thH1Frac: 0.72, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(103, ds), 128)
			r, err := g.SSSP(0, 12)
			var s float64
			for _, d := range r {
				if d < 1e18 {
					s += d
				}
			}
			return s, err
		}},
	"SVD": {name: "SVD", datasetGB: 40, sdDramGB: []float64{22, 28, 40, 64}, thDramGB: []float64{28, 40}, thH1Frac: 0.85, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(104, ds), 128)
			return g.SVDPlusPlus(5, 8)
		}},
	"TR": {name: "TR", datasetGB: 80, sdDramGB: []float64{47, 56, 64}, thDramGB: []float64{47, 64}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(105, ds/4), 128) // TR uses a denser, smaller graph
			c, err := g.TriangleCount()
			return float64(c), err
		}},
	"LR": {name: "LR", datasetGB: 70, sdDramGB: []float64{29, 43, 70, 124}, thDramGB: []float64{43, 70}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(106, ds), 128)
			w, err := d.LinearRegression(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"LgR": {name: "LgR", datasetGB: 70, sdDramGB: []float64{29, 43, 70, 124}, thDramGB: []float64{43, 70}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(107, ds), 128)
			w, err := d.LogisticRegression(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"SVM": {name: "SVM", datasetGB: 48, sdDramGB: []float64{28, 32, 36, 48}, thDramGB: []float64{36, 48}, thH1Frac: 0.67, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(108, ds), 128)
			w, err := d.SVM(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"BC": {name: "BC", datasetGB: 98, sdDramGB: []float64{53, 57, 98, 180}, thDramGB: []float64{57, 98}, thH1Frac: 0.84, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(109, ds), 128)
			m, err := d.NaiveBayes()
			if err != nil {
				return 0, err
			}
			return m.Prior[0] + sum64(m.Mean[0]), nil
		}},
	"RL": {name: "RL", datasetGB: 63, sdDramGB: []float64{24, 37, 63}, thDramGB: []float64{37, 63}, thH1Frac: 0.75, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			tbl := sparksql.Load(ctx, rowsFromBytes(110, ds), 128)
			c, err := tbl.RunQueryMix(6)
			return float64(c), err
		}},
	// KM appears only in the Panthera comparison (Fig 12c).
	"KM": {name: "KM", datasetGB: 64, sdDramGB: []float64{32, 64}, thDramGB: []float64{32, 64}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(111, ds), 128)
			return d.KMeans(8, 10)
		}},
}

// SparkWorkloads lists the Spark workload names in Table 3 order.
func SparkWorkloads() []string {
	return []string{"PR", "CC", "SSSP", "SVD", "TR", "LR", "LgR", "SVM", "BC", "RL"}
}

// RunSpark executes one Spark configuration and returns its result.
func RunSpark(cfg SparkRun) RunResult {
	spec, ok := sparkSpecs[cfg.Workload]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Spark workload %q", cfg.Workload))
	}
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.DatasetScale == 0 {
		cfg.DatasetScale = 1
	}
	datasetBytes := int64(float64(GB(spec.datasetGB)) * cfg.DatasetScale)
	heapGB := heapBudgetGB(cfg.DramGB)

	sspec := sizedSpec(cfg.Runtime, cfg.DramGB, sparkTHSizing(spec, cfg, heapGB), cfg.THConfig, cfg.Ctx)
	sspec.DeviceKind = cfg.Device
	sspec.Stripes = cfg.Stripes
	mode := spark.ModeSD
	switch {
	case cfg.Runtime.Info().TeraHeap:
		mode = spark.ModeTH
	case cfg.Runtime == rt.KindMO || cfg.Runtime == rt.KindPanthera:
		mode = spark.ModeMO
	}
	// Row labels come from the kind registry (the six legacy labels are
	// byte-identical to the hand-written ones they replace).
	name := fmt.Sprintf("%s/%s/%.0fGB", spec.name, cfg.Runtime.SparkLabel(), cfg.DramGB)
	ses := rt.NewSession(sspec)

	ctx := spark.NewContext(spark.Conf{
		RT:                ses.Runtime,
		Mode:              mode,
		Threads:           cfg.Threads,
		SerKind:           serde.Kryo,
		OffHeapDev:        ses.Device,
		OffHeapCacheBytes: GB(DR2GB),
		OnHeapCacheBytes:  GB(heapGB) / 2,
	})

	checksum, err := spec.run(ctx, datasetBytes)
	res := collect(ses, name, err)
	res.Checksum = checksum
	return res
}

// heapBudgetGB is the managed-heap budget of a dramGB machine: what the
// DR2 system reserve leaves, floored at 2 GB.
func heapBudgetGB(dramGB float64) float64 {
	heapGB := dramGB - DR2GB
	if heapGB < 2 {
		heapGB = 2
	}
	return heapGB
}

// sizedSpec sizes a kind's session on a dramGB machine, scoped by ctx
// (nil = the process default). Kinds with a second heap (the registry's
// TeraHeap flag) split the budget per th, then apply thConfig; Spark-MO
// sizes its NVM heap to hold the th.DatasetGB working set; Panthera takes
// its fixed hybrid heap; PS and G1 get the whole th.BudgetGB heap.
func sizedSpec(kind rt.Kind, dramGB float64, th rt.THSizing, thConfig func(*core.Config), ctx *RunContext) rt.Spec {
	spec := rt.Spec{Kind: kind, Layers: *orDefault(ctx)}
	switch {
	case kind.Info().TeraHeap:
		h1, cfg := th.Resolve()
		if thConfig != nil {
			thConfig(&cfg)
		}
		spec.H1Size, spec.TH = h1, &cfg
	case kind == rt.KindMO:
		// Spark-MO: heap sized to fit everything, NVM memory mode with
		// DRAM as hardware cache.
		spec.H1Size = GB(th.DatasetGB*3.2 + 16)
		spec.DRAMCacheBytes = GB(dramGB - 2)
	case kind == rt.KindPanthera:
		// 25% DRAM / 75% NVM heap split (§7.5).
		spec.H1Size = GB(64)
		spec.DRAMOldBytes = GB(6)
	default:
		spec.H1Size = GB(th.BudgetGB)
	}
	return spec
}

// sparkTHSizing maps a Table 3 workload onto the shared TeraHeap sizing
// rule: the Spark H1 fractions were hand-tuned at the DR2=16 points
// (where H1 is 0.8 of the executor budget), and the H2 page cache gets
// the fixed system reserve.
func sparkTHSizing(spec *sparkSpec, cfg SparkRun, heapGB float64) rt.THSizing {
	return rt.THSizing{
		BudgetGB:    heapGB,
		H1Frac:      spec.thH1Frac,
		TunedAtFrac: 0.8,
		DatasetGB:   spec.datasetGB * cfg.DatasetScale,
		CacheGB:     DR2GB,
		HugePages:   spec.hugePages,
		BytesPerGB:  Scale,
	}
}

// pct returns part as a percentage of whole (0 when whole is 0).
func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
