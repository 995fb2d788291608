package experiments

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// giraphSpec describes one Table 4 workload.
type giraphSpec struct {
	name      string
	datasetGB float64
	// Table 4 shares: heap (or H1) as a fraction of DRAM.
	oocHeapFrac float64
	thH1Frac    float64
	// Fig 6 DRAM points: [reduced, full].
	dramGB []float64
	parts  int
	prog   func(g *workloads.Graph) giraph.Program
}

var giraphSpecs = map[string]*giraphSpec{
	"PR": {name: "PR", datasetGB: 85, oocHeapFrac: 70.0 / 85, thH1Frac: 50.0 / 85, dramGB: []float64{74, 85}, parts: 64,
		prog: func(g *workloads.Graph) giraph.Program { return &giraph.PageRank{Iterations: 10, N: g.N} }},
	"CDLP": {name: "CDLP", datasetGB: 85, oocHeapFrac: 70.0 / 85, thH1Frac: 60.0 / 85, dramGB: []float64{74, 85}, parts: 64,
		prog: func(g *workloads.Graph) giraph.Program { return &giraph.CDLP{Iterations: 10} }},
	"WCC": {name: "WCC", datasetGB: 85, oocHeapFrac: 70.0 / 85, thH1Frac: 60.0 / 85, dramGB: []float64{74, 85}, parts: 64,
		prog: func(g *workloads.Graph) giraph.Program { return &giraph.WCC{MaxIters: 20} }},
	"BFS": {name: "BFS", datasetGB: 65, oocHeapFrac: 48.0 / 65, thH1Frac: 35.0 / 65, dramGB: []float64{57, 65}, parts: 64,
		prog: func(g *workloads.Graph) giraph.Program { return &giraph.BFS{Source: 0, MaxIters: 20} }},
	"SSSP": {name: "SSSP", datasetGB: 90, oocHeapFrac: 75.0 / 90, thH1Frac: 50.0 / 90, dramGB: []float64{78, 90}, parts: 64,
		prog: func(g *workloads.Graph) giraph.Program { return &giraph.SSSP{Source: 0, MaxIters: 20} }},
}

// GiraphWorkloads lists the Graphalytics workloads in Table 4 order.
func GiraphWorkloads() []string { return []string{"PR", "CDLP", "WCC", "BFS", "SSSP"} }

// GiraphRun configures one Giraph experiment run.
type GiraphRun struct {
	Workload     string
	Mode         giraph.Mode
	DramGB       float64
	Threads      int
	DatasetScale float64
	THConfig     func(*core.Config)
	// AnalyzeRegions runs the Fig 10 region-liveness analysis at the end.
	AnalyzeRegions bool
	// Ctx scopes the run's cross-cutting configuration (verification,
	// fault injection, GC gang, writeback depth); nil means the zero
	// rt.Layers, and Env.RunAll fills it from the environment.
	Ctx *rt.Layers
}

// RunGiraph executes one Giraph configuration.
func RunGiraph(cfg GiraphRun) RunResult {
	spec, ok := giraphSpecs[cfg.Workload]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Giraph workload %q", cfg.Workload))
	}
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.DatasetScale == 0 {
		cfg.DatasetScale = 1
	}
	datasetBytes := int64(float64(GB(spec.datasetGB)) * cfg.DatasetScale)
	g := giraphGraphFromBytes(200+uint64(len(spec.name)), datasetBytes)

	// Giraph runs use NewRatio=3 (young = 1/4 of the heap): message
	// stores are bulky long-lived data, so production deployments shrink
	// the young generation.
	giraphHeapCfg := func(size int64) *heap.Config {
		hc := heap.DefaultConfig(size)
		hc.YoungFraction = 0.25
		// Slow tenuring keeps current-superstep message chunks young until
		// their store becomes immutable and move-advised.
		hc.TenureAge = 7
		return &hc
	}

	sspec := rt.Spec{Layers: layersOf(cfg.Ctx)}
	switch cfg.Mode {
	case giraph.ModeTH:
		h1, thCfg := giraphTHSizing(spec, cfg).Resolve()
		if cfg.THConfig != nil {
			cfg.THConfig(&thCfg)
		}
		sspec.Kind = rt.KindTH
		sspec.H1Size = h1
		sspec.HeapCfg = giraphHeapCfg(h1)
		sspec.TH = &thCfg
	default:
		heapGB := cfg.DramGB * spec.oocHeapFrac
		sspec.Kind = rt.KindPS
		sspec.H1Size = GB(heapGB)
		sspec.HeapCfg = giraphHeapCfg(GB(heapGB))
	}
	ses := rt.NewSession(sspec)

	eng, err := giraph.NewEngine(giraph.Conf{
		RT:            ses.Runtime,
		Mode:          cfg.Mode,
		Threads:       cfg.Threads,
		OOCDev:        ses.Device,
		OOCCacheBytes: GB(cfg.DramGB * (1 - spec.oocHeapFrac)),
		// Giraph's OOC keeps data on-heap as long as it can; the old
		// generation is 3/4 of the heap under NewRatio=3.
		OOCHighWater: 0.62,
	}, g, spec.parts)
	var checksum float64
	if err == nil {
		var vals []float64
		if vals, err = eng.Run(spec.prog(g)); err == nil {
			checksum = sum64(vals)
			if cfg.AnalyzeRegions && ses.TH != nil {
				// Shutdown collections: the first moves any still-advised
				// groups (receiving regions are pinned for their cycle), the
				// second reclaims everything that died; then measure.
				if ses.Runtime.FullGC() == nil && ses.Runtime.FullGC() == nil {
					ses.TH.AnalyzeLiveRegions(collectH2Roots(ses.Runtime.(*gc.Collector)))
				}
			}
		}
	}
	res := collect(ses, cfg.name(), err)
	res.Checksum = checksum
	return res
}

// name is the run's result name: workload, mode (th or ooc) and DRAM size.
func (cfg GiraphRun) name() string {
	mode := "ooc"
	if cfg.Mode == giraph.ModeTH {
		mode = "th"
	}
	return fmt.Sprintf("%s/%s/%.0fGB", cfg.Workload, mode, cfg.DramGB)
}

// giraphTHSizing maps a Table 4 workload onto the shared TeraHeap sizing
// rule: the Giraph H1 fraction applies directly to DRAM, and the H2 page
// cache gets whatever DRAM remains after H1.
func giraphTHSizing(spec *giraphSpec, cfg GiraphRun) rt.THSizing {
	return rt.THSizing{
		BudgetGB:   cfg.DramGB,
		H1Frac:     spec.thH1Frac,
		DatasetGB:  spec.datasetGB * cfg.DatasetScale,
		BytesPerGB: Scale,
	}
}

// collectH2Roots gathers every H1→H2 forward reference plus every rooted
// handle pointing into H2 — the root set for the offline Fig 10 analysis.
func collectH2Roots(col *gc.Collector) []vm.Addr {
	m := col.Mem()
	var roots []vm.Addr
	col.Roots.ForEach(func(h *vm.Handle) {
		if a := h.Addr(); !a.IsNull() && col.InSecondHeap(a) {
			roots = append(roots, a)
		}
	})
	scan := func(a vm.Addr) {
		n := m.NumRefs(a)
		for i := 0; i < n; i++ {
			if t := m.RefAt(a, i); !t.IsNull() && col.InSecondHeap(t) {
				roots = append(roots, t)
			}
		}
	}
	col.H1.Eden.Walk(m, scan)
	col.H1.From.Walk(m, scan)
	col.H1.Old.Walk(m, scan)
	return roots
}
