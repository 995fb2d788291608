package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// input is one workload's job input, generated from the seed. Every job
// of a run replays the same input on a fresh session.
type input struct {
	graph *workloads.Graph
	serve server.Config
}

// runFn executes one job on a fresh session built through j and returns a
// hash of the job's answer.
type runFn func(in input, j *job) (answer uint64, err error)

// workload is one benchmark workload: how to build its input from the
// seed, the configuration every measured job runs, and the reference
// configuration whose answer the measured jobs must reproduce bit for bit
// (nil when the workload checks its answer itself).
type workload struct {
	name string
	gen  func(seed uint64) input
	run  runFn
	ref  runFn
}

// The configurations below restate the paper-figure rows they reproduce
// (experiments' Table 3/4 registries are unexported); the figure-agreement
// test pins each one to the row's simulated breakdown.
var benchWorkloads = []workload{
	{name: "graphx-pr-th", gen: prGraph, run: sparkPR(rt.KindTH, 32), ref: sparkPR(rt.KindPS, 144)},
	{name: "graphx-pr-sd", gen: prGraph, run: sparkPR(rt.KindPS, 48), ref: sparkPR(rt.KindPS, 144)},
	{name: "graphx-pr-g1", gen: prGraph, run: sparkPR(rt.KindG1, 80), ref: sparkPR(rt.KindPS, 144)},
	{name: "giraph-cdlp-th", gen: cdlpGraph, run: giraphCDLP(giraph.ModeTH, 74), ref: giraphCDLP(giraph.ModeOOC, 85)},
	{name: "kv-serve-th", gen: serveConfig, run: serveTH},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Spark PageRank (Table 3 "PR"): an 80 GB dataset at 16 bytes per edge and
// degree 8 gives 64k vertices. Seed 1 is the figures' graph seed 101.
const prDatasetGB = 80

func prGraph(seed uint64) input {
	edges := experiments.GB(prDatasetGB) / 16
	return input{graph: workloads.GenGraph(100+seed, int(float64(edges)/8), 8, 0.8)}
}

// sparkPR runs PageRank-10 over the cached adjacency RDD on kind at dramGB
// of DRAM: Spark-SD for PS and G1, Spark over TeraHeap for TH.
func sparkPR(kind rt.Kind, dramGB float64) runFn {
	return func(in input, j *job) (uint64, error) {
		heapGB := dramGB - experiments.DR2GB
		spec := rt.Spec{Kind: kind, H1Size: experiments.GB(heapGB)}
		mode := spark.ModeSD
		if kind == rt.KindTH {
			h1, th := rt.THSizing{
				BudgetGB:    heapGB,
				H1Frac:      0.8,
				TunedAtFrac: 0.8,
				DatasetGB:   prDatasetGB,
				CacheGB:     experiments.DR2GB,
				BytesPerGB:  experiments.Scale,
			}.Resolve()
			spec.H1Size, spec.TH, mode = h1, &th, spark.ModeTH
		}
		ses := j.session(spec)
		var g *graphx.Graph
		j.span("frame.load", func() {
			ctx := spark.NewContext(spark.Conf{
				RT:                ses.Runtime,
				Mode:              mode,
				Threads:           8,
				SerKind:           serde.Kryo,
				OffHeapDev:        ses.Device,
				OffHeapCacheBytes: experiments.GB(experiments.DR2GB),
				OnHeapCacheBytes:  experiments.GB(heapGB) / 2,
			})
			g = graphx.Load(ctx, in.graph, 128)
		})
		var ranks []float64
		var err error
		j.span("frame.compute", func() { ranks, err = g.PageRank(10) })
		return hashFloats(ranks), err
	}
}

// Giraph CDLP (Table 4): 85 GB at 24 bytes per edge and degree 8 gives
// 45k vertices. Seed 1 is the figures' graph seed 204.
const (
	cdlpDatasetGB   = 85
	cdlpOOCHeapFrac = 70.0 / 85
	cdlpTHH1Frac    = 60.0 / 85
)

func cdlpGraph(seed uint64) input {
	edges := experiments.GB(cdlpDatasetGB) / 24
	return input{graph: workloads.GenGraph(203+seed, int(float64(edges)/8), 8, 0.8)}
}

// giraphCDLP runs CDLP-10 in mode at dramGB: Giraph-OOC on PS, or Giraph
// over TeraHeap. Both use NewRatio=3 and slow tenuring, as the figures do.
func giraphCDLP(mode giraph.Mode, dramGB float64) runFn {
	return func(in input, j *job) (uint64, error) {
		spec := rt.Spec{Kind: rt.KindPS, H1Size: experiments.GB(dramGB * cdlpOOCHeapFrac)}
		if mode == giraph.ModeTH {
			h1, th := rt.THSizing{
				BudgetGB:   dramGB,
				H1Frac:     cdlpTHH1Frac,
				DatasetGB:  cdlpDatasetGB,
				BytesPerGB: experiments.Scale,
			}.Resolve()
			spec = rt.Spec{Kind: rt.KindTH, H1Size: h1, TH: &th}
		}
		hc := heap.DefaultConfig(spec.H1Size)
		hc.YoungFraction = 0.25
		hc.TenureAge = 7
		spec.HeapCfg = &hc
		ses := j.session(spec)
		var eng *giraph.Engine
		var err error
		j.span("frame.load", func() {
			eng, err = giraph.NewEngine(giraph.Conf{
				RT:            ses.Runtime,
				Mode:          mode,
				Threads:       8,
				OOCDev:        ses.Device,
				OOCCacheBytes: experiments.GB(dramGB * (1 - cdlpOOCHeapFrac)),
				OOCHighWater:  0.62,
			}, in.graph, 64)
		})
		if err != nil {
			return 0, err
		}
		var labels []float64
		j.span("frame.compute", func() { labels, err = eng.Run(&giraph.CDLP{Iterations: 10}) })
		return hashFloats(labels), err
	}
}

// serveConfig is `teraheap-bench serve reqs=400000` at the default 60k
// req/s operating point, keyed by the seed (seed 1 is the figure's).
func serveConfig(seed uint64) input {
	cfg := server.DefaultConfig()
	cfg.Seed = seed
	cfg.Requests = 400000
	return input{serve: cfg}
}

// serveTH serves the request stream on PS+TeraHeap at the serve plane's
// default 56 GB. A fault-free run must account for every offered request
// as served or shed, with no degraded, faulted or repaired reply.
func serveTH(in input, j *job) (uint64, error) {
	heapGB := experiments.DefaultServeDramGB - experiments.DR2GB
	h1, th := rt.THSizing{
		BudgetGB:    heapGB,
		H1Frac:      0.8,
		TunedAtFrac: 0.8,
		DatasetGB:   float64(in.serve.StoreBytes()) / float64(experiments.Scale),
		CacheGB:     experiments.DR2GB,
		BytesPerGB:  experiments.Scale,
	}.Resolve()
	ses := j.session(rt.Spec{Kind: rt.KindTH, H1Size: h1, TH: &th})
	var err error
	j.span("frame.compute", func() { j.serve, err = server.Run(ses, in.serve) })
	if err != nil {
		return 0, err
	}
	st := j.serve
	if st.Served+st.Shed != st.Offered || st.Retries != 0 || st.Degraded != 0 ||
		st.FaultReplies != 0 || st.Tombstones != 0 {
		return 0, errors.New("serve: unexpected reply accounting: " + st.String())
	}
	return hashInts(st.Offered, st.Served, st.Shed), nil
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashInts(xs ...int64) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprint(h, x, ";")
	}
	return h.Sum64()
}

// simDigest hashes every simulated statistic a job produced: the clock
// breakdown, the collector's per-cycle history, lifecycle events, device
// traffic, the second heap's counters and page cache, and the serve report.
// Every job of a run replays the same input, so every digest must match.
func simDigest(j *job) uint64 {
	h := fnv.New64a()
	ses := j.ses
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v", ses.Clock.Breakdown(), *ses.Runtime.GCStats(), *ses.Events, ses.Device.Stats())
	if ses.TH != nil {
		c := ses.TH.Mapped().Cache()
		fmt.Fprintf(h, "|%+v|%d|%d", ses.TH.Stats(), c.Faults, c.SeqFaults)
	}
	if j.serve != nil {
		fmt.Fprintf(h, "|%+v", *j.serve)
	}
	return h.Sum64()
}
