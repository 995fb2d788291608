// sparkcache runs the paper's headline Spark scenario end to end: the
// same PageRank job over a cached graph RDD under (1) Spark-SD — native
// JVM with an on-heap/serialized-off-heap cache split — and (2) TeraHeap,
// at the same DRAM budget, printing the execution-time breakdowns side by
// side (a one-workload slice of Figure 6).
//
// Run with: go run ./examples/sparkcache
package main

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

const (
	dramBudget = 4 * storage.MB // total DRAM per configuration
	reserve    = 1 * storage.MB // driver + page-cache share (DR2)
	partitions = 64
)

func main() {
	graph := workloads.GenGraph(7, 40_000, 8, 0.8)
	fmt.Printf("graph: %d vertices, %d edges\n\n", graph.N, graph.M)

	sd := run(graph, spark.ModeSD)
	th := run(graph, spark.ModeTH)

	rows := []metrics.Row{
		{Name: "Spark-SD", B: sd},
		{Name: "TeraHeap", B: th},
	}
	fmt.Print(metrics.FormatBreakdown("PageRank, equal DRAM", rows, true))
	fmt.Printf("\nTeraHeap reduces execution time by %.0f%%\n",
		metrics.Speedup(sd.Total(), th.Total()))
}

func run(graph *workloads.Graph, mode spark.Mode) simclock.Breakdown {
	// Both configurations run on an NVMe SSD: Spark-SD spills its
	// serialized off-heap cache there, TeraHeap maps H2 over it.
	spec := rt.Spec{Kind: rt.KindPS, H1Size: dramBudget - reserve}
	if mode == spark.ModeTH {
		// TeraHeap splits the DRAM budget between H1 and the H2 page
		// cache; the cached graph lives in H2 on the device.
		thCfg := core.DefaultConfig(64 * storage.MB)
		thCfg.RegionSize = 64 * storage.KB
		thCfg.CacheBytes = reserve
		spec.Kind, spec.TH = rt.KindTH, &thCfg
	}
	ses := rt.NewSession(spec)

	ctx := spark.NewContext(spark.Conf{
		RT:                ses.Runtime,
		Mode:              mode,
		Threads:           8,
		SerKind:           serde.Kryo,
		OffHeapDev:        ses.Device,
		OffHeapCacheBytes: reserve,
		OnHeapCacheBytes:  (dramBudget - reserve) / 2,
	})

	g := graphx.Load(ctx, graph, partitions)
	ranks, err := g.PageRank(10)
	if err != nil {
		panic(fmt.Sprintf("%s failed: %v", mode, err))
	}
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	fmt.Printf("%-9s rank mass %.4f, %d minor + %d major GCs\n",
		mode, sum, ses.Runtime.GCStats().MinorCount, ses.Runtime.GCStats().MajorCount)
	return ses.Clock.Breakdown()
}
