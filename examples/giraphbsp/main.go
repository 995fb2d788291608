// giraphbsp runs a Giraph-style BSP computation (weakly connected
// components) under the out-of-core baseline and under TeraHeap with a
// smaller DRAM budget, showing the superstep-labelled tag/move flow of
// the paper's Figure 5.
//
// Run with: go run ./examples/giraphbsp
package main

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func main() {
	graph := workloads.GenGraph(11, 30_000, 8, 0.8)
	fmt.Printf("graph: %d vertices, %d edges\n\n", graph.N, graph.M)

	ooc, oocSum := run(graph, giraph.ModeOOC, 3*storage.MB)
	th, thSum := run(graph, giraph.ModeTH, 2*storage.MB) // 1.5x less DRAM

	if oocSum != thSum {
		panic("configurations disagree on the WCC result")
	}
	rows := []metrics.Row{
		{Name: "Giraph-OOC (3MB DRAM)", B: ooc},
		{Name: "TeraHeap   (2MB DRAM)", B: th},
	}
	fmt.Print(metrics.FormatBreakdown("WCC, TeraHeap with 1.5x less DRAM", rows, true))
}

func run(graph *workloads.Graph, mode giraph.Mode, dram int64) (simclock.Breakdown, float64) {
	// The out-of-core baseline spills to an NVMe SSD; TeraHeap maps H2
	// over the same kind of device.
	spec := rt.Spec{Kind: rt.KindPS, H1Size: dram * 4 / 5}
	if mode == giraph.ModeTH {
		thCfg := core.DefaultConfig(64 * storage.MB)
		thCfg.RegionSize = 64 * storage.KB
		thCfg.CacheBytes = dram / 3
		spec = rt.Spec{Kind: rt.KindTH, H1Size: dram - dram/3, TH: &thCfg}
	}
	ses := rt.NewSession(spec)

	eng, err := giraph.NewEngine(giraph.Conf{
		RT:            ses.Runtime,
		Mode:          mode,
		Threads:       8,
		OOCDev:        ses.Device,
		OOCCacheBytes: dram / 5,
	}, graph, 32)
	if err != nil {
		panic(err)
	}
	vals, err := eng.Run(&giraph.WCC{MaxIters: 25})
	if err != nil {
		panic(fmt.Sprintf("%v failed: %v", mode, err))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	fmt.Printf("%-11s components checksum %.0f, supersteps %d, OOC offloads %d\n",
		mode, sum, eng.Stats.Supersteps, eng.Stats.OOCOffloads)
	return ses.Clock.Breakdown(), sum
}
