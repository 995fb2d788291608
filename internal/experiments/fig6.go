package experiments

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Fig6SparkResult holds one workload's bars.
type Fig6SparkResult struct {
	Workload string
	Rows     []metrics.Row
	Runs     []RunResult
}

// Fig6SparkSpecs enumerates one workload's Figure 6 runs: Spark-SD across
// its DRAM ladder, then TeraHeap at the reduced and full DRAM points.
func Fig6SparkSpecs(workload string) []Spec {
	spec, ok := sparkSpecs[workload]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Spark workload %q", workload))
	}
	var specs []Spec
	for _, d := range spec.sdDramGB {
		specs = append(specs, SparkSpec(SparkRun{Workload: workload, Runtime: rt.KindPS, DramGB: d}))
	}
	for _, d := range spec.thDramGB {
		specs = append(specs, SparkSpec(SparkRun{Workload: workload, Runtime: rt.KindTH, DramGB: d}))
	}
	return specs
}

// Fig6GiraphSpecs enumerates one workload's Giraph runs: OOC then
// TeraHeap across the Fig 6 DRAM points.
func Fig6GiraphSpecs(workload string) []Spec {
	spec, ok := giraphSpecs[workload]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Giraph workload %q", workload))
	}
	var specs []Spec
	for _, d := range spec.dramGB {
		specs = append(specs, GiraphSpec(GiraphRun{Workload: workload, Mode: giraph.ModeOOC, DramGB: d}))
	}
	for _, d := range spec.dramGB {
		specs = append(specs, GiraphSpec(GiraphRun{Workload: workload, Mode: giraph.ModeTH, DramGB: d}))
	}
	return specs
}

// fig6Collect folds executor results into the figure result.
func fig6Collect(workload string, runs []RunResult) Fig6SparkResult {
	res := Fig6SparkResult{Workload: workload, Runs: runs}
	for _, r := range runs {
		res.Rows = append(res.Rows, r.Row())
	}
	return res
}

// Fig6Spark reproduces the Spark half of Figure 6: for each workload,
// Spark-SD across its DRAM ladder and TeraHeap at the reduced and full
// DRAM points, with execution-time breakdowns and OOM markers.
func (e *Env) Fig6Spark(workload string) Fig6SparkResult {
	return fig6Collect(workload, e.RunAll(Fig6SparkSpecs(workload)))
}

// Fig6Giraph reproduces the Giraph half of Figure 6.
func (e *Env) Fig6Giraph(workload string) Fig6SparkResult {
	return fig6Collect(workload, e.RunAll(Fig6GiraphSpecs(workload)))
}

// fig6All runs every workload's specs through one executor submission
// (so parallelism spans workloads, not just DRAM points) and formats the
// figure in workload order.
func (e *Env) fig6All(workloads []string, enum func(string) []Spec, title string) string {
	var all []Spec
	offsets := make([]int, 0, len(workloads)+1)
	for _, w := range workloads {
		offsets = append(offsets, len(all))
		all = append(all, enum(w)...)
	}
	offsets = append(offsets, len(all))
	runs := e.RunAll(all)
	var sb strings.Builder
	for i, w := range workloads {
		r := fig6Collect(w, runs[offsets[i]:offsets[i+1]])
		sb.WriteString(metrics.FormatBreakdown(title+w, r.Rows, true))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig6SparkAll runs every Spark workload and formats the figure.
func (e *Env) Fig6SparkAll() string {
	return e.fig6All(SparkWorkloads(), Fig6SparkSpecs, "Fig 6 Spark-")
}

// Fig6GiraphAll runs every Giraph workload and formats the figure.
func (e *Env) Fig6GiraphAll() string {
	return e.fig6All(GiraphWorkloads(), Fig6GiraphSpecs, "Fig 6 Giraph-")
}
