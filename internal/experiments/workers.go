package experiments

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// WorkerScalingResult captures the GC worker-scaling figure: the Figure 7
// configuration pair (Spark PR at the 80 GB DRAM point, Spark-SD and
// TeraHeap) run at each gang size. Results are grouped per configuration
// in ascending worker order.
type WorkerScalingResult struct {
	Workers []int
	// Rows holds one entry per (config, workers) pair, config-major,
	// workers ascending within a config.
	Rows []metrics.PauseRow
	// Results are the raw runs, parallel to Rows.
	Results []RunResult
}

// DefaultWorkerCounts are the gang sizes of the worker-scaling figure.
// Each divides the next, which pins the round-robin shards at 2w to
// refine the shards at w and therefore max-over-workers — and with it the
// modeled pause — to be monotone non-increasing left to right.
func DefaultWorkerCounts() []int { return []int{1, 2, 4, 8} }

// WorkerScaling runs the Figure 7 pair across the given gang sizes (nil
// uses DefaultWorkerCounts). Every run scopes its own copy of the
// environment's layers: verification, fault, and writeback settings are
// inherited; only GCWorkers varies.
func (e *Env) WorkerScaling(counts []int) WorkerScalingResult {
	if len(counts) == 0 {
		counts = DefaultWorkerCounts()
	}
	configs := []struct {
		label   string
		runtime rt.Kind
	}{
		{"spark-pr/sd/80GB", rt.KindPS},
		{"spark-pr/th/80GB", rt.KindTH},
	}

	var specs []Spec
	for _, cfg := range configs {
		for _, w := range counts {
			ctx := e.Layers
			ctx.GCWorkers = w
			specs = append(specs, SparkSpec(SparkRun{
				Workload: "PR", Runtime: cfg.runtime, DramGB: 80, Ctx: &ctx,
			}))
		}
	}
	runs := e.RunAll(specs)

	res := WorkerScalingResult{Workers: append([]int(nil), counts...)}
	i := 0
	for _, cfg := range configs {
		for _, w := range counts {
			r := runs[i]
			i++
			res.Rows = append(res.Rows, metrics.PauseRow{
				Name:    cfg.label,
				Workers: w,
				MinorGC: r.B.Get(simclock.MinorGC),
				MajorGC: r.B.Get(simclock.MajorGC),
				Total:   r.B.Total(),
			})
			res.Results = append(res.Results, r)
		}
	}
	return res
}

// Monotone reports whether, within every configuration, total GC time is
// non-increasing as the gang grows — the figure's acceptance property.
// The first violation (if any) is returned for the report.
func (r WorkerScalingResult) Monotone() (bool, string) {
	prev := map[string]metrics.PauseRow{}
	for _, row := range r.Rows {
		if p, ok := prev[row.Name]; ok {
			if row.MinorGC+row.MajorGC > p.MinorGC+p.MajorGC {
				return false, fmt.Sprintf("%s: GC time grew from workers=%d (%v) to workers=%d (%v)",
					row.Name, p.Workers, p.MinorGC+p.MajorGC, row.Workers, row.MinorGC+row.MajorGC)
			}
		}
		prev[row.Name] = row
	}
	return true, ""
}

// CSV renders the figure as plot-ready rows.
func (r WorkerScalingResult) CSV() string { return metrics.CSVPauseScaling(r.Rows) }

// Format renders the worker-scaling table plus the monotonicity verdict.
func (r WorkerScalingResult) Format() string {
	var sb strings.Builder
	sb.WriteString(metrics.FormatPauseScaling(
		"GC worker scaling: Spark PR, 64GB heap, gang 1-8", r.Rows))
	if ok, viol := r.Monotone(); ok {
		sb.WriteString("monotone: GC time non-increasing with gang size in every config\n")
	} else {
		fmt.Fprintf(&sb, "monotone: VIOLATED — %s\n", viol)
	}
	return sb.String()
}
