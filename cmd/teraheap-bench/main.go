// Command teraheap-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	teraheap-bench [-csv] [-j N] [-verify] [-fault PLAN] <experiment> [workload]
//
// Experiments: fig6-spark, fig6-giraph, fig7, fig8, fig9a, fig9b, fig10,
// fig11a, fig11b, fig12a, fig12b, fig12c, fig13a, fig13b, table5,
// barrier, ablation-*, workers, chaos, all.
//
// -gc-workers N sets the simulated GC gang size on PS-based runtimes
// (work items dealt round-robin onto N workers, pause charged
// max-over-workers); 1 is the legacy serial charge and the default, so
// default output is byte-identical to before the knob existed. "workers"
// runs the worker-scaling figure (the Figure 7 pair at gangs 1/2/4/8)
// and is deliberately not part of "all".
//
// -j N sets the experiment executor's worker count (default: GOMAXPROCS).
// Results merge in submission order, so figure output on stdout is
// byte-identical for every -j; "all" additionally reports per-figure
// wall-clock times on stderr.
//
// -fault installs a deterministic fault-injection plan (see internal/fault)
// into every run; the same seed yields byte-identical output. The exit code
// is 1 when any run ended OOM/faulted/panicked — the results table still
// prints in full, so scripts get partial results plus a failure signal.
//
// "bench" records the performance trajectory: it times every figure of the
// suite, measures the hot-loop microbenchmarks (ns/op + allocs/op), and
// writes BENCH_<rev>.json. "bench diff OLD NEW" compares two trajectory
// files and reports regressions past -threshold (report-only unless
// -strict).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/perf"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/runner"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// suite lists every experiment of the §6-§7 evaluation in "all" order.
var suite = []struct {
	name string
	fn   func() string
}{
	{"fig6-spark", experiments.Fig6SparkAll},
	{"fig6-giraph", experiments.Fig6GiraphAll},
	{"fig7", func() string { return experiments.Fig7().Format() }},
	{"fig8", experiments.Fig8},
	{"fig9a", experiments.Fig9a},
	{"fig9b", experiments.Fig9b},
	{"fig10", experiments.Fig10},
	{"fig11a", experiments.Fig11a},
	{"fig11b", experiments.Fig11b},
	{"fig12a", experiments.Fig12a},
	{"fig12b", experiments.Fig12b},
	{"fig12c", experiments.Fig12c},
	{"fig13a", experiments.Fig13a},
	{"fig13b", experiments.Fig13b},
	{"table5", experiments.Table5},
	{"barrier", experiments.BarrierOverhead},
	{"ablation-groups", experiments.AblationGroupMode},
	{"ablation-striping", experiments.AblationStriping},
	{"ablation-hugepages", experiments.AblationHugePages},
	{"ablation-dynamic", experiments.AblationDynamicThresholds},
	{"ablation-sizeseg", experiments.AblationSizeSegregation},
	{"ablation-g1th", experiments.AblationG1TeraHeap},
}

// run executes the CLI and returns its exit code (testable main).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("teraheap-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvOut := fs.Bool("csv", false, "emit fig6/fig7 results as CSV instead of tables")
	jobs := fs.Int("j", 0, "parallel experiment runs (0 = GOMAXPROCS)")
	compare := fs.Bool("compare", false, "with \"all\": rerun the suite at -j 1 and report the speedup")
	verify := fs.Bool("verify", false, "run the heap invariant verifier before and after every GC")
	faultSpec := fs.String("fault", "", "fault-injection plan, e.g. seed=1,dev-err=0.01,wb-fail=0.05")
	gcWorkers := fs.Int("gc-workers", 1, "simulated GC gang size on PS-based runtimes (1 = serial charge)")
	wbDepth := fs.Int("wb-depth", 0, "async writeback queue depth on the H2 device (0 = legacy flat discount)")
	benchOut := fs.String("o", "", "with \"bench\": output path (default BENCH_<rev>.json)")
	trajectory := fs.String("trajectory", "", "with \"bench\": trajectory directory — append this run's point and diff against the previous one")
	benchRev := fs.String("rev", "dev", "with \"bench\": revision label recorded in the report")
	threshold := fs.Float64("threshold", 0.25, "with \"bench diff\": regression threshold (fraction)")
	strict := fs.Bool("strict", false, "with \"bench diff\": exit 1 on regressions instead of report-only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "teraheap-bench: -j %d: worker count must be >= 0 (0 = GOMAXPROCS)\n", *jobs)
		return 2
	}
	if *gcWorkers < 1 {
		fmt.Fprintf(stderr, "teraheap-bench: -gc-workers %d: gang size must be >= 1 (1 = serial charge)\n", *gcWorkers)
		return 2
	}
	if *wbDepth < 0 {
		fmt.Fprintf(stderr, "teraheap-bench: -wb-depth %d: queue depth must be >= 0 (0 = disabled)\n", *wbDepth)
		return 2
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	var plan *fault.Plan
	if *faultSpec != "" {
		p, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "teraheap-bench: -fault: %v\n", err)
			return 2
		}
		plan = p
	}
	prev := runner.SetDefaultWorkers(*jobs)
	defer runner.SetDefaultWorkers(prev)
	prevVerify := experiments.SetVerify(*verify)
	defer experiments.SetVerify(prevVerify)
	prevPlan := experiments.SetFaultPlan(plan)
	defer experiments.SetFaultPlan(prevPlan)
	prevGW := experiments.SetGCWorkers(*gcWorkers)
	defer experiments.SetGCWorkers(prevGW)
	prevWB := experiments.SetWritebackDepth(*wbDepth)
	defer experiments.SetWritebackDepth(prevWB)
	experiments.ResetBadRuns()

	what := fs.Arg(0)
	arg := fs.Arg(1)
	switch what {
	case "fig6-spark":
		if arg != "" {
			if !contains(experiments.SparkWorkloads(), arg) {
				fmt.Fprintf(stderr, "teraheap-bench: unknown Spark workload %q (valid: %v)\n", arg, experiments.SparkWorkloads())
				return 2
			}
			r := experiments.Fig6Spark(arg)
			if *csvOut {
				fmt.Fprint(stdout, metrics.CSVBreakdown(r.Rows))
			} else {
				fmt.Fprint(stdout, metrics.FormatBreakdown("Fig 6 Spark-"+arg, r.Rows, true))
			}
		} else if *csvOut {
			for _, w := range experiments.SparkWorkloads() {
				fmt.Fprint(stdout, metrics.CSVBreakdown(experiments.Fig6Spark(w).Rows))
			}
		} else {
			fmt.Fprint(stdout, experiments.Fig6SparkAll())
		}
	case "fig6-giraph":
		if arg != "" {
			if !contains(experiments.GiraphWorkloads(), arg) {
				fmt.Fprintf(stderr, "teraheap-bench: unknown Giraph workload %q (valid: %v)\n", arg, experiments.GiraphWorkloads())
				return 2
			}
			r := experiments.Fig6Giraph(arg)
			if *csvOut {
				fmt.Fprint(stdout, metrics.CSVBreakdown(r.Rows))
			} else {
				fmt.Fprint(stdout, metrics.FormatBreakdown("Fig 6 Giraph-"+arg, r.Rows, true))
			}
		} else if *csvOut {
			for _, w := range experiments.GiraphWorkloads() {
				fmt.Fprint(stdout, metrics.CSVBreakdown(experiments.Fig6Giraph(w).Rows))
			}
		} else {
			fmt.Fprint(stdout, experiments.Fig6GiraphAll())
		}
	case "fig7":
		r := experiments.Fig7()
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "chaos":
		// The chaos exit-code contract: exit 0 when every run completed —
		// healthy, DEGRADED, or RECOVERED are all acceptable outcomes under
		// an aggressive plan — and exit 1 only when a run panicked (a fault
		// escaped the typed-error paths) or OOMed (the schedule's sizing is
		// meant to survive its plan; an OOM means it no longer does).
		// Faulted runs stay exit 0: a latched persistent failure is the
		// fault plane's expected output on kinds without a recovery layer.
		r := experiments.RunChaos(plan)
		fmt.Fprint(stdout, r.Format())
		return chaosExit("chaos", r, stderr)
	case "serve":
		cfg, ok := parseServeConfig(arg, stderr)
		if !ok {
			return 2
		}
		r := experiments.ServeSweep(cfg, nil)
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "chaos-serve":
		// Same exit contract as chaos: the schedule proves degraded-but-
		// serving, so shed/retried/SLO-violating runs are the point, not a
		// failure. A nil -fault plan uses the default brownout+region-fail
		// schedule.
		cfg, ok := parseServeConfig(arg, stderr)
		if !ok {
			return 2
		}
		r := experiments.ChaosServe(plan, cfg)
		fmt.Fprint(stdout, r.Format())
		return chaosExit("chaos-serve", r.ChaosResult, stderr)
	case "pretenure":
		// The placement-policy figure sweeps every registered runtime kind
		// (or the colon-separated subset in the argument) over one Spark
		// configuration. Like "workers" it is not part of "all": its point
		// is the 8-way kind comparison, which grows with the registry.
		var names []string
		if arg != "" {
			names = strings.Split(arg, ":")
		}
		kinds, err := rt.KindsByName(names)
		if err != nil {
			fmt.Fprintf(stderr, "teraheap-bench: pretenure: %v\n", err)
			return 2
		}
		r := experiments.Pretenure(kinds)
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "workers":
		// The worker-scaling figure is deliberately not part of the "all"
		// suite: it varies GCWorkers, and "all" output stays byte-identical
		// for every flag combination except the model knobs themselves.
		r := experiments.WorkerScaling(nil)
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "bench":
		if fs.Arg(1) == "diff" {
			return runBenchDiff(fs.Arg(2), fs.Arg(3), *threshold, *strict, stdout, stderr)
		}
		return runBench(*benchOut, *benchRev, *trajectory, *threshold, *strict, stdout, stderr)
	case "all":
		parallel, _ := runAll(stdout, stderr)
		if *compare {
			runner.SetDefaultWorkers(1)
			workloads.ResetCaches() // serial rerun regenerates datasets too
			fmt.Fprintf(stderr, "# rerunning at -j 1 for comparison\n")
			serial, _ := runAll(io.Discard, stderr)
			fmt.Fprintf(stderr, "# speedup vs -j 1: %.2fx (parallel %v, serial %v)\n",
				float64(serial)/float64(parallel), parallel.Round(time.Millisecond),
				serial.Round(time.Millisecond))
		}
	default:
		ran := false
		for _, e := range suite {
			if e.name == what {
				fmt.Fprint(stdout, e.fn())
				ran = true
				break
			}
		}
		if !ran {
			fmt.Fprintf(stderr, "teraheap-bench: unknown experiment %q\n\n", what)
			usage(stderr)
			return 2
		}
	}
	// Degraded results still print in full above; the exit code tells
	// scripts the table contains OOM/faulted/panicked runs.
	if n := experiments.BadRuns(); n > 0 {
		fmt.Fprintf(stderr, "teraheap-bench: %d run(s) ended OOM/faulted/panicked (results above are partial)\n", n)
		return 1
	}
	return 0
}

// runBench records the performance trajectory: it runs the full suite
// (figure text discarded — the product is the timings), measures the
// hot-loop microbenchmarks, and writes BENCH_<rev>.json. Unlike "all",
// OOM-by-design runs (the paper's native-JVM OOM bars) do not affect the
// exit code: the subcommand's contract is the JSON file.
func runBench(outPath, rev, trajectory string, threshold float64, strict bool, stdout, stderr io.Writer) int {
	total, figures := runAll(io.Discard, stderr)
	report := &perf.Report{
		Schema:    perf.Schema,
		Rev:       rev,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Jobs:      runner.DefaultWorkers(),
		Figures:   figures,
		TotalNS:   total.Nanoseconds(),
	}
	if n := experiments.BadRuns(); n > 0 {
		fmt.Fprintf(stderr, "# %d run(s) ended OOM/faulted/panicked (expected for native-JVM OOM bars)\n", n)
	}

	fmt.Fprintf(stderr, "# measuring microbenchmarks\n")
	report.Benchmarks = perf.RunMicros()

	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", rev)
	}
	if err := report.WriteFile(outPath); err != nil {
		fmt.Fprintf(stderr, "teraheap-bench: bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (total %v, %d figures, %d benchmarks)\n",
		outPath, time.Duration(report.TotalNS).Round(time.Millisecond),
		len(report.Figures), len(report.Benchmarks))

	// With a trajectory directory, every bench run persists one per-rev
	// point and diffs against the previous one, so the history accumulates
	// without any separate wiring in CI.
	if trajectory != "" {
		prev, prevPath, err := perf.LatestReport(trajectory)
		if err != nil {
			fmt.Fprintf(stderr, "teraheap-bench: bench: %v\n", err)
			return 1
		}
		point, err := perf.AppendToTrajectory(trajectory, report)
		if err != nil {
			fmt.Fprintf(stderr, "teraheap-bench: bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "appended %s\n", point)
		if prev == nil {
			fmt.Fprintf(stdout, "trajectory was empty; no previous point to diff against\n")
			return 0
		}
		fmt.Fprintf(stdout, "diff vs %s (rev %s):\n", prevPath, prev.Rev)
		regs := perf.Diff(prev, report, threshold)
		fmt.Fprint(stdout, perf.FormatRegressions(regs, threshold))
		if strict && len(regs) > 0 {
			return 1
		}
	}
	return 0
}

// runBenchDiff compares two BENCH files. Report-only by default (CI runs
// it against the checked-in baseline without failing the build); -strict
// turns regressions into exit 1.
func runBenchDiff(oldPath, newPath string, threshold float64, strict bool, stdout, stderr io.Writer) int {
	if oldPath == "" || newPath == "" {
		fmt.Fprintln(stderr, "teraheap-bench: usage: bench diff OLD.json NEW.json")
		return 2
	}
	old, err := perf.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "teraheap-bench: bench diff: %v\n", err)
		return 2
	}
	cur, err := perf.ReadFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "teraheap-bench: bench diff: %v\n", err)
		return 2
	}
	regs := perf.Diff(old, cur, threshold)
	fmt.Fprint(stdout, perf.FormatRegressions(regs, threshold))
	if strict && len(regs) > 0 {
		return 1
	}
	return 0
}

// runAll runs the whole suite, streaming figure text to stdout and
// per-figure wall-clock timings to stderr, and returns the total and
// per-figure wall-clock times.
func runAll(stdout, stderr io.Writer) (time.Duration, []perf.Figure) {
	var figures []perf.Figure
	start := time.Now()
	for _, e := range suite {
		figStart := time.Now()
		fmt.Fprint(stdout, e.fn())
		wall := time.Since(figStart)
		figures = append(figures, perf.Figure{Name: e.name, WallNS: wall.Nanoseconds()})
		fmt.Fprintf(stderr, "# %-18s %10v\n", e.name, wall.Round(time.Millisecond))
	}
	total := time.Since(start)
	fmt.Fprintf(stderr, "# %-18s %10v (-j %d)\n", "total", total.Round(time.Millisecond), runner.DefaultWorkers())
	return total, figures
}

// parseServeConfig resolves the serve subcommands' optional config DSL
// argument (empty = defaults); malformed input is a usage error.
func parseServeConfig(arg string, stderr io.Writer) (server.Config, bool) {
	cfg, err := server.ParseConfig(arg)
	if err != nil {
		fmt.Fprintf(stderr, "teraheap-bench: serve config: %v\n", err)
		return cfg, false
	}
	return cfg, true
}

// chaosExit pins the chaos-family exit contract: 0 when every run
// completed (healthy/degraded/recovered/faulted), 1 on panic or OOM.
func chaosExit(what string, r experiments.ChaosResult, stderr io.Writer) int {
	_, _, _, _, oom, panicked := r.Counts()
	if panicked > 0 {
		fmt.Fprintf(stderr, "teraheap-bench: %s: %d run(s) panicked\n", what, panicked)
		return 1
	}
	if oom > 0 {
		fmt.Fprintf(stderr, "teraheap-bench: %s: %d run(s) OOMed\n", what, oom)
		return 1
	}
	return 0
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: teraheap-bench [-csv] [-j N] [-compare] [-verify] [-fault PLAN] [-gc-workers N] [-wb-depth N] <experiment> [workload]
       teraheap-bench serve [CONFIG]
       teraheap-bench [-fault PLAN] chaos-serve [CONFIG]
       teraheap-bench bench [-o FILE] [-rev REV] [-trajectory DIR]
       teraheap-bench bench diff OLD.json NEW.json [-threshold F] [-strict]

experiments:
  fig6-spark [PR|CC|SSSP|SVD|TR|LR|LgR|SVM|BC|RL]
  fig6-giraph [PR|CDLP|WCC|BFS|SSSP]
  fig7 fig8 fig9a fig9b fig10 fig11a fig11b
  fig12a fig12b fig12c fig13a fig13b
  table5 barrier workers serve chaos-serve all chaos bench
  pretenure [KIND:KIND:...]
  ablation-groups ablation-striping ablation-hugepages
  ablation-dynamic ablation-sizeseg ablation-g1th

pretenure is the placement-policy figure: every registered runtime kind
(ps th g1 mo panthera g1+th ng2c deca, or the colon-separated subset
given as the argument) runs one Spark PageRank configuration; the tables
compare GC pause composition and H2 traffic, plus the NG2C allocation-
site profile and Deca epoch-region counters. Unknown kinds are usage
errors naming the valid set. Not part of "all"; byte-identical for
every -j.

serve is the server-mode workload plane: an open-loop KV/analytics request
stream (Zipf keys, session churn, per-request deadlines, a bounded
admission queue, client retries with exponential backoff) swept over
arrival rate x runtime kind. CONFIG is a comma-separated key=value DSL:
  seed=N rate=R reqs=N clients=N keys=N zipf=S vwords=N deadline=DUR
  queue=N retries=N backoff=DUR reads=F scan=F scanlen=N churn=F hot=F
e.g. 'rate=60000,deadline=2ms,queue=64' (empty = defaults; unknown or
duplicate keys and out-of-range knobs are usage errors). Like "workers",
serve is deliberately not part of "all". Same seed => byte-identical
output. chaos-serve runs the serve schedule (TeraHeap at 1x and 3x
overload around the PS baseline) under -fault, defaulting to a brownout +
region-fail + corrupt plan, with the verifier forced on.

flags:
  -j N       run N experiment configurations in parallel (0 = GOMAXPROCS,
             N < 0 is a usage error); output is byte-identical for every -j
  -compare   with "all": rerun at -j 1 and report the measured speedup
  -csv       emit fig6/fig7 results as CSV
  -verify    run the heap invariant verifier before and after every GC
             (the VerifyBeforeGC/VerifyAfterGC analog; panics on the first
             violation; TH_VERIFY=1 in the environment does the same)
  -fault PLAN
             deterministic fault-injection plan, a comma-separated DSL:
             seed=N,dev-err=P,max-retries=N,backoff=DUR,spike=P[xF],
             brownout=EVERY:LEN[xF],wb-fail=P,torn=P,h2-exhaust=P,
             region-fail=P,corrupt=P
             (same seed => byte-identical results; empty = no faults;
             duplicate keys are a usage error)
  -gc-workers N
             simulated GC gang size on PS-based runtimes: work items are
             dealt round-robin onto N workers and the pause is charged
             max-over-workers plus a per-barrier sync cost (1 = the legacy
             serial charge, byte-identical to before the knob; N < 1 is a
             usage error). "workers" runs the scaling figure at 1/2/4/8.
  -wb-depth N
             async writeback queue depth on the H2/off-heap device: H2
             promotion and page-cache writeback submit batches that drain
             at safepoints (0 = legacy flat overlap discount; N < 0 is a
             usage error)
  -o FILE    with "bench": output path (default BENCH_<rev>.json)
  -rev REV   with "bench": revision label recorded in the report
  -trajectory DIR
             with "bench": append this run's point to the persisted
             trajectory in DIR and diff against the previous point
  -threshold F
             with "bench diff": wall-clock/ns regression threshold as a
             fraction (default 0.25; allocs/op regress on any increase)
  -strict    with "bench diff": exit 1 on regressions (default report-only)

exit status: 0 clean; 1 when any run ended OOM/faulted/panicked (the full
results table still prints); 2 usage errors. "chaos" runs a fixed schedule
(fig7 pair, reduced-DRAM LR, fig9a hint pair) with the verifier forced on.
The chaos/chaos-serve exit contract: exit 0 when every run completed —
healthy, DEGRADED, RECOVERED, and FAULTED are all expected under an
aggressive plan — and exit 1 only when a run panicked or OOMed.
A RECOVERED status marks a TeraHeap run whose self-healing layer salvaged
failed H2 regions (region-fail/corrupt plans) and still produced the
correct result; recovered runs exit 0.
"bench" writes the BENCH_<rev>.json perf trajectory (per-figure wall-clock
+ hot-loop microbenchmarks) and exits 0 even for OOM-by-design runs.`)
}
