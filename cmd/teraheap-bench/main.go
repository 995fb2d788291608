// Command teraheap-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	teraheap-bench [-csv] [-j N] [-verify] [-fault PLAN] <experiment> [workload]
//	teraheap-bench [-verify] [-fault PLAN] run spark|giraph [-workload W] [-dram GB] ...
//
// Experiments: fig6-spark, fig6-giraph, fig7, fig8, fig9a, fig9b, fig10,
// fig11a, fig11b, fig12a, fig12b, fig12c, fig13a, fig13b, table5,
// barrier, ablation-*, workers, chaos, all. "run" executes one Spark or
// Giraph configuration and prints its breakdown, GC and device counters.
//
// The flags build one experiments.Env, which the CLI hands to every
// figure; there is no process-global run state.
//
// -gc-workers N sets the simulated GC gang size on PS-based runtimes
// (work items dealt round-robin onto N workers, pause charged
// max-over-workers); 1, the default, is a gang of one: the serial charge
// with no steal/sync, so default output is byte-identical to before the
// knob existed. The flag reaches every figure, "chaos" included. "workers"
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
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// suite lists every experiment of the §6-§7 evaluation in "all" order.
var suite = []struct {
	name string
	fn   func(*experiments.Env) string
}{
	{"fig6-spark", (*experiments.Env).Fig6SparkAll},
	{"fig6-giraph", (*experiments.Env).Fig6GiraphAll},
	{"fig7", func(e *experiments.Env) string { return e.Fig7().Format() }},
	{"fig8", (*experiments.Env).Fig8},
	{"fig9a", (*experiments.Env).Fig9a},
	{"fig9b", (*experiments.Env).Fig9b},
	{"fig10", (*experiments.Env).Fig10},
	{"fig11a", (*experiments.Env).Fig11a},
	{"fig11b", (*experiments.Env).Fig11b},
	{"fig12a", (*experiments.Env).Fig12a},
	{"fig12b", (*experiments.Env).Fig12b},
	{"fig12c", (*experiments.Env).Fig12c},
	{"fig13a", (*experiments.Env).Fig13a},
	{"fig13b", (*experiments.Env).Fig13b},
	{"table5", (*experiments.Env).Table5},
	{"barrier", (*experiments.Env).BarrierOverhead},
	{"ablation-groups", (*experiments.Env).AblationGroupMode},
	{"ablation-striping", (*experiments.Env).AblationStriping},
	{"ablation-hugepages", (*experiments.Env).AblationHugePages},
	{"ablation-dynamic", (*experiments.Env).AblationDynamicThresholds},
	{"ablation-sizeseg", (*experiments.Env).AblationSizeSegregation},
	{"ablation-g1th", (*experiments.Env).AblationG1TeraHeap},
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
	wbDepth := fs.Int("wb-depth", 0, "async writeback queue depth on the H2 device (0 = flat overlap discount)")
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
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	env := &experiments.Env{
		Layers: rt.Layers{Verify: *verify, FaultPlan: plan, GCWorkers: *gcWorkers, WritebackDepth: *wbDepth},
		Jobs:   *jobs,
	}

	what := fs.Arg(0)
	arg := fs.Arg(1)
	switch what {
	case "fig6-spark":
		if arg != "" {
			if !contains(experiments.SparkWorkloads(), arg) {
				fmt.Fprintf(stderr, "teraheap-bench: unknown Spark workload %q (valid: %v)\n", arg, experiments.SparkWorkloads())
				return 2
			}
			r := env.Fig6Spark(arg)
			if *csvOut {
				fmt.Fprint(stdout, metrics.CSVBreakdown(r.Rows))
			} else {
				fmt.Fprint(stdout, metrics.FormatBreakdown("Fig 6 Spark-"+arg, r.Rows, true))
			}
		} else if *csvOut {
			for _, w := range experiments.SparkWorkloads() {
				fmt.Fprint(stdout, metrics.CSVBreakdown(env.Fig6Spark(w).Rows))
			}
		} else {
			fmt.Fprint(stdout, env.Fig6SparkAll())
		}
	case "fig6-giraph":
		if arg != "" {
			if !contains(experiments.GiraphWorkloads(), arg) {
				fmt.Fprintf(stderr, "teraheap-bench: unknown Giraph workload %q (valid: %v)\n", arg, experiments.GiraphWorkloads())
				return 2
			}
			r := env.Fig6Giraph(arg)
			if *csvOut {
				fmt.Fprint(stdout, metrics.CSVBreakdown(r.Rows))
			} else {
				fmt.Fprint(stdout, metrics.FormatBreakdown("Fig 6 Giraph-"+arg, r.Rows, true))
			}
		} else if *csvOut {
			for _, w := range experiments.GiraphWorkloads() {
				fmt.Fprint(stdout, metrics.CSVBreakdown(env.Fig6Giraph(w).Rows))
			}
		} else {
			fmt.Fprint(stdout, env.Fig6GiraphAll())
		}
	case "fig7":
		r := env.Fig7()
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
		r := env.RunChaos(plan)
		fmt.Fprint(stdout, r.Format())
		return chaosExit("chaos", r, stderr)
	case "serve":
		cfg, ok := parseServeConfig(arg, stderr)
		if !ok {
			return 2
		}
		r := env.ServeSweep(cfg, nil)
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
		r := env.ChaosServe(plan, cfg)
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
		r := env.Pretenure(kinds)
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "workers":
		// The worker-scaling figure is deliberately not part of the "all"
		// suite: it varies GCWorkers, and "all" output stays byte-identical
		// for every flag combination except the model knobs themselves.
		r := env.WorkerScaling(nil)
		if *csvOut {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Format())
		}
	case "run":
		if !runOne(env, fs.Args()[1:], stdout, stderr) {
			return 2
		}
	case "all":
		parallel := runAll(env, stdout, stderr)
		if *compare {
			workloads.ResetCaches() // serial rerun regenerates datasets too
			fmt.Fprintf(stderr, "# rerunning at -j 1 for comparison\n")
			serial := runAll(&experiments.Env{Layers: env.Layers, Jobs: 1}, io.Discard, stderr)
			fmt.Fprintf(stderr, "# speedup vs -j 1: %.2fx (parallel %v, serial %v)\n",
				float64(serial)/float64(parallel), parallel.Round(time.Millisecond),
				serial.Round(time.Millisecond))
		}
	default:
		ran := false
		for _, e := range suite {
			if e.name == what {
				fmt.Fprint(stdout, e.fn(env))
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
	if n := env.Unhealthy(); n > 0 {
		fmt.Fprintf(stderr, "teraheap-bench: %d run(s) ended OOM/faulted/panicked (results above are partial)\n", n)
		return 1
	}
	return 0
}

// runAll runs the whole suite on env, streaming figure text to stdout and
// per-figure wall-clock timings to stderr, and returns the total
// wall-clock time.
func runAll(env *experiments.Env, stdout, stderr io.Writer) time.Duration {
	start := time.Now()
	for _, e := range suite {
		figStart := time.Now()
		fmt.Fprint(stdout, e.fn(env))
		fmt.Fprintf(stderr, "# %-18s %10v\n", e.name, time.Since(figStart).Round(time.Millisecond))
	}
	total := time.Since(start)
	fmt.Fprintf(stderr, "# %-18s %10v (-j %d)\n", "total", total.Round(time.Millisecond), env.Jobs)
	return total
}

// runOne is the "run" subcommand: one Spark or Giraph configuration on
// env, printed by printRun. It reports false on a usage error; the run's
// outcome reaches the exit code through env like every figure's.
func runOne(env *experiments.Env, args []string, stdout, stderr io.Writer) bool {
	if len(args) == 0 || (args[0] != "spark" && args[0] != "giraph") {
		fmt.Fprintln(stderr, "teraheap-bench: usage: run spark|giraph [flags] (see -h)")
		return false
	}
	spark := args[0] == "spark"
	fs := flag.NewFlagSet("teraheap-bench run "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	dramDefault := 80.0
	if !spark {
		dramDefault = 85
	}
	workload := fs.String("workload", "PR", "workload: Spark PR CC SSSP SVD TR LR LgR SVM BC RL KM; Giraph PR CDLP WCC BFS SSSP")
	dram := fs.Float64("dram", dramDefault, "DRAM budget in paper-GB")
	threads := fs.Int("threads", 8, "executor (Spark) or compute (Giraph) threads")
	scale := fs.Float64("scale", 1, "dataset scale factor")
	var kindName, device, mode *string
	if spark {
		kindName = fs.String("runtime", "th", "runtime kind: "+strings.Join(rt.KindNames(), " "))
		device = fs.String("device", "nvme", "H2/off-heap device: nvme or nvm")
	} else {
		mode = fs.String("mode", "th", "Giraph mode: ooc or th")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "teraheap-bench: run %s: unexpected argument %q\n", args[0], fs.Arg(0))
		return false
	}
	var spec experiments.Spec
	if spark {
		kind, ok := rt.KindByName(*kindName)
		if !ok {
			fmt.Fprintf(stderr, "teraheap-bench: run: unknown runtime %q (valid: %s)\n", *kindName, strings.Join(rt.KindNames(), " "))
			return false
		}
		devs := map[string]storage.Kind{"nvme": storage.NVMeSSD, "nvm": storage.NVM}
		dev, ok := devs[*device]
		if !ok {
			fmt.Fprintf(stderr, "teraheap-bench: run: unknown device %q (valid: nvme nvm)\n", *device)
			return false
		}
		spec = experiments.SparkSpec(experiments.SparkRun{Workload: *workload, Runtime: kind, DramGB: *dram,
			Device: dev, Threads: *threads, DatasetScale: *scale})
	} else {
		modes := map[string]giraph.Mode{"ooc": giraph.ModeOOC, "th": giraph.ModeTH}
		m, ok := modes[*mode]
		if !ok {
			fmt.Fprintf(stderr, "teraheap-bench: run: unknown Giraph mode %q (valid: ooc th)\n", *mode)
			return false
		}
		spec = experiments.GiraphSpec(experiments.GiraphRun{Workload: *workload, Mode: m, DramGB: *dram,
			Threads: *threads, DatasetScale: *scale})
	}
	printRun(stdout, env.RunAll([]experiments.Spec{spec})[0])
	return true
}

// printRun renders one run: its execution-time breakdown, GC cycle
// counts, device traffic and (TeraHeap runs) H2 movement, or the outcome
// that ended it.
func printRun(w io.Writer, r experiments.RunResult) {
	switch {
	case r.OOM:
		fmt.Fprintf(w, "%s: OUT OF MEMORY\n", r.Name)
		return
	case r.Faulted || r.Failed:
		fmt.Fprintf(w, "%s: FAILED: %s\n", r.Name, r.FailErr)
		return
	}
	us := func(c simclock.Category) time.Duration { return r.B.Get(c).Round(time.Microsecond) }
	fmt.Fprintf(w, "%s\n", r.Name)
	fmt.Fprintf(w, "  total    %12v\n", r.B.Total().Round(time.Microsecond))
	fmt.Fprintf(w, "  other    %12v\n", us(simclock.Other))
	fmt.Fprintf(w, "  s/d+io   %12v\n", us(simclock.SerDesIO))
	fmt.Fprintf(w, "  minorGC  %12v  (%d cycles)\n", us(simclock.MinorGC), r.GCStats.MinorCount)
	fmt.Fprintf(w, "  majorGC  %12v  (%d cycles)\n", us(simclock.MajorGC), r.GCStats.MajorCount)
	fmt.Fprintf(w, "  device   reads %d (%d KB)  writes %d (%d KB)\n",
		r.DevStats.ReadOps, r.DevStats.BytesRead/1024, r.DevStats.WriteOps, r.DevStats.BytesWritten/1024)
	if th := r.THStats; th != nil {
		fmt.Fprintf(w, "  teraheap moved %d objects (%d KB), regions %d allocated / %d reclaimed",
			th.ObjectsMoved, th.BytesMoved/1024, th.RegionsAllocated, th.RegionsReclaimed)
		if th.HighThresholdTrips > 0 {
			fmt.Fprintf(w, ", threshold trips %d", th.HighThresholdTrips)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  checksum %g\n", r.Checksum)
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
       teraheap-bench [-verify] [-fault PLAN] [-gc-workers N] [-wb-depth N] run spark
                      [-workload W] [-runtime KIND] [-dram GB] [-device nvme|nvm] [-threads N] [-scale F]
       teraheap-bench [-verify] [-fault PLAN] [-gc-workers N] [-wb-depth N] run giraph
                      [-workload W] [-mode ooc|th] [-dram GB] [-threads N] [-scale F]

experiments:
  fig6-spark [PR|CC|SSSP|SVD|TR|LR|LgR|SVM|BC|RL]
  fig6-giraph [PR|CDLP|WCC|BFS|SSSP]
  fig7 fig8 fig9a fig9b fig10 fig11a fig11b
  fig12a fig12b fig12c fig13a fig13b
  table5 barrier workers serve chaos-serve all chaos run
  pretenure [KIND:KIND:...]
  ablation-groups ablation-striping ablation-hugepages
  ablation-dynamic ablation-sizeseg ablation-g1th

run executes one configuration and prints its execution-time breakdown,
GC cycles, device traffic and H2 movement: a Spark workload (PR CC SSSP
SVD TR LR LgR SVM BC RL KM; default PR) on a runtime kind (default th) at
-dram GB (default 80), or a Giraph workload (PR CDLP WCC BFS SSSP) in ooc
or th mode (default th) at -dram GB (default 85). An OOM, faulted or
panicked run prints its outcome and exits 1.

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
             max-over-workers plus a per-barrier sync cost above one
             worker (1 = a gang of one, the serial charge; N < 1 is a
             usage error). "workers" runs the scaling figure at 1/2/4/8.
  -wb-depth N
             async writeback queue depth on the H2/off-heap device: H2
             promotion and page-cache writeback submit batches that drain
             at safepoints (0 = flat overlap discount; N < 0 is a
             usage error)

exit status: 0 clean; 1 when any run ended OOM/faulted/panicked (the full
results table still prints); 2 usage errors. "chaos" runs a fixed schedule
(fig7 pair, reduced-DRAM LR, fig9a hint pair) with the verifier forced on.
The chaos/chaos-serve exit contract: exit 0 when every run completed —
healthy, DEGRADED, RECOVERED, and FAULTED are all expected under an
aggressive plan — and exit 1 only when a run panicked or OOMed.
A RECOVERED status marks a TeraHeap run whose self-healing layer salvaged
failed H2 regions (region-fail/corrupt plans) and still produced the
correct result; recovered runs exit 0.`)
}
