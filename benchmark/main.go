// Command benchmark measures the TeraHeap simulator end to end and layer by
// layer on five seeded workloads (see README.md).
//
//	benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--json FILE]
//	benchmark [--seed S] [--seconds T] [--trace 0|1] [--json FILE]
//	benchmark --compare A.json B.json
//
// With --workload it runs that workload in this process and prints, as its
// last line, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Without it, it runs every workload in
// rounds, each run in its own child process, and prints a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// traceDir receives the traced runs' span and profile files, relative to
// the directory the benchmark runs from.
const traceDir = ".bench_build/trace"

// runResult is one run's outcome, as written by --json.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Jobs      int                `json:"jobs"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process")
	seed := flag.Uint64("seed", 1, "input seed; 1 reproduces the paper figures' inputs")
	seconds := flag.Float64("seconds", 15, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run and write spans and a CPU profile to "+traceDir)
	jsonOut := flag.String("json", "", "also write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two --json files of whole-suite runs")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			usage("--compare needs two result files")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case flag.NArg() != 0:
		usage("unexpected arguments")
	case *trace != 0 && *trace != 1:
		usage("--trace takes 0 or 1")
	case *seconds < 0:
		usage("--seconds must not be negative")
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *workload == "" {
		ok, err := runSuite(*seed, *seconds, *trace == 1, *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok {
		usage(fmt.Sprintf("unknown workload %q", *workload))
	}
	res, err := runOne(w, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	flag.Usage()
	os.Exit(2)
}

// runOne measures one workload, reports on stderr, and prints the result
// line on stdout.
func runOne(w workload, seed uint64, budget time.Duration, traced bool) (runResult, error) {
	r := measure(w, seed, budget, traced)
	res := runResult{Workload: w.name, Seed: seed, Trace: traced, Correct: r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Jobs: len(r.untraced)}
	if r.sim != nil {
		res.Digest = fmt.Sprintf("%016x", r.digest)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		profile, err := layerTimes(r.profile)
		if err != nil {
			return res, err
		}
		res.Metrics = layerMetrics(r, profile)
		if err := writeTrace(traceDir, w.name, r.traced, r.profile); err != nil {
			return res, err
		}
	} else {
		res.Metrics = e2eMetrics(r)
	}
	fill(res.Metrics, defs)

	walls := wallTimes(r.untraced)
	fmt.Fprintf(os.Stderr, "%s seed=%d jobs=%d traced=%d attempted=%d failed=%d sim_digest=%s job wall min/p50/max %.4f/%.4f/%.4f s\n",
		w.name, seed, len(r.untraced), len(r.traced), r.attempted, r.failed, res.Digest,
		quantile(walls, 0), median(walls), quantile(walls, 1))
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "  FAIL", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return res, err
	}
	fmt.Println(string(line))
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
