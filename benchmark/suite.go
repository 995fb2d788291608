package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// rounds is how many untraced runs of each workload one suite makes. The
// workloads take turns in a fixed order, so slow drift in the host's load
// spreads over all of them.
const rounds = 3

// suiteResult is a whole-suite invocation, as written by --json.
type suiteResult struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

// runSuite runs every workload for rounds untraced runs, plus one traced
// run each when traced is set, one child process per run and one run at a
// time. It reports whether every run was correct and every run of a
// workload had the same simulated digest.
func runSuite(seed uint64, seconds float64, traced bool, jsonOut string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchmark")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	out := filepath.Join(tmp, "run.json")

	suite := suiteResult{Seed: seed, Seconds: seconds}
	n := rounds
	if traced {
		n++
	}
	for round := 0; round < n; round++ {
		trace := "0"
		if round == rounds {
			trace = "1"
		}
		for _, w := range benchWorkloads {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--json", out)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(out)
			if err != nil {
				return false, fmt.Errorf("%s: %v (run: %v)", w.name, err, runErr)
			}
			var res runResult
			if err := json.Unmarshal(b, &res); err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if err := os.Remove(out); err != nil {
				return false, err
			}
			suite.Runs = append(suite.Runs, res)
		}
	}
	ok := printSuite(os.Stdout, suite)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, suite); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runsOf returns the workload's runs, traced or not.
func (s suiteResult) runsOf(workload string, traced bool) []runResult {
	var rs []runResult
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == traced {
			rs = append(rs, r)
		}
	}
	return rs
}

func (s suiteResult) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.runsOf(workload, false) {
		xs = append(xs, r.Metrics[metric])
	}
	return xs
}

// printSuite prints each workload's end-to-end medians over its runs with
// their range and job count, then the traced runs' per-layer metrics, and
// reports whether the suite was correct.
func printSuite(w io.Writer, s suiteResult) bool {
	ok := true
	fmt.Fprintf(w, "seed %d, %g s per run, %d rounds\n", s.Seed, s.Seconds, rounds)
	for _, wl := range benchWorkloads {
		runs := s.runsOf(wl.name, false)
		jobs, correct, digests := 0, true, map[string]bool{}
		for _, r := range s.Runs {
			if r.Workload == wl.name {
				correct = correct && r.Correct
				digests[r.Digest] = true
			}
		}
		for _, r := range runs {
			jobs += r.Jobs
		}
		status := "correct"
		switch {
		case !correct:
			status = "FAILED"
		case len(digests) != 1:
			correct, status = false, "SIM DIGEST DIFFERS ACROSS RUNS"
		}
		ok = ok && correct
		fmt.Fprintf(w, "\n%s  (N=%d jobs in %d runs, %s)\n", wl.name, jobs, len(runs), status)
		for _, d := range endToEnd {
			xs := s.values(wl.name, d.name)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			fmt.Fprintf(w, "  %-14s %12.6g %-4s [%.6g .. %.6g]\n", d.name, median(xs), d.unit, lo, hi)
		}
	}
	if len(s.runsOf(benchWorkloads[0].name, true)) == 0 {
		return ok
	}
	fmt.Fprintf(w, "\nper-layer (traced run, per job)\n%-24s", "metric")
	for _, wl := range benchWorkloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-24s", d.name+" ("+d.unit+")")
		for _, wl := range benchWorkloads {
			v := 0.0
			if rs := s.runsOf(wl.name, true); len(rs) > 0 {
				v = rs[0].Metrics[d.name]
			}
			fmt.Fprintf(w, " %14.6g", v)
		}
		fmt.Fprintln(w)
	}
	return ok
}

// compareFiles classifies every workload × end-to-end metric of suite b
// against suite a and prints one row per workload. It reports false when
// a metric regressed past its bound, an exact metric or the simulated
// digest differs, or a run was incorrect.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	var a, b suiteResult
	for _, f := range []struct {
		path string
		s    *suiteResult
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.s); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	ok := true
	for _, wl := range benchWorkloads {
		var row strings.Builder
		fmt.Fprintf(&row, "%-15s", wl.name)
		for _, d := range endToEnd {
			verdict, good := classify(d, a.values(wl.name, d.name), b.values(wl.name, d.name))
			fmt.Fprintf(&row, "  %s %s", d.name, verdict)
			ok = ok && good
		}
		digests := map[string]bool{}
		for _, s := range []suiteResult{a, b} {
			for _, r := range s.Runs {
				if r.Workload == wl.name {
					digests[r.Digest] = true
					ok = ok && r.Correct
				}
			}
		}
		if len(digests) == 1 {
			row.WriteString("  digest identical")
		} else {
			ok = false
			row.WriteString("  digest DIFFERS")
		}
		fmt.Fprintln(w, row.String())
	}
	return ok, nil
}

// classify compares one metric's runs: exact metrics must be identical;
// host metrics are unresolved when either side's quartile spread exceeds
// the bound (unless every run of b beats every run of a), regressed when
// b's median is worse than a's by more than the bound, and ok otherwise.
func classify(d metricDef, a, b []float64) (verdict string, ok bool) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", false
	}
	if d.exact {
		for _, xs := range [][]float64{a, b} {
			for _, x := range xs {
				if x != a[0] {
					return "DIFFERS", false
				}
			}
		}
		return "identical", true
	}
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (d.better == "lower" && y >= x) || (d.better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	spread := math.Max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > d.bound && !allBetter:
		return fmt.Sprintf("unresolved(%+.1f%%, spread %.1f%%)", 100*change, 100*spread), true
	case worse > d.bound:
		return fmt.Sprintf("REGRESSED(%+.1f%%)", 100*change), false
	}
	return fmt.Sprintf("ok(%+.1f%%)", 100*change), true
}
