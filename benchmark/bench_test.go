package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload end to end")
	}
}

// TestSmoke runs every workload for one untraced and one traced job at
// the held-out seed 2: every check must pass, and each run must report
// only declared metrics.
func TestSmoke(t *testing.T) {
	skipHeavy(t)
	for _, w := range benchWorkloads {
		r := measure(w, 2, 0, true)
		if r.failed != 0 || len(r.untraced) != 1 || len(r.traced) != 1 {
			t.Fatalf("%s: failed=%d untraced=%d traced=%d: %v", w.name, r.failed, len(r.untraced), len(r.traced), r.errs)
		}
		profile, err := layerTimes(r.profile)
		if err != nil {
			t.Fatal(err)
		}
		checkDeclared(t, w.name, e2eMetrics(r), endToEnd)
		checkDeclared(t, w.name, layerMetrics(r, profile), perLayer)
		for _, d := range endToEnd {
			if v := e2eMetrics(r)[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v)
			}
		}
	}
}

func checkDeclared(t *testing.T, workload string, m map[string]float64, defs []metricDef) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
	}
	for k := range m {
		if !declared[k] {
			t.Errorf("%s: metric %q is not declared", workload, k)
		}
	}
}

// TestFigureAgreement pins each workload at seed 1 to the paper-figure row
// it reproduces: the simulated breakdown must equal the figure run's bit
// for bit, so the benchmark drives the same model as the figures.
func TestFigureAgreement(t *testing.T) {
	skipHeavy(t)
	rows := map[string]struct {
		fig   experiments.RunResult
		total string // the row's total as the figure prints it
	}{
		"graphx-pr-th":   {experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 32}), "156.8ms"},
		"graphx-pr-sd":   {experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindPS, DramGB: 48}), "326.9ms"},
		"graphx-pr-g1":   {experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindG1, DramGB: 80}), "153.7ms"},
		"giraph-cdlp-th": {experiments.RunGiraph(experiments.GiraphRun{Workload: "CDLP", Mode: giraph.ModeTH, DramGB: 74}), "327.5ms"},
		"kv-serve-th":    {experiments.RunServe(experiments.ServeRun{Kind: rt.KindTH, Cfg: serveConfig(1).serve}), ""},
	}
	for _, w := range benchWorkloads {
		row := rows[w.name]
		j := runJob(w.run, w.gen(1), false)
		if j.err != nil {
			t.Fatalf("%s: %v", w.name, j.err)
		}
		b := j.ses.Clock.Breakdown()
		if b != row.fig.B {
			t.Errorf("%s: breakdown %v, figure row %v", w.name, b, row.fig.B)
		}
		if row.total != "" {
			if got := fmt.Sprintf("%.1fms", float64(b.Total())/float64(time.Millisecond)); got != row.total {
				t.Errorf("%s: sim time %s, figure prints %s", w.name, got, row.total)
			}
			continue
		}
		// `teraheap-bench serve` at 60k: p50 432ns, p999 1.0ms, 983 shed.
		got, fig := j.serve, row.fig.Serve
		if got.P50 != fig.P50 || got.P999 != fig.P999 || got.Shed != fig.Shed ||
			got.P50 != 432*time.Nanosecond || got.P999.Round(100*time.Microsecond) != time.Millisecond || got.Shed != 983 {
			t.Errorf("serve: p50=%v p999=%v shed=%d, figure p50=%v p999=%v shed=%d",
				got.P50, got.P999, got.Shed, fig.P50, fig.P999, fig.Shed)
		}
	}
}

// TestHookInertness: the pause timer only reads the wall clock, so a
// traced job has the untraced job's simulated digest.
func TestHookInertness(t *testing.T) {
	skipHeavy(t)
	for _, name := range []string{"graphx-pr-th", "graphx-pr-g1"} {
		w, _ := workloadByName(name)
		in := w.gen(1)
		plain, traced := runJob(w.run, in, false), runJob(w.run, in, true)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", name, plain.err, traced.err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %016x, untraced %016x", name, traced.digest, plain.digest)
		}
		if len(traced.pauses.spans) == 0 {
			t.Errorf("%s: the pause timer saw no collection", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	const mod = "github.com/carv-repro/teraheap-go/internal/"
	cases := map[string]string{
		mod + "vm.(*AddressSpace).Load":                                 "vm",
		mod + "storage.(*PageCache).fault":                              "storage",
		mod + "graphx.(*Graph).PageRank.func1":                          "spark",
		mod + "sparksql.(*Table).RunQueryMix":                           "spark",
		mod + "baselines/g1.(*G1).collectYoung":                         "g1",
		mod + "giraph.(*CDLP).Compute":                                  "giraph",
		mod + "workloads.(*memoCache[go.shape.struct { a.b/c.d }]).get": "workloads",
		mod + "placement.(*NG2C).AllocTarget":                           "other",
		"runtime.mallocgc":                                              "goruntime.mem",
		"runtime.scanobject":                                            "goruntime.mem",
		"internal/runtime/atomic.(*Uint32).Load":                        "goruntime.mem",
		"runtime.mapaccess2_fast64":                                     "goruntime.map",
		"runtime.memhash64":                                             "goruntime.map",
		"internal/runtime/maps.(*Map).getWithKeySmall":                  "goruntime.map",
		"main.runJob":                                                   "other",
		"golang.org/x/exp/slices.Sort":                                  "other",
		"sort.Float64s":                                                 "",
		"math.archExp":                                                  "",
		"hash/fnv.(*sum64a).Write":                                      "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBillTo: standard-library leaves bill to the first caller with a
// layer; Go runtime leaves keep their own bucket.
func TestBillTo(t *testing.T) {
	const mod = "github.com/carv-repro/teraheap-go/internal/"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.archExp", "math.Exp", "math.pow", mod + "workloads.(*Rand).Zipf", mod + "server.(*engine).serve"}, "workloads"},
		{[]string{"runtime.mallocgc", "runtime.newobject", mod + "giraph.(*Engine).gatherMessages"}, "goruntime.mem"},
		{[]string{mod + "vm.(*RAM).Load", mod + "vm.(*AddressSpace).Load"}, "vm"},
		{[]string{"sort.insertionSort", "sort.Sort"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := billTo(c.stack); got != c.want {
			t.Errorf("billTo(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink map[int]int

// TestLayerTimesDecodesProfile decodes a real CPU profile of map-heavy
// work: its samples must land in the Go runtime's map bucket.
func TestLayerTimesDecodesProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 300ms")
	}
	stop, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink = map[int]int{}
		for i := 0; i < 1<<14; i++ {
			sink[i*7919] = i
		}
	}
	layers, err := layerTimes(stop())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range layers {
		total += ns
	}
	if total == 0 || layers["goruntime.map"] == 0 {
		t.Fatalf("layers %v: want samples in goruntime.map", layers)
	}
	if _, err := layerTimes([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(xs, n=4): (q3 - q1) / median.
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{0.5, 0.7, 0.2, 0.9}, 0.9583333333333335},
	}
	for _, c := range cases {
		if got := quartileSpread(c.xs); got-c.want > 1e-12 || c.want-got > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestClassify(t *testing.T) {
	host := metricDef{name: "job_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "rps", better: "higher", bound: 0.10}
	exact := metricDef{name: "sim_s", better: "lower", bound: 0.02, exact: true}
	cases := []struct {
		d      metricDef
		a, b   []float64
		prefix string
		ok     bool
	}{
		{host, []float64{1, 1.01, 0.99}, []float64{1.02, 1.03, 1.01}, "ok", true},
		{host, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "REGRESSED", false},
		{host, []float64{1, 1.5, 0.7}, []float64{1.2, 1.21, 1.19}, "unresolved", true},
		{host, []float64{1, 1.5, 0.7}, []float64{0.5, 0.51, 0.49}, "ok", true}, // every b run beats every a run
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "REGRESSED", false},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok", true},
		{exact, []float64{0.15, 0.15}, []float64{0.15, 0.15}, "identical", true},
		{exact, []float64{0.15, 0.15}, []float64{0.15, 0.1500001}, "DIFFERS", false},
		{host, nil, []float64{1}, "missing", false},
	}
	for i, c := range cases {
		v, ok := classify(c.d, c.a, c.b)
		if ok != c.ok || len(v) < len(c.prefix) || v[:len(c.prefix)] != c.prefix {
			t.Errorf("case %d: classify = %q, %v; want %s..., %v", i, v, ok, c.prefix, c.ok)
		}
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json against the
// contract shape and against the metrics and workloads this program
// declares.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("%d top-level keys, want 6", len(top))
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Command) == 0 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("command %v, run_seconds %d", spec.Command, spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != benchWorkloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q", i, w.Name, len(w.Why), benchWorkloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, implemented %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, implemented %+v", i, m, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}
