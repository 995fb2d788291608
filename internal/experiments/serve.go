package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/server"
)

// DefaultServeDramGB is the serve plane's machine size: the heap after
// the DR2 reserve comfortably over-provisions the default store (~22 GB),
// so the baselines survive — slowly — instead of OOMing, which is the
// regime where tail latency, not completion, differentiates the kinds.
const DefaultServeDramGB = 56.0

// ServeRun configures one serve-mode run.
type ServeRun struct {
	Kind   rt.Kind
	DramGB float64 // 0 → DefaultServeDramGB
	Cfg    server.Config
	// Recovery overrides the self-healing policy (KindTH only; nil keeps
	// the default). The chaos serve schedule tightens the breaker so a
	// trip and re-admission both happen inside one run.
	Recovery *recovery.Policy
	// Ctx scopes the run's cross-cutting configuration; nil means the
	// zero rt.Layers, and Env.RunAll fills it from the environment.
	Ctx *rt.Layers
}

// RunServe executes one serve configuration: it sizes a session for the
// requested kind exactly like the Spark runs do, hands it to server.Run,
// and maps the outcome onto the shared RunResult shape.
func RunServe(cfg ServeRun) RunResult {
	dram := cfg.dramGB()
	heapGB := heapBudgetGB(dram)
	th := rt.THSizing{
		BudgetGB:    heapGB,
		H1Frac:      0.8,
		TunedAtFrac: 0.8,
		DatasetGB:   float64(cfg.Cfg.StoreBytes()) / float64(Scale),
		CacheGB:     DR2GB,
		BytesPerGB:  Scale,
	}
	sspec := sizedSpec(cfg.Kind, dram, th, nil, cfg.Ctx)
	sspec.Recovery = cfg.Recovery

	ses := rt.NewSession(sspec)
	stats, err := server.Run(ses, cfg.Cfg)
	res := collect(ses, cfg.name(), err)
	res.Serve = stats
	return res
}

// dramGB is the run's DRAM size: DramGB, or DefaultServeDramGB when 0.
func (cfg ServeRun) dramGB() float64 {
	if cfg.DramGB == 0 {
		return DefaultServeDramGB
	}
	return cfg.DramGB
}

// name is the run's result name: kind, DRAM size and offered rate.
func (cfg ServeRun) name() string {
	return fmt.Sprintf("serve/%s/%.0fGB/r%gk", cfg.Kind, cfg.dramGB(), cfg.Cfg.RatePerSec/1000)
}

// DefaultServeRates are the sweep's offered arrival rates: under-loaded,
// the default operating point, and 3x overload where admission control
// must shed.
func DefaultServeRates() []float64 { return []float64{20000, 60000, 180000} }

// ServeResult is the serve figure: every runtime kind at every offered
// rate, kind-major with rates ascending within a kind.
type ServeResult struct {
	Rates   []float64
	Rows    []metrics.ServeRow
	Results []RunResult
}

// ServeSweep runs the arrival-rate x runtime-kind sweep on the base
// config (rates nil uses DefaultServeRates). The sweep runs under the
// environment's layers, so -verify/-fault/-gc-workers/-wb-depth apply;
// like the worker-scaling figure it is deliberately not part of "all".
func (e *Env) ServeSweep(base server.Config, rates []float64) ServeResult {
	if len(rates) == 0 {
		rates = DefaultServeRates()
	}
	// ParseConfig already rejected unknown names, so an error here is a
	// programmer error.
	kinds, err := rt.KindsByName(base.Kinds)
	if err != nil {
		panic("experiments: serve: " + err.Error())
	}
	var specs []Spec
	for _, k := range kinds {
		for _, r := range rates {
			cfg := base
			cfg.RatePerSec = r
			specs = append(specs, Spec{Serve: &ServeRun{Kind: k, Cfg: cfg}})
		}
	}
	runs := e.RunAll(specs)

	res := ServeResult{Rates: append([]float64(nil), rates...), Results: runs}
	i := 0
	for range kinds {
		for _, rate := range rates {
			res.Rows = append(res.Rows, serveRow(runs[i], rate))
			i++
		}
	}
	return res
}

// serveRow flattens a serve run into its figure row.
func serveRow(r RunResult, rate float64) metrics.ServeRow {
	row := metrics.ServeRow{Name: r.Name, Rate: rate, OOM: r.OOM, Fault: r.Faulted || r.Failed}
	if s := r.Serve; s != nil {
		row.Served = s.Served
		row.Shed = s.Shed
		row.Retries = s.Retries
		row.P50, row.P99, row.P999 = s.P50, s.P99, s.P999
		row.SLOViol = s.SLOViolations
		row.PauseV = s.PauseViolations
		row.RPS = s.ThroughputRPS
	}
	if row.Fault {
		row.Note = firstLine(r.FailErr)
	}
	if r.Recovered() {
		row.Note = strings.TrimSpace("RECOVERED " + row.Note)
	}
	return row
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Format renders the serve figure.
func (r ServeResult) Format() string {
	var sb strings.Builder
	sb.WriteString(metrics.FormatServeTable(
		"serve: open-loop KV/analytics plane, rate x runtime kind", r.Rows))
	sb.WriteString("sloViol counts replies served past the deadline; shed requests never enter service\n")
	return sb.String()
}

// CSV renders the serve figure as plot-ready rows.
func (r ServeResult) CSV() string { return metrics.CSVServe(r.Rows) }

// ChaosServeResult is the chaos serve schedule's report. It reuses the
// chaos outcome buckets; Format adds the serve plane's SLO counters and
// the per-window throughput trajectory.
type ChaosServeResult struct {
	ChaosResult
}

// chaosServePolicy tightens the breaker so that, under the default chaos
// serve plan, a trip AND a cooldown re-admission both land inside one
// run — the schedule's acceptance property is throughput recovering
// after H2 is re-admitted.
func chaosServePolicy() *recovery.Policy {
	return &recovery.Policy{
		Enabled:           true,
		BreakerK:          2,
		WindowOps:         400000,
		CooldownOps:       30000,
		ScrubRegionsPerGC: 1,
		ValidateRepair:    true,
	}
}

// DefaultChaosServePlan is the brownout + region-fail schedule the serve
// plane must survive: periodic device brownouts stretch service times
// into the deadline (shedding), persistent region failures force salvage
// and breaker trips (degraded replies and retries), and silent corruption
// leaves tombstones for reads to trip over.
func DefaultChaosServePlan() *fault.Plan {
	p, err := fault.ParsePlan("seed=1,brownout=2000:300x8,region-fail=0.05,wb-fail=0.05,torn=0.05,corrupt=0.05")
	if err != nil {
		panic(fmt.Sprintf("experiments: default chaos serve plan: %v", err))
	}
	return p
}

// ChaosServe runs the chaos serve schedule under the given plan (nil uses
// DefaultChaosServePlan) with the verifier forced on: the TeraHeap pair at
// the default and 3x-overload rates around the PS baseline. Like RunChaos
// it scopes every run explicitly and takes only the worker count from e.
func (e *Env) ChaosServe(plan *fault.Plan, base server.Config) ChaosServeResult {
	if plan == nil {
		plan = DefaultChaosServePlan()
	}
	ctx := &rt.Layers{Verify: true, FaultPlan: plan}
	pol := chaosServePolicy()
	hi := base
	hi.RatePerSec = base.RatePerSec * 3
	specs := []Spec{
		{Serve: &ServeRun{Kind: rt.KindTH, Cfg: base, Recovery: pol, Ctx: ctx}},
		{Serve: &ServeRun{Kind: rt.KindPS, Cfg: base, Ctx: ctx}},
		{Serve: &ServeRun{Kind: rt.KindTH, Cfg: hi, Recovery: pol, Ctx: ctx}},
	}
	return ChaosServeResult{ChaosResult{Plan: plan, Runs: e.RunAll(specs)}}
}

// ThroughputRecovered reports whether a run's serve windows show the
// degraded-then-recovered shape: the last window's throughput back above
// half the peak window's. Runs without windows trivially fail.
func throughputRecovered(s *server.Stats) (last, peak float64, ok bool) {
	if s == nil || len(s.Windows) == 0 {
		return 0, 0, false
	}
	for _, w := range s.Windows {
		if rps := w.RPS(); rps > peak {
			peak = rps
		}
	}
	last = s.Windows[len(s.Windows)-1].RPS()
	return last, peak, peak > 0 && last >= 0.5*peak
}

// Format renders the chaos serve report: one status line per run with the
// SLO counters, the recovery line for salvaged runs, the per-window
// throughput trajectory with its recovery verdict, and schedule totals.
func (r ChaosServeResult) Format() string {
	plan := "(no faults)"
	if r.Plan != nil {
		plan = r.Plan.String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== chaos-serve: %d runs under plan [%s], verifier on ==\n", len(r.Runs), plan)
	var totShed, totRetries, totSLO int64
	for _, run := range r.Runs {
		status := run.status()
		if s := run.Serve; s != nil {
			totShed += s.Shed
			totRetries += s.Retries
			totSLO += s.SLOViolations
			fmt.Fprintf(&sb, "%-24s %-9s %s\n", run.Name, status, s.String())
			if run.Recovered() {
				fmt.Fprintf(&sb, "  recovery: %s\n", run.Recovery.String())
			}
			sb.WriteString("  windows(rps):")
			for _, w := range s.Windows {
				fmt.Fprintf(&sb, " %.0f", w.RPS())
			}
			if last, peak, ok := throughputRecovered(s); ok {
				fmt.Fprintf(&sb, "  throughput: recovered (last %.0f >= 50%% of peak %.0f)\n", last, peak)
			} else {
				fmt.Fprintf(&sb, "  throughput: NOT RECOVERED (last %.0f, peak %.0f)\n", last, peak)
			}
		} else {
			fmt.Fprintf(&sb, "%-24s %-9s total=%-14v %s\n", run.Name, status,
				run.B.Total().Round(time.Microsecond), run.FaultStats.String())
		}
		if run.FailErr != "" {
			fmt.Fprintf(&sb, "  cause: %s\n", firstLine(run.FailErr))
		}
	}
	fmt.Fprintf(&sb, "totals: shed=%d retries=%d slo-violations=%d\n", totShed, totRetries, totSLO)
	healthy, recovered, degraded, faulted, oom, panicked := r.Counts()
	fmt.Fprintf(&sb, "healthy=%d recovered=%d degraded=%d faulted=%d oom=%d panicked=%d\n",
		healthy, recovered, degraded, faulted, oom, panicked)
	return sb.String()
}
