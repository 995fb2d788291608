package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression.
	bound float64
	// exact marks a simulated metric: an unchanged model reproduces it bit
	// for bit under the same seed.
	exact bool
}

// endToEnd metrics are measured untraced. Host times are medians over a
// run's jobs (every job replays the same input on a fresh session) of each
// job's time scaled by the calibration kernel timed before it, in seconds
// of the reference host.
var endToEnd = []metricDef{
	{name: "job_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "sim_s", unit: "s", better: "lower", bound: 0.05, exact: true},
}

// selfLayers are the CPU-profile buckets reported as <layer>.self_s (the
// two Go runtime buckets as goruntime.map_s and goruntime.mem_s).
var selfLayers = []string{"vm", "heap", "gc", "core", "storage", "serde", "spark", "giraph",
	"g1", "server", "simclock", "rt", "workloads", "goruntime.map", "goruntime.mem", "other"}

func selfMetric(layer string) string {
	if layer == "goruntime.map" || layer == "goruntime.mem" {
		return layer + "_s"
	}
	return layer + ".self_s"
}

// perLayer metrics come from the traced half of a run, per job. Simulated
// ones (sim.*, gc.*_count, core.*, storage.*, server.*) are exact.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{name: selfMetric(l), unit: "s", better: "lower"})
	}
	lower := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: "lower"})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: "higher"})
		}
	}
	lower("s", "workloads.gen_s", "rt.session_s", "frame.load_s", "frame.compute_s", "gc.pause_host_s")
	lower("ms", "gc.pause_host_max_ms")
	lower("s", "mutator.host_s", "sim.other_s", "sim.sdio_s", "sim.minor_gc_s", "sim.major_gc_s")
	lower("count", "gc.minor_count", "gc.major_count", "gc.mixed_count")
	lower("MB", "gc.alloc_mb")
	lower("count", "core.objects_moved")
	lower("MB", "core.bytes_moved_mb")
	lower("count", "core.regions_allocated", "core.regions_reclaimed", "core.minor_cards_scanned")
	lower("ms", "core.minor_scan_sim_ms")
	lower("count", "core.page_faults")
	higher("fraction", "core.readahead_frac")
	lower("count", "storage.read_ops", "storage.write_ops")
	lower("MB", "storage.read_mb", "storage.write_mb")
	higher("count", "server.offered", "server.served")
	lower("count", "server.shed", "server.slo_violations", "server.pause_violations", "server.gc_pauses")
	lower("us", "server.sim_p50_us", "server.sim_p99_us", "server.sim_p999_us")
	higher("1/s", "server.sim_rps")
	lower("MB", "goruntime.alloc_mb")
	lower("count", "goruntime.mallocs", "goruntime.gc_cycles")
	lower("s", "host.job_p50_s", "host.job_p90_s", "host.cpu_job_s")
	lower("ms", "host.cal_ms")
	higher("count", "host.jobs")
	lower("MB", "host.peak_rss_mb")
	lower("fraction", "trace.overhead_frac")
	return defs
}()

func wallTimes(jobs []*job) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = j.wall.Seconds()
	}
	return xs
}

// calibrated is the median of the times in reference-host seconds, each
// scaled by the kernel time measured next to it.
func calibrated(times, cals []time.Duration) float64 {
	xs := make([]float64, len(times))
	for i := range times {
		xs[i] = calibratedSeconds(times[i], cals[i])
	}
	return median(xs)
}

func calibratedJobs(jobs []*job) float64 {
	walls, cals := make([]time.Duration, len(jobs)), make([]time.Duration, len(jobs))
	for i, j := range jobs {
		walls[i], cals[i] = j.wall, j.cal
	}
	return calibrated(walls, cals)
}

// e2eMetrics computes the end-to-end metrics of an untraced run.
func e2eMetrics(r *runStats) map[string]float64 {
	return map[string]float64{
		"job_s":        calibratedJobs(r.untraced),
		"setup_s":      calibrated(r.setups, r.setupCals),
		"live_heap_mb": median(r.liveHeap),
		"sim_s":        r.sim["sim_s"],
	}
}

const mib = 1 << 20

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(r *runStats, profile map[string]int64) map[string]float64 {
	m := map[string]float64{}
	n := float64(len(r.traced))
	for _, l := range selfLayers {
		m[selfMetric(l)] = float64(profile[l]) / 1e9 / n
	}
	perJob := func(f func(j *job) float64) float64 {
		xs := make([]float64, len(r.traced))
		for i, j := range r.traced {
			xs[i] = f(j)
		}
		return median(xs)
	}
	var maxPause time.Duration
	for _, j := range r.traced {
		if _, mx := j.pauses.pauseStats(); mx > maxPause {
			maxPause = mx
		}
	}
	m["workloads.gen_s"] = median(r.gens)
	m["rt.session_s"] = perJob(func(j *job) float64 { return j.spanTime("rt.session").Seconds() })
	m["frame.load_s"] = perJob(func(j *job) float64 { return j.spanTime("frame.load").Seconds() })
	m["frame.compute_s"] = perJob(func(j *job) float64 { return j.spanTime("frame.compute").Seconds() })
	m["gc.pause_host_s"] = perJob(func(j *job) float64 { t, _ := j.pauses.pauseStats(); return t.Seconds() })
	m["gc.pause_host_max_ms"] = float64(maxPause) / 1e6
	m["mutator.host_s"] = perJob(func(j *job) float64 {
		t, _ := j.pauses.pauseStats()
		return (j.spanTime("frame.load") + j.spanTime("frame.compute") - t).Seconds()
	})

	for k, v := range r.sim {
		if k != "sim_s" {
			m[k] = v
		}
	}

	m["goruntime.alloc_mb"] = perJob(func(j *job) float64 { return float64(j.allocBytes) / mib })
	m["goruntime.mallocs"] = perJob(func(j *job) float64 { return float64(j.mallocs) })
	m["goruntime.gc_cycles"] = perJob(func(j *job) float64 { return float64(j.gcCycles) })
	untraced := wallTimes(r.untraced)
	cpu, cal := make([]float64, len(r.untraced)), make([]float64, len(r.untraced))
	for i, j := range r.untraced {
		cpu[i], cal[i] = j.cpu.Seconds(), j.cal.Seconds()
	}
	m["host.job_p50_s"] = median(untraced)
	m["host.job_p90_s"] = quantile(untraced, 0.9)
	m["host.cpu_job_s"] = median(cpu)
	m["host.cal_ms"] = median(cal) * 1e3
	m["host.jobs"] = float64(len(r.untraced))
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["trace.overhead_frac"] = calibratedJobs(r.traced)/calibratedJobs(r.untraced) - 1
	return m
}

// simMetrics reads the simulated statistics of one job; every correct job
// of a run has the same ones.
func simMetrics(j *job) map[string]float64 {
	m := map[string]float64{}
	ses := j.ses
	b := ses.Clock.Breakdown()
	m["sim_s"] = b.Total().Seconds()
	m["sim.other_s"] = b.Get(simclock.Other).Seconds()
	m["sim.sdio_s"] = b.Get(simclock.SerDesIO).Seconds()
	m["sim.minor_gc_s"] = b.Get(simclock.MinorGC).Seconds()
	m["sim.major_gc_s"] = b.Get(simclock.MajorGC).Seconds()
	m["gc.minor_count"] = float64(ses.Events.MinorGCs)
	m["gc.major_count"] = float64(ses.Events.MajorGCs)
	m["gc.mixed_count"] = float64(ses.Events.MixedGCs)
	m["gc.alloc_mb"] = float64(ses.Runtime.GCStats().BytesAllocated) / mib
	if th := ses.TH; th != nil {
		st := th.Stats()
		m["core.objects_moved"] = float64(st.ObjectsMoved)
		m["core.bytes_moved_mb"] = float64(st.BytesMoved) / mib
		m["core.regions_allocated"] = float64(st.RegionsAllocated)
		m["core.regions_reclaimed"] = float64(st.RegionsReclaimed)
		m["core.minor_cards_scanned"] = float64(st.MinorCardsScanned)
		m["core.minor_scan_sim_ms"] = float64(st.MinorScanTime) / 1e6
		c := th.Mapped().Cache()
		m["core.page_faults"] = float64(c.Faults)
		if c.Faults > 0 {
			m["core.readahead_frac"] = float64(c.SeqFaults) / float64(c.Faults)
		}
	}
	d := ses.Device.Stats()
	m["storage.read_ops"] = float64(d.ReadOps)
	m["storage.write_ops"] = float64(d.WriteOps)
	m["storage.read_mb"] = float64(d.BytesRead) / mib
	m["storage.write_mb"] = float64(d.BytesWritten) / mib
	if s := j.serve; s != nil {
		m["server.offered"] = float64(s.Offered)
		m["server.served"] = float64(s.Served)
		m["server.shed"] = float64(s.Shed)
		m["server.slo_violations"] = float64(s.SLOViolations)
		m["server.pause_violations"] = float64(s.PauseViolations)
		m["server.gc_pauses"] = float64(s.GCPauses)
		m["server.sim_p50_us"] = float64(s.P50) / 1e3
		m["server.sim_p99_us"] = float64(s.P99) / 1e3
		m["server.sim_p999_us"] = float64(s.P999) / 1e3
		m["server.sim_rps"] = s.ThroughputRPS
	}
	return m
}

// fill gives every declared metric a value: a layer a workload never
// enters reports 0.
func fill(m map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartileSpread is the distance between the first and third quartiles as
// a share of the median, with quartiles by the exclusive method (Python's
// statistics.quantiles default).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
