// Package metrics formats experiment results: execution-time breakdown
// tables in the style of the paper's figures, CSV emission for plotting,
// and the quantile summary of the region-liveness distributions.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// Row is one bar of a breakdown figure.
type Row struct {
	Name  string
	B     simclock.Breakdown
	OOM   bool
	Fault bool // the run ended on a latched storage fault (fault plane)
	// Recovered marks a run the self-healing layer repaired (region
	// salvage, quarantine, or breaker trip) that still finished with a
	// correct result; its timings are valid and rendered normally.
	Recovered bool
	Note      string
}

// FormatBreakdown renders rows as an aligned table with one column per
// breakdown category plus the total, normalized to the first non-OOM row
// when normalize is set (the paper normalizes to the first bar).
func FormatBreakdown(title string, rows []Row, normalize bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	var base time.Duration
	if normalize {
		for _, r := range rows {
			if !r.OOM && !r.Fault {
				base = r.B.Total()
				break
			}
		}
	}
	fmt.Fprintf(&sb, "%-28s %10s %10s %10s %10s %10s %8s %s\n",
		"config", "total", "other", "s/d+io", "minorGC", "majorGC", "norm", "")
	for _, r := range rows {
		if r.OOM {
			fmt.Fprintf(&sb, "%-28s %10s %s\n", r.Name, "OOM", r.Note)
			continue
		}
		if r.Fault {
			fmt.Fprintf(&sb, "%-28s %10s %s\n", r.Name, "FAULT", r.Note)
			continue
		}
		norm := "-"
		if normalize && base > 0 {
			norm = fmt.Sprintf("%.3f", float64(r.B.Total())/float64(base))
		}
		note := r.Note
		if r.Recovered {
			note = strings.TrimSpace("RECOVERED " + note)
		}
		fmt.Fprintf(&sb, "%-28s %10s %10s %10s %10s %10s %8s %s\n",
			r.Name,
			fmtDur(r.B.Total()),
			fmtDur(r.B.Get(simclock.Other)),
			fmtDur(r.B.Get(simclock.SerDesIO)),
			fmtDur(r.B.Get(simclock.MinorGC)),
			fmtDur(r.B.Get(simclock.MajorGC)),
			norm, note)
	}
	return sb.String()
}

// CSVBreakdown renders rows as CSV with columns name,total_ns,other_ns,
// sdio_ns,minor_ns,major_ns,oom,fault,recovered.
func CSVBreakdown(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("name,total_ns,other_ns,sdio_ns,minor_ns,major_ns,oom,fault,recovered\n")
	for _, r := range rows {
		oom, flt, rec := 0, 0, 0
		if r.OOM {
			oom = 1
		}
		if r.Fault {
			flt = 1
		}
		if r.Recovered {
			rec = 1
		}
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d,%d,%d,%d,%d\n", r.Name,
			int64(r.B.Total()), r.B.NS[simclock.Other], r.B.NS[simclock.SerDesIO],
			r.B.NS[simclock.MinorGC], r.B.NS[simclock.MajorGC], oom, flt, rec)
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	}
	return d.String()
}

// PauseRow is one point of a GC worker-scaling table: one configuration
// run at one simulated gang size.
type PauseRow struct {
	Name    string
	Workers int
	MinorGC time.Duration // total minor-GC pause time
	MajorGC time.Duration // total major-GC pause time
	Total   time.Duration // run total (all categories)
}

// FormatPauseScaling renders worker-scaling rows as an aligned table with
// per-row speedup of total GC time relative to the same configuration at
// the smallest gang size.
func FormatPauseScaling(title string, rows []PauseRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-28s %8s %12s %12s %12s %8s\n",
		"config", "workers", "minorGC", "majorGC", "total", "gcNorm")
	base := map[string]time.Duration{}
	for _, r := range rows {
		gcTotal := r.MinorGC + r.MajorGC
		if _, ok := base[r.Name]; !ok {
			base[r.Name] = gcTotal
		}
		norm := "-"
		if b := base[r.Name]; b > 0 {
			norm = fmt.Sprintf("%.3f", float64(gcTotal)/float64(b))
		}
		fmt.Fprintf(&sb, "%-28s %8d %12s %12s %12s %8s\n",
			r.Name, r.Workers, fmtDur(r.MinorGC), fmtDur(r.MajorGC),
			fmtDur(r.Total), norm)
	}
	return sb.String()
}

// CSVPauseScaling renders worker-scaling rows as CSV with columns
// name,workers,minor_ns,major_ns,total_ns.
func CSVPauseScaling(rows []PauseRow) string {
	var sb strings.Builder
	sb.WriteString("name,workers,minor_ns,major_ns,total_ns\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d\n",
			r.Name, r.Workers, int64(r.MinorGC), int64(r.MajorGC), int64(r.Total))
	}
	return sb.String()
}

// FormatCDF renders a CDF as a compact quantile table.
func FormatCDF(name string, values []float64) string {
	if len(values) == 0 {
		return fmt.Sprintf("%s: (no samples)\n", name)
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := func(p float64) float64 {
		i := int(p * float64(len(v)-1))
		return v[i]
	}
	return fmt.Sprintf("%s: n=%d p10=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f p100=%.1f\n",
		name, len(v), q(0.10), q(0.25), q(0.50), q(0.75), q(0.90), v[len(v)-1])
}

// Speedup returns 1 - new/old as a percentage (the paper's "reduces
// execution time by X%").
func Speedup(baseline, improved time.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (1 - float64(improved)/float64(baseline))
}
