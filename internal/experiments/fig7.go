package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Fig7Result captures the GC timelines of Spark PR for Spark-SD and
// TeraHeap at a 64 GB heap (Figure 7): per-cycle minor/major GC durations
// and old-generation occupancy over time.
type Fig7Result struct {
	SD RunResult
	TH RunResult
}

// Fig7 runs Spark PR under both configurations at the 80 GB DRAM point
// (64 GB heap).
func (e *Env) Fig7() Fig7Result {
	runs := e.RunAll([]Spec{
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindPS, DramGB: 80}),
		SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80}),
	})
	return Fig7Result{SD: runs[0], TH: runs[1]}
}

// timelineSummary condenses a GC timeline.
type timelineSummary struct {
	majors       int
	minors       int
	avgMajor     time.Duration
	avgMinor     time.Duration
	totalMinor   time.Duration
	avgOccAfter  float64
	avgReclaimed float64 // fraction of old gen reclaimed per major
}

func summarize(st *gc.Stats, oldCapacity int64) timelineSummary {
	var s timelineSummary
	var majorSum, minorSum time.Duration
	var occSum, reclSum float64
	for _, cy := range st.Cycles {
		if cy.Kind == gc.Major {
			s.majors++
			majorSum += cy.Duration
			occSum += cy.OldOccupancyAfter
			if oldCapacity > 0 {
				reclSum += float64(cy.ReclaimedBytes) / float64(oldCapacity)
			}
		} else {
			s.minors++
			minorSum += cy.Duration
		}
	}
	if s.majors > 0 {
		s.avgMajor = majorSum / time.Duration(s.majors)
		s.avgOccAfter = occSum / float64(s.majors)
		s.avgReclaimed = reclSum / float64(s.majors)
	}
	if s.minors > 0 {
		s.avgMinor = minorSum / time.Duration(s.minors)
	}
	s.totalMinor = minorSum
	return s
}

// CSV renders both timelines as plot-ready rows:
// config,kind,at_us,duration_us,old_occupancy_pct.
func (r Fig7Result) CSV() string {
	var sb strings.Builder
	sb.WriteString("config,kind,at_us,duration_us,old_occupancy_pct\n")
	emit := func(name string, res RunResult) {
		for _, cy := range res.GCStats.Cycles {
			fmt.Fprintf(&sb, "%s,%s,%d,%d,%.1f\n", name, cy.Kind,
				cy.At.Microseconds(), cy.Duration.Microseconds(),
				100*cy.OldOccupancyAfter)
		}
	}
	emit("spark-sd", r.SD)
	emit("teraheap", r.TH)
	return sb.String()
}

// Format renders the Figure 7 comparison.
func (r Fig7Result) Format() string {
	var sb strings.Builder
	sb.WriteString("== Fig 7: GC timeline, Spark PR, 64GB heap ==\n")
	write := func(label string, res RunResult) {
		s := summarize(&res.GCStats, 0)
		fmt.Fprintf(&sb, "%-10s majors=%-4d avgMajor=%-12v minors=%-4d totalMinor=%-12v\n",
			label, s.majors, s.avgMajor.Round(time.Microsecond), s.minors,
			s.totalMinor.Round(time.Microsecond))
		// Timeline samples (first/last few majors).
		n := 0
		for _, cy := range res.GCStats.Cycles {
			if cy.Kind != gc.Major {
				continue
			}
			if n < 4 {
				fmt.Fprintf(&sb, "  major@%-12v dur=%-12v oldOccAfter=%.0f%%\n",
					cy.At.Round(time.Millisecond), cy.Duration.Round(time.Microsecond),
					100*cy.OldOccupancyAfter)
			}
			n++
		}
	}
	write("Spark-SD", r.SD)
	write("TeraHeap", r.TH)
	sd := summarize(&r.SD.GCStats, 0)
	th := summarize(&r.TH.GCStats, 0)
	if sd.majors > 0 && th.majors > 0 {
		fmt.Fprintf(&sb, "ratio: SD/TH majors = %.1fx, TH minor-GC total = %.0f%% of SD\n",
			float64(sd.majors)/float64(th.majors),
			100*float64(th.totalMinor)/float64(sd.totalMinor+1))
	}
	return sb.String()
}
