package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// Pretenure is the placement-policy figure: every registered runtime kind
// on one Spark PageRank configuration, comparing GC pause composition
// (minor/major counts and times), H2 traffic, and — for the kinds that
// install a non-default placement policy — the policy's own counters
// (NG2C's profiled/pretenured sites, mispredictions, demotions, and
// target-generation fill; Deca's epoch labels and eager region moves).
//
// Sizing: the fig12c dataset scale (30 GB), so Panthera's fixed 64 GB
// hybrid heap holds the whole working set and no kind OOMs — the figure
// compares placement behavior, not survival. Deca runs its lifetime
// regions on a DRAM device (its H2 is a memory region space, not a
// storage tier); every other TeraHeap kind uses the default NVMe H2.
// Like "workers" and "serve", pretenure is not part of "all".

// PretenureRow is one kind's measurements.
type PretenureRow struct {
	Result RunResult
	Kind   rt.Kind
}

// PretenureResult carries the sweep in registry order.
type PretenureResult struct {
	Rows []PretenureRow
}

// pretenureRun builds the figure's run for one kind. The h2_move
// advisory hint is disabled on every TeraHeap kind so the placement
// policy itself is the differentiator: with hints on, Spark's labelled
// long-lived data is advised to H2 before it ever ages, all placement
// policies degenerate to the default, and the figure compares nothing.
// Hints off, the legacy policy must wait for threshold-gated major-GC
// closures, NG2C pretenures aged allocation sites straight to the old
// generation, and Deca (whose epoch placement never depended on the
// hint) still moves labelled regions eagerly at minor GC.
func pretenureRun(k rt.Kind) SparkRun {
	return SparkRun{
		Workload: "PR", Runtime: k, DramGB: 44, DatasetScale: 30.0 / 80.0,
		THConfig: func(c *core.Config) { c.EnableMoveHint = false },
	}
}

// Pretenure runs the placement figure over the given kinds (nil = every
// registered kind, registry order).
func (e *Env) Pretenure(kinds []rt.Kind) PretenureResult {
	if kinds == nil {
		kinds, _ = rt.KindsByName(nil)
	}
	var specs []Spec
	for _, k := range kinds {
		specs = append(specs, SparkSpec(pretenureRun(k)))
	}
	runs := e.RunAll(specs)
	res := PretenureResult{}
	for i, k := range kinds {
		res.Rows = append(res.Rows, PretenureRow{Result: runs[i], Kind: k})
	}
	return res
}

// Format renders the pretenure figure: the pause-composition table, the
// H2 traffic table, and one policy line per kind with a placement policy.
func (r PretenureResult) Format() string {
	var sb strings.Builder
	sb.WriteString("== pretenure: placement policies, Spark PR 30GB, 44GB DRAM, h2_move hints off ==\n")
	fmt.Fprintf(&sb, "%-10s %12s %6s %12s %6s %12s %10s %8s\n",
		"kind", "total", "minor", "minorTime", "major", "majorTime", "H2moved", "H2objs")
	for _, row := range r.Rows {
		res := row.Result
		if res.OOM || res.Faulted || res.Failed {
			fmt.Fprintf(&sb, "%-10s %12s\n", row.Kind, "FAILED "+firstLine(res.FailErr))
			continue
		}
		var h2Bytes, h2Objs int64
		if res.THStats != nil {
			h2Bytes = res.THStats.BytesMoved
			h2Objs = res.THStats.ObjectsMoved
		}
		fmt.Fprintf(&sb, "%-10s %12v %6d %12v %6d %12v %9dK %8d\n",
			row.Kind, res.B.Total().Round(time.Microsecond),
			res.GCStats.MinorCount, res.GCStats.MinorTime.Round(time.Microsecond),
			res.GCStats.MajorCount, res.GCStats.MajorTime.Round(time.Microsecond),
			h2Bytes/1024, h2Objs)
	}
	for _, row := range r.Rows {
		p := row.Result.Placement
		if p == nil {
			continue
		}
		switch p.Policy {
		case "ng2c":
			gens := make([]string, len(p.Generations))
			for i, g := range p.Generations {
				gens[i] = fmt.Sprintf("%d", g)
			}
			fmt.Fprintf(&sb, "%s: sites=%d pretenuredSites=%d objs=%d early=%d mispred=%d demoted=%d gens=[%s]\n",
				row.Kind, p.SitesProfiled, p.SitesPretenured, p.PretenuredObjects,
				p.EarlyPromotions, p.Mispredictions, p.Demotions, strings.Join(gens, " "))
		case "deca":
			fmt.Fprintf(&sb, "%s: epochLabels=%d eagerMinorMoves=%d eagerMajorClosures=%d\n",
				row.Kind, p.EagerLabels, p.EagerMinorMoves, p.EagerMajorClosures)
		default:
			fmt.Fprintf(&sb, "%s: policy=%s\n", row.Kind, p.Policy)
		}
	}
	return sb.String()
}

// CSV renders the figure as plot-ready rows.
func (r PretenureResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("kind,total_us,minor,minor_us,major,major_us,h2_bytes,h2_objs,oom,fault\n")
	for _, row := range r.Rows {
		res := row.Result
		var h2Bytes, h2Objs int64
		if res.THStats != nil {
			h2Bytes = res.THStats.BytesMoved
			h2Objs = res.THStats.ObjectsMoved
		}
		fmt.Fprintf(&sb, "%s,%d,%d,%d,%d,%d,%d,%d,%t,%t\n",
			row.Kind, res.B.Total().Microseconds(),
			res.GCStats.MinorCount, res.GCStats.MinorTime.Microseconds(),
			res.GCStats.MajorCount, res.GCStats.MajorTime.Microseconds(),
			h2Bytes, h2Objs, res.OOM, res.Faulted || res.Failed)
	}
	return sb.String()
}
