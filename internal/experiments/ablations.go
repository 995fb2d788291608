package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/runner"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// vmHandle aliases the handle type for the synthetic ablations.
type vmHandle = vm.Handle

// vmClassesForSizeSeg builds the class table for the size-segregation
// ablation.
func vmClassesForSizeSeg() *vm.ClassTable {
	classes := vm.NewClassTable()
	classes.MustFixed("small", 1, 2)
	classes.MustPrimArray("big[]")
	classes.MustRefArray("root[]")
	return classes
}

// thSession builds a PS + TeraHeap session for the synthetic ablations
// (verification follows the environment; the ablations are fault-free by
// design).
func (e *Env) thSession(thCfg core.Config, classes *vm.ClassTable, clock *simclock.Clock) *rt.Session {
	return rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: 4 * storage.MB, TH: &thCfg,
		Classes: classes, Clock: clock, Layers: rt.Layers{Verify: e.Layers.Verify}})
}

// AblationStriping quantifies §7.1's remark that "using more NVMe SSDs
// can reduce other time for LR, LgR and SVM": the ML streamers run at the
// device's read bandwidth, so striping H2 across devices shrinks the
// mutator's I/O wait.
func (e *Env) AblationStriping() string {
	stripes := []int{1, 2, 4}
	var specs []Spec
	for _, n := range stripes {
		specs = append(specs, SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: 70, Stripes: n}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	sb.WriteString("== ablation: H2 striped across N NVMe SSDs (Spark LR) ==\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s\n", "devices", "total", "other")
	for i, n := range stripes {
		r := runs[i]
		fmt.Fprintf(&sb, "%-8d %12v %12v\n", n,
			r.B.Total().Round(time.Microsecond),
			r.B.Get(simclock.Other).Round(time.Microsecond))
	}
	return sb.String()
}

// AblationHugePages quantifies the HugeMap configuration (§6): 2 MB
// mappings for the streaming ML workloads reduce page-fault frequency.
func (e *Env) AblationHugePages() string {
	pageSizes := []struct {
		label string
		size  int
	}{
		{"4KB", 4 * storage.KB},
		{"64KB", 64 * storage.KB},
		{"256KB", 256 * storage.KB},
	}
	var specs []Spec
	for _, ps := range pageSizes {
		size := ps.size
		specs = append(specs, SparkSpec(SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: 70,
			THConfig: func(c *core.Config) { c.PageSize = size }}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	sb.WriteString("== ablation: H2 page size (Spark LR, streaming reads) ==\n")
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s\n", "pagesize", "total", "other", "faults")
	for i, ps := range pageSizes {
		r := runs[i]
		fmt.Fprintf(&sb, "%-10s %12v %12v %10d\n", ps.label,
			r.B.Total().Round(time.Microsecond),
			r.B.Get(simclock.Other).Round(time.Microsecond),
			r.PageFaults)
	}
	return sb.String()
}

// AblationDynamicThresholds compares static high/low thresholds against
// the adaptive controller (the paper's proposed future work, §7.2) on a
// workload under sustained pressure (CDLP at the reduced DRAM point,
// without the move hint): repeated high-threshold trips teach the
// controller to evacuate deeper, cutting the trip count.
func (e *Env) AblationDynamicThresholds() string {
	spec := func(dynamic bool) Spec {
		return GiraphSpec(GiraphRun{Workload: "CDLP", Mode: giraph.ModeTH, DramGB: 74,
			THConfig: func(c *core.Config) {
				c.EnableMoveHint = false
				c.LowThreshold = 0.75 // deliberately conservative start
				c.Ext.DynamicThresholds = dynamic
			}})
	}
	runs := e.RunAll([]Spec{spec(false), spec(true)})
	static, dynamic := runs[0], runs[1]
	var adj int64
	var low float64
	if dynamic.THStats != nil {
		adj = dynamic.THStats.DynamicAdjustments
	}
	low = dynamic.FinalLowThreshold
	return fmt.Sprintf("== ablation: dynamic thresholds (Giraph CDLP, no hint, 74GB) ==\n"+
		"%-10s total=%-14v trips=%d\n%-10s total=%-14v trips=%d adjustments=%d finalLow=%.2f\n"+
		"the controller halves threshold trips by evacuating deeper; whether that\n"+
		"pays off depends on how mutable the extra evacuated data is — the\n"+
		"trade-off the paper defers to future work (§7.2)\n",
		"static", static.B.Total().Round(time.Microsecond), trips(static),
		"dynamic", dynamic.B.Total().Round(time.Microsecond), trips(dynamic), adj, low)
}

// AblationG1TeraHeap compares plain G1 against G1 with an attached
// TeraHeap (§7.1's suggested integration): the second heap removes the
// S/D of the off-heap cache and takes the long-lived (and humongous)
// cached data out of G1's regions.
func (e *Env) AblationG1TeraHeap() string {
	workloads := []string{"LR", "RL"}
	var specs []Spec
	for _, w := range workloads {
		dram := sparkSpecs[w].thDramGB[len(sparkSpecs[w].thDramGB)-1]
		specs = append(specs,
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindG1, DramGB: dram}),
			SparkSpec(SparkRun{Workload: w, Runtime: rt.KindG1TH, DramGB: dram}))
	}
	runs := e.RunAll(specs)
	var sb strings.Builder
	sb.WriteString("== ablation: G1 vs G1+TeraHeap (§7.1 integration) ==\n")
	var rows []metrics.Row
	for i, w := range workloads {
		plain, combo := runs[2*i], runs[2*i+1]
		rows = append(rows,
			plain.RowNamed(w+"/G1"),
			combo.RowNamed(w+"/G1+TH"))
	}
	sb.WriteString(metrics.FormatBreakdown("G1 vs G1+TH", rows, true))
	return sb.String()
}

func trips(r RunResult) int64 {
	if r.THStats == nil {
		return 0
	}
	return r.THStats.HighThresholdTrips
}

// AblationSizeSegregation demonstrates the size-segregated placement
// policy (the paper's §7.3 future work) on the access pattern §7.3
// describes for SSSP: object groups that mix long-lived small objects
// with large arrays that die early. Default placement interleaves them,
// so a region's surviving small objects pin the space of its dead big
// arrays; segregation gives the big arrays their own regions, which die
// clean and are reclaimed in bulk.
func (e *Env) AblationSizeSegregation() string {
	type segResult struct{ reclaimed, liveKB int64 }
	run := func(seg bool) (reclaimed int64, liveKB int64) {
		clock := simclock.New()
		classes := vmClassesForSizeSeg()
		thCfg := core.DefaultConfig(128 * storage.MB)
		thCfg.RegionSize = 32 * storage.KB
		thCfg.Ext.SizeSegregatedRegions = seg
		ses := e.thSession(thCfg, classes, clock)
		jvm := ses.Runtime

		small := classes.ByName("small")
		bigArr := classes.ByName("big[]")
		arr := classes.ByName("root[]")

		// Per group: a root of small long-lived objects plus eight big
		// arrays, all tagged with the group's label (multiple key-objects
		// per label, like Giraph's per-vertex edge maps). Allocation
		// interleaves them, so default placement interleaves them in the
		// label's regions too.
		const groups = 24
		var keepRoots []*vmHandle
		var bigHandles []*vmHandle
		for g := 0; g < groups; g++ {
			root, err := jvm.AllocRefArray(arr, 8)
			if err != nil {
				panic(err)
			}
			h := jvm.NewHandle(root)
			label := uint64(1 + g)
			jvm.TagRoot(h, label)
			for i := 0; i < 8; i++ {
				sobj, err := jvm.Alloc(small)
				if err != nil {
					panic(err)
				}
				jvm.WriteRef(h.Addr(), i, sobj)
				b, err := jvm.AllocPrimArray(bigArr, 1024) // 8 KB, "big"
				if err != nil {
					panic(err)
				}
				bh := jvm.NewHandle(b)
				jvm.TagRoot(bh, label)
				bigHandles = append(bigHandles, bh)
			}
			jvm.MoveHint(label)
			keepRoots = append(keepRoots, h)
		}
		if err := jvm.FullGC(); err != nil {
			panic(err)
		}
		// The big arrays die (the paper's "large dead arrays" in SSSP's
		// regions, §7.3); the small objects stay live.
		for _, bh := range bigHandles {
			jvm.Release(bh)
		}
		if err := jvm.FullGC(); err != nil {
			panic(err)
		}
		_ = keepRoots
		th := ses.TH
		return th.Stats().RegionsReclaimed, th.UsedBytes() / 1024
	}
	// Ablation-style closures go through the executor too: index 0 is the
	// default placement, index 1 the segregated one.
	rs := runner.Do(2, e.Jobs, func(i int) segResult {
		r, live := run(i == 1)
		return segResult{reclaimed: r, liveKB: live}
	})
	return fmt.Sprintf("== ablation: size-segregated H2 placement (mixed-lifetime groups) ==\n"+
		"%-12s regionsReclaimed=%-4d h2LiveKB=%d\n%-12s regionsReclaimed=%-4d h2LiveKB=%d\n",
		"default", rs[0].reclaimed, rs[0].liveKB, "segregated", rs[1].reclaimed, rs[1].liveKB)
}
