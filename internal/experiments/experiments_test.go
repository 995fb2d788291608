package experiments_test

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// These integration tests pin the paper-shaped outcomes the reproduction
// is built to show. They run scaled workloads end to end.

func TestSparkTHBeatsSDAtEqualDRAM(t *testing.T) {
	// Fig 6 headline: at the same DRAM budget TeraHeap outperforms
	// Spark-SD (paper: 18-73% across workloads).
	for _, w := range []string{"PR", "SSSP", "LR", "SVM"} {
		spec := experiments.SparkWorkloads()
		_ = spec
		sd := experiments.RunSpark(experiments.SparkRun{Workload: w, Runtime: rt.KindPS, DramGB: dramFor(w)})
		th := experiments.RunSpark(experiments.SparkRun{Workload: w, Runtime: rt.KindTH, DramGB: dramFor(w)})
		if sd.OOM || th.OOM {
			t.Fatalf("%s: unexpected OOM (sd=%v th=%v)", w, sd.OOM, th.OOM)
		}
		if th.B.Total() >= sd.B.Total() {
			t.Errorf("%s: TH (%v) not faster than SD (%v)", w, th.B.Total(), sd.B.Total())
		}
		// GC collapses under TeraHeap.
		sdGC := sd.B.Get(simclock.MinorGC) + sd.B.Get(simclock.MajorGC)
		thGC := th.B.Get(simclock.MinorGC) + th.B.Get(simclock.MajorGC)
		if thGC >= sdGC {
			t.Errorf("%s: TH GC (%v) not below SD GC (%v)", w, thGC, sdGC)
		}
		// S/D collapses under TeraHeap (except shuffle).
		if th.B.Get(simclock.SerDesIO) > sd.B.Get(simclock.SerDesIO) {
			t.Errorf("%s: TH S/D above SD S/D", w)
		}
	}
}

func dramFor(w string) float64 {
	switch w {
	case "PR":
		return 80
	case "SSSP":
		return 58
	case "LR":
		return 70
	case "SVM":
		return 48
	}
	return 80
}

func TestSparkSDOOMsAtLowDRAMWhereTHRuns(t *testing.T) {
	// Fig 6: the low-DRAM Spark-SD bars are missing (OOM) while TeraHeap
	// runs at the same or lower DRAM.
	sd := experiments.RunSpark(experiments.SparkRun{Workload: "LR", Runtime: rt.KindPS, DramGB: 43})
	if !sd.OOM {
		t.Error("Spark-SD LR at 43GB should OOM")
	}
	th := experiments.RunSpark(experiments.SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: 43})
	if th.OOM {
		t.Error("TeraHeap LR at 43GB should run")
	}
}

func TestFig7MajorGCContrast(t *testing.T) {
	r := new(experiments.Env).Fig7()
	if r.SD.OOM || r.TH.OOM {
		t.Fatal("unexpected OOM")
	}
	// Spark-SD suffers frequent low-yield majors; TeraHeap needs far
	// fewer (paper: 171 vs 13).
	if r.SD.GCStats.MajorCount < 5*maxInt(r.TH.GCStats.MajorCount, 1) {
		t.Errorf("SD majors (%d) not >> TH majors (%d)",
			r.SD.GCStats.MajorCount, r.TH.GCStats.MajorCount)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestFig8G1BeatsPSAndTHBeatsG1(t *testing.T) {
	ps := experiments.RunSpark(experiments.SparkRun{Workload: "LR", Runtime: rt.KindPS, DramGB: 70})
	g1r := experiments.RunSpark(experiments.SparkRun{Workload: "LR", Runtime: rt.KindG1, DramGB: 70})
	th := experiments.RunSpark(experiments.SparkRun{Workload: "LR", Runtime: rt.KindTH, DramGB: 70})
	if g1r.B.Total() >= ps.B.Total() {
		t.Errorf("G1 (%v) not faster than PS (%v)", g1r.B.Total(), ps.B.Total())
	}
	if th.B.Total() >= g1r.B.Total() {
		t.Errorf("TH (%v) not faster than G1 (%v)", th.B.Total(), g1r.B.Total())
	}
	// G1 cannot eliminate S/D; TeraHeap does.
	if th.B.Get(simclock.SerDesIO)*10 > g1r.B.Get(simclock.SerDesIO) {
		t.Errorf("TH S/D (%v) not an order below G1 S/D (%v)",
			th.B.Get(simclock.SerDesIO), g1r.B.Get(simclock.SerDesIO))
	}
}

func TestFig9aHintHelpsMessageHeavyWorkloads(t *testing.T) {
	// WCC at reduced DRAM: without the hint, forced movement ships
	// mutable stores to H2 and pays device RMW (paper: 29-55% worse).
	nh := experiments.RunGiraph(experiments.GiraphRun{Workload: "WCC", Mode: giraph.ModeTH, DramGB: 74,
		THConfig: func(c *core.Config) { c.EnableMoveHint = false; c.LowThreshold = 0 }})
	h := experiments.RunGiraph(experiments.GiraphRun{Workload: "WCC", Mode: giraph.ModeTH, DramGB: 74,
		THConfig: func(c *core.Config) { c.LowThreshold = 0 }})
	if h.OOM || nh.OOM {
		t.Fatal("unexpected OOM")
	}
	if h.B.Total() >= nh.B.Total() {
		t.Errorf("hint (%v) not faster than no-hint (%v)", h.B.Total(), nh.B.Total())
	}
}

func TestFig9bLowThresholdHelps(t *testing.T) {
	nl := experiments.RunGiraph(experiments.GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 140,
		DatasetScale: 91.0 / 85.0,
		THConfig:     func(c *core.Config) { c.LowThreshold = 0 }})
	l := experiments.RunGiraph(experiments.GiraphRun{Workload: "PR", Mode: giraph.ModeTH, DramGB: 140,
		DatasetScale: 91.0 / 85.0,
		THConfig:     func(c *core.Config) { c.LowThreshold = 0.5 }})
	if l.B.Total() >= nl.B.Total() {
		t.Errorf("low threshold (%v) not faster than none (%v)", l.B.Total(), nl.B.Total())
	}
}

func TestGiraphTHBeatsOOC(t *testing.T) {
	for _, w := range []string{"PR", "WCC", "SSSP"} {
		ooc := experiments.RunGiraph(experiments.GiraphRun{Workload: w, Mode: giraph.ModeOOC, DramGB: giraphDram(w)})
		th := experiments.RunGiraph(experiments.GiraphRun{Workload: w, Mode: giraph.ModeTH, DramGB: giraphDram(w)})
		if ooc.OOM || th.OOM {
			t.Fatalf("%s: unexpected OOM", w)
		}
		if th.B.Total() >= ooc.B.Total() {
			t.Errorf("%s: TH (%v) not faster than OOC (%v)", w, th.B.Total(), ooc.B.Total())
		}
	}
}

func giraphDram(w string) float64 {
	switch w {
	case "BFS":
		return 65
	case "SSSP":
		return 90
	}
	return 85
}

func TestFig12PantheraLosesToTH(t *testing.T) {
	scale := 30.0 / 80.0
	p := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindPanthera,
		DramGB: 16, Device: storage.NVM, DatasetScale: scale})
	th := experiments.RunSpark(experiments.SparkRun{Workload: "PR", Runtime: rt.KindTH,
		DramGB: 32, Device: storage.NVM, DatasetScale: scale})
	if p.OOM || th.OOM {
		t.Fatal("unexpected OOM")
	}
	if th.B.Total() >= p.B.Total() {
		t.Errorf("TH (%v) not faster than Panthera (%v)", th.B.Total(), p.B.Total())
	}
}

func TestFig13THScalesWithThreads(t *testing.T) {
	t8 := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: 84, Threads: 8})
	t16 := experiments.RunSpark(experiments.SparkRun{Workload: "CC", Runtime: rt.KindTH, DramGB: 84, Threads: 16})
	if t16.B.Total() >= t8.B.Total() {
		t.Errorf("16 threads (%v) not faster than 8 (%v)", t16.B.Total(), t8.B.Total())
	}
}

func TestDeterminism(t *testing.T) {
	a := experiments.RunSpark(experiments.SparkRun{Workload: "SSSP", Runtime: rt.KindTH, DramGB: 58})
	b := experiments.RunSpark(experiments.SparkRun{Workload: "SSSP", Runtime: rt.KindTH, DramGB: 58})
	if a.B != b.B {
		t.Fatalf("same configuration produced different breakdowns:\n%v\n%v", a.B, b.B)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("checksums differ: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestChecksumsMatchAcrossRuntimes(t *testing.T) {
	// The same workload computes the same answer whichever runtime runs
	// it — the memory system must not change results.
	sd := experiments.RunSpark(experiments.SparkRun{Workload: "SSSP", Runtime: rt.KindPS, DramGB: 100})
	th := experiments.RunSpark(experiments.SparkRun{Workload: "SSSP", Runtime: rt.KindTH, DramGB: 58})
	g1r := experiments.RunSpark(experiments.SparkRun{Workload: "SSSP", Runtime: rt.KindG1, DramGB: 100})
	if sd.Checksum != th.Checksum || sd.Checksum != g1r.Checksum {
		t.Fatalf("checksum divergence: sd=%v th=%v g1=%v", sd.Checksum, th.Checksum, g1r.Checksum)
	}
}
