package experiments

import (
	"reflect"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// TestParallelDeterminism is the determinism guard: the same figure run
// serially and at -j 4 must produce deep-equal results — identical
// simulated breakdowns, GC statistics, and formatted rows — because the
// executor merges results in submission order and every run owns its
// clock, heap, and devices.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig6 runs in -short mode")
	}
	serial, par := &Env{Jobs: 1}, &Env{Jobs: 4}
	serialSpark, parSpark := serial.Fig6Spark("PR"), par.Fig6Spark("PR")
	if !reflect.DeepEqual(serialSpark.Runs, parSpark.Runs) {
		t.Errorf("Fig6Spark(PR): serial and -j 4 runs differ")
	}
	if !reflect.DeepEqual(serialSpark.Rows, parSpark.Rows) {
		t.Errorf("Fig6Spark(PR): serial and -j 4 rows differ")
	}

	serialGiraph, parGiraph := serial.Fig6Giraph("PR"), par.Fig6Giraph("PR")
	if !reflect.DeepEqual(serialGiraph.Runs, parGiraph.Runs) {
		t.Errorf("Fig6Giraph(PR): serial and -j 4 runs differ")
	}
	if !reflect.DeepEqual(serialGiraph.Rows, parGiraph.Rows) {
		t.Errorf("Fig6Giraph(PR): serial and -j 4 rows differ")
	}
}

// TestG1MixedGCDeterminism pins the mixed-GC collection-set evacuation
// order fix: repeated in-process RL/G1 runs at tight DRAM (which exercise
// mixed collections) must produce identical results. Before the fix the
// evacuation loop iterated a Go map, so placement — and with it the whole
// downstream simulation — varied run to run.
func TestG1MixedGCDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs in -short mode")
	}
	a := RunSpark(SparkRun{Workload: "RL", Runtime: rt.KindG1, DramGB: 63})
	b := RunSpark(SparkRun{Workload: "RL", Runtime: rt.KindG1, DramGB: 63})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated RL/G1 runs differ: total %v vs %v, checksum %v vs %v",
			a.B.Total(), b.B.Total(), a.Checksum, b.Checksum)
	}
}

// TestRunAllWorkersOrder pins that results come back in submission order
// regardless of worker count.
func TestRunAllWorkersOrder(t *testing.T) {
	specs := []Spec{
		SparkSpec(SparkRun{Workload: "TR", Runtime: rt.KindTH, DramGB: 45}),
		SparkSpec(SparkRun{Workload: "TR", Runtime: rt.KindPS, DramGB: 45}),
		GiraphSpec(GiraphRun{Workload: "BFS", Mode: giraph.ModeTH, DramGB: 74}),
	}
	serial := (&Env{Jobs: 1}).RunAll(specs)
	par := (&Env{Jobs: 4}).RunAll(specs)
	if len(serial) != len(specs) || len(par) != len(specs) {
		t.Fatalf("result lengths: serial=%d par=%d want %d", len(serial), len(par), len(specs))
	}
	for i := range serial {
		if serial[i].Name != par[i].Name {
			t.Errorf("result %d: serial=%q parallel=%q", i, serial[i].Name, par[i].Name)
		}
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("RunAll: serial and parallel results differ")
	}
}
