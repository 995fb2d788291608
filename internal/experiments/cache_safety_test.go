package experiments

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// snapshotGraph deep-copies a graph's adjacency so mutations to the
// original are detectable.
func snapshotGraph(g *workloads.Graph) *workloads.Graph {
	cp := &workloads.Graph{N: g.N, M: g.M, Adj: make([][]int32, len(g.Adj))}
	for v, es := range g.Adj {
		cp.Adj[v] = append([]int32(nil), es...)
	}
	return cp
}

func graphsEqual(a, b *workloads.Graph) bool {
	if a.N != b.N || a.M != b.M || len(a.Adj) != len(b.Adj) {
		return false
	}
	for v := range a.Adj {
		if len(a.Adj[v]) != len(b.Adj[v]) {
			return false
		}
		for j := range a.Adj[v] {
			if a.Adj[v][j] != b.Adj[v][j] {
				return false
			}
		}
	}
	return true
}

// TestCachedDatasetsSurviveRuns enforces the memo cache's sharing
// contract: a full PR run and a full SSSP run leave their cached input
// graphs bit-identical, so concurrent runs can safely share one dataset
// instance.
func TestCachedDatasetsSurviveRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs in -short mode")
	}
	// Materialize the inputs PR (seed 101) and SSSP (seed 103) will use,
	// through the same sizing helpers RunSpark uses.
	prGraph := graphFromBytes(101, GB(sparkSpecs["PR"].datasetGB))
	ssspGraph := graphFromBytes(103, GB(sparkSpecs["SSSP"].datasetGB))
	prSnap := snapshotGraph(prGraph)
	ssspSnap := snapshotGraph(ssspGraph)

	r1 := RunSpark(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 32})
	r2 := RunSpark(SparkRun{Workload: "SSSP", Runtime: rt.KindTH, DramGB: 37})
	if r1.OOM || r2.OOM {
		t.Fatalf("unexpected OOM: PR=%v SSSP=%v", r1.OOM, r2.OOM)
	}

	// The runs must have hit the cache (shared instance)...
	if g := graphFromBytes(101, GB(sparkSpecs["PR"].datasetGB)); g != prGraph {
		t.Errorf("PR run regenerated its graph instead of sharing the cached one")
	}
	if g := graphFromBytes(103, GB(sparkSpecs["SSSP"].datasetGB)); g != ssspGraph {
		t.Errorf("SSSP run regenerated its graph instead of sharing the cached one")
	}
	// ...and left it untouched.
	if !graphsEqual(prGraph, prSnap) {
		t.Errorf("PR run mutated the shared cached graph")
	}
	if !graphsEqual(ssspGraph, ssspSnap) {
		t.Errorf("SSSP run mutated the shared cached graph")
	}
}
