package graphx_test

import (
	"math"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func newCtx(t *testing.T) *spark.Context {
	t.Helper()
	jvm := rt.NewSession(rt.Spec{Kind: rt.KindPS, H1Size: 16 * storage.MB}).Runtime
	return spark.NewContext(spark.Conf{
		RT: jvm, Mode: spark.ModeMO, Threads: 4, SerKind: serde.Kryo,
	})
}

func TestPageRankMatchesReference(t *testing.T) {
	g := workloads.GenGraph(3, 400, 5, 0.8)
	ctx := newCtx(t)
	gr := graphx.Load(ctx, g, 8)
	got, err := gr.PageRank(8)
	if err != nil {
		t.Fatal(err)
	}
	// Reference PageRank in plain Go.
	n := g.N
	want := make([]float64, n)
	for i := range want {
		want[i] = 1.0 / float64(n)
	}
	for it := 0; it < 8; it++ {
		contrib := make([]float64, n)
		for v, es := range g.Adj {
			if len(es) == 0 {
				continue
			}
			share := want[v] / float64(len(es))
			for _, e := range es {
				contrib[e] += share
			}
		}
		for v := range want {
			want[v] = 0.15/float64(n) + 0.85*contrib[v]
		}
	}
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestConnectedComponentsLabels(t *testing.T) {
	g := workloads.GenGraph(5, 300, 4, 0.8)
	ctx := newCtx(t)
	gr := graphx.Load(ctx, g, 8)
	labels, err := gr.ConnectedComponents(50)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge's endpoints must share a label at convergence.
	for v, es := range g.Adj {
		for _, e := range es {
			if labels[v] != labels[e] {
				t.Fatalf("edge (%d,%d) crosses components %d/%d", v, e, labels[v], labels[e])
			}
		}
	}
}

func TestSSSPTriangleInequality(t *testing.T) {
	g := workloads.GenGraph(7, 300, 5, 0.8)
	ctx := newCtx(t)
	gr := graphx.Load(ctx, g, 8)
	dist, err := gr.SSSP(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0 {
		t.Fatalf("dist[src] = %v", dist[0])
	}
	// Relaxation fixpoint: no edge can improve any distance.
	for v, es := range g.Adj {
		if math.IsInf(dist[v], 1) {
			continue
		}
		for _, e := range es {
			w := 1.0 + float64((v+int(e))%7)/7.0
			if dist[v]+w < dist[e]-1e-9 {
				t.Fatalf("edge (%d,%d) not relaxed: %v + %v < %v", v, e, dist[v], w, dist[e])
			}
		}
	}
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := workloads.GenGraph(9, 60, 4, 0.8)
	ctx := newCtx(t)
	gr := graphx.Load(ctx, g, 4)
	got, err := gr.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the undirected closure.
	adj := make([]map[int]bool, g.N)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for v, es := range g.Adj {
		for _, e := range es {
			if int(e) != v {
				adj[v][int(e)] = true
				adj[int(e)][v] = true
			}
		}
	}
	var want int64
	for a := 0; a < g.N; a++ {
		for b := range adj[a] {
			if b <= a {
				continue
			}
			for c := range adj[b] {
				if c <= b {
					continue
				}
				if adj[a][c] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Fatalf("triangles = %d, want %d", got, want)
	}
}

func TestSVDErrorDecreases(t *testing.T) {
	g := workloads.GenGraph(11, 200, 5, 0.8)
	ctx := newCtx(t)
	gr := graphx.Load(ctx, g, 4)
	e1, err := gr.SVDPlusPlus(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := newCtx(t)
	gr2 := graphx.Load(ctx2, g, 4)
	e8, err := gr2.SVDPlusPlus(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e8 >= e1 {
		t.Fatalf("SVD error did not decrease: %v -> %v", e1, e8)
	}
}
