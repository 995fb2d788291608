package giraph_test

import (
	"math"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func newEngine(t *testing.T, mode giraph.Mode, h1Size int64, g *workloads.Graph, parts int) *giraph.Engine {
	t.Helper()
	e, err := giraph.BuildEngine(mode, h1Size, 256*storage.MB, g, parts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// refWCC computes connected components Go-side for verification.
func refWCC(g *workloads.Graph, iters int) []float64 {
	labels := make([]float64, g.N)
	for i := range labels {
		labels[i] = float64(i)
	}
	for it := 0; it < iters; it++ {
		changed := false
		for v, es := range g.Adj {
			for _, t := range es {
				if labels[v] < labels[t] {
					labels[t] = labels[v]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return labels
}

func TestWCCMatchesReference(t *testing.T) {
	g := workloads.GenGraph(7, 500, 4, 0.8)
	e := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	got, err := e.Run(&giraph.WCC{MaxIters: 40})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// BSP min-propagation converges to the same fixpoint as the
	// sequential reference on the same (directed) graph when run to
	// convergence: same label within every weakly-reachable directed
	// closure. Compare against a long sequential run.
	want := refWCC(g, 200)
	mismatch := 0
	for v := range got {
		if got[v] != want[v] {
			mismatch++
		}
	}
	// Directed propagation orders can differ; allow tiny disagreement.
	if mismatch > g.N/100 {
		t.Fatalf("WCC mismatches: %d of %d", mismatch, g.N)
	}
}

func TestBFSDistances(t *testing.T) {
	g := workloads.GenGraph(11, 400, 5, 0.7)
	e := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	got, err := e.Run(&giraph.BFS{Source: 0, MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Reference BFS.
	want := make([]float64, g.N)
	for i := range want {
		want[i] = math.Inf(1)
	}
	want[0] = 0
	frontier := []int{0}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, tgt := range g.Adj[v] {
				if want[tgt] > want[v]+1 {
					want[tgt] = want[v] + 1
					next = append(next, int(tgt))
				}
			}
		}
		frontier = next
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("BFS dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := workloads.GenGraph(13, 300, 6, 0.8)
	e := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	ranks, err := e.Run(&giraph.PageRank{Iterations: 10, N: g.N})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Every vertex has out-edges, so mass is conserved up to numerics.
	if sum <= 0.9 || sum > 1.001 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestOOCOffloadsUnderPressure(t *testing.T) {
	g := workloads.GenGraph(17, 4000, 10, 0.8)
	// Small heap so the partitions exceed the high-water mark. CDLP has
	// no message combiner, so its stores are large.
	e := newEngine(t, giraph.ModeOOC, 1200*storage.KB, g, 8)
	if _, err := e.Run(&giraph.CDLP{Iterations: 6}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.Stats.OOCOffloads == 0 {
		t.Fatal("no OOC offloads despite pressure")
	}
	if e.Stats.OOCReloads == 0 {
		t.Fatal("no OOC reloads")
	}
	if e.Breakdown().Get(simclock.SerDesIO) <= 0 {
		t.Fatal("OOC charged no S/D time")
	}
}

func TestTHMovesEdgesAndMessages(t *testing.T) {
	g := workloads.GenGraph(19, 2000, 8, 0.8)
	e := newEngine(t, giraph.ModeTH, 8*storage.MB, g, 4)
	if _, err := e.Run(&giraph.PageRank{Iterations: 6, N: g.N}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A small run may never trigger a natural collection; force one so
	// the advised moves execute.
	if err := e.RT.FullGC(); err != nil {
		t.Fatal(err)
	}
	st := e.RT.(*gc.Collector).TH.Stats()
	if st.ObjectsMoved == 0 {
		t.Fatal("TeraHeap moved nothing")
	}
	if st.MoveHints < 2 {
		t.Fatalf("move hints = %d, want >= 2 (edges + messages)", st.MoveHints)
	}
	if e.Stats.OOCOffloads != 0 {
		t.Fatal("TH mode must not use the OOC scheduler")
	}
}

func TestTHAndOOCAgreeOnResults(t *testing.T) {
	g := workloads.GenGraph(23, 800, 5, 0.8)
	e1 := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	r1, err := e1.Run(&giraph.WCC{MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, giraph.ModeTH, 8*storage.MB, g, 4)
	r2, err := e2.Run(&giraph.WCC{MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("mode divergence at vertex %d: %v vs %v", v, r1[v], r2[v])
		}
	}
}

func TestCDLPMatchesReferenceLabelPropagation(t *testing.T) {
	g := workloads.GenGraph(29, 400, 5, 0.8)
	e := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	got, err := e.Run(&giraph.CDLP{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Reference synchronous label propagation with the same most-frequent
	// tie-break (smallest label wins).
	labels := make([]float64, g.N)
	for i := range labels {
		labels[i] = float64(i)
	}
	// Incoming messages: label of u sent along u->v.
	for it := 1; it < 5; it++ {
		in := make([]map[float64]int, g.N)
		for v, es := range g.Adj {
			for _, tgt := range es {
				if in[tgt] == nil {
					in[tgt] = make(map[float64]int)
				}
				in[tgt][labels[v]]++
			}
		}
		next := make([]float64, g.N)
		copy(next, labels)
		for v := range labels {
			if len(in[v]) == 0 {
				continue
			}
			best, bestN := labels[v], 0
			for m, n := range in[v] {
				if n > bestN || (n == bestN && m < best) {
					best, bestN = m, n
				}
			}
			next[v] = best
		}
		labels = next
	}
	mism := 0
	for v := range got {
		if got[v] != labels[v] {
			mism++
		}
	}
	// Message float32 rounding cannot affect labels < 2^24, so exact.
	if mism != 0 {
		t.Fatalf("CDLP mismatches: %d of %d", mism, g.N)
	}
}

// uncombinedSSSP is SSSP without its combiner, so the engine takes the
// uncombined message path: each vertex's edges are read as one run of
// (target, weight) word pairs.
type uncombinedSSSP struct {
	giraph.Program
	giraph.EdgeWeightUser
}

// TestSSSPUsesEdgeWeights runs SSSP with its combiner (weights read per
// word beside the combined-store writes) and without it (weights read in
// the edge run), on OOC and on TeraHeap, against Bellman-Ford.
func TestSSSPUsesEdgeWeights(t *testing.T) {
	g := workloads.GenGraph(31, 300, 5, 0.8)
	// Reference Bellman-Ford with the engine's edge weights.
	w := func(u, v int) float64 { return 1.0 + float64((u+v)%7)/7.0 }
	dist := make([]float64, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	for it := 0; it < g.N; it++ {
		changed := false
		for u, es := range g.Adj {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, v := range es {
				if d := dist[u] + w(u, int(v)); d < dist[v] {
					dist[v] = d
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, mode := range []giraph.Mode{giraph.ModeOOC, giraph.ModeTH} {
		sssp := &giraph.SSSP{Source: 0, MaxIters: 40}
		for _, prog := range []giraph.Program{sssp, uncombinedSSSP{sssp, sssp}} {
			_, combined := prog.(giraph.Combiner)
			e := newEngine(t, mode, 16*storage.MB, g, 4)
			got, err := e.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			for v := range got {
				// Messages carry float32 precision; allow tiny error.
				if math.IsInf(dist[v], 1) != math.IsInf(got[v], 1) {
					t.Fatalf("%v combined=%v: reachability differs at %d", mode, combined, v)
				}
				if !math.IsInf(dist[v], 1) && math.Abs(got[v]-dist[v]) > 1e-3 {
					t.Fatalf("%v combined=%v: dist[%d] = %v, want %v", mode, combined, v, got[v], dist[v])
				}
			}
		}
	}
}

func TestOOCRoundTripPreservesResults(t *testing.T) {
	g := workloads.GenGraph(37, 2000, 8, 0.8)
	// Tight heap: heavy offload/reload churn during the run.
	small := newEngine(t, giraph.ModeOOC, 1200*storage.KB, g, 8)
	r1, err := small.Run(&giraph.CDLP{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.OOCReloads == 0 {
		t.Fatal("expected reload churn")
	}
	// Roomy heap: no offloading at all.
	big := newEngine(t, giraph.ModeOOC, 32*storage.MB, g, 8)
	r2, err := big.Run(&giraph.CDLP{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("offloading changed results at vertex %d: %v vs %v", v, r1[v], r2[v])
		}
	}
}

func TestCombinerEquivalence(t *testing.T) {
	// PR computed with the dense combined store must equal the golden
	// single-threaded PageRank on the same graph (float32 message
	// rounding notwithstanding).
	g := workloads.GenGraph(41, 250, 5, 0.8)
	e := newEngine(t, giraph.ModeOOC, 16*storage.MB, g, 4)
	got, err := e.Run(&giraph.PageRank{Iterations: 6, N: g.N})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, g.N)
	for i := range want {
		want[i] = 1.0 / float64(g.N)
	}
	for it := 1; it < 6; it++ {
		sum := make([]float64, g.N)
		for v, es := range g.Adj {
			if len(es) == 0 {
				continue
			}
			share := want[v] / float64(len(es))
			for _, tgt := range es {
				// Engine messages round through float32.
				sum[tgt] += float64(float32(share))
			}
		}
		for v := range want {
			want[v] = 0.15/float64(g.N) + 0.85*sum[v]
		}
	}
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// TestShrinkingHeapFailsWithErrors shrinks H1 in 8-word steps across the
// size where the graph stops loading, on both modes: NewEngine and Run
// must each either succeed or return an error, never panic, and neither
// may report success over a latched OOM. The steps hit a failed
// message-store root allocation (TeraHeap) and a failed allocation of the
// OOC serializer's temporaries (Giraph-OOC), which must both surface as
// errors.
func TestShrinkingHeapFailsWithErrors(t *testing.T) {
	g := workloads.GenGraph(43, 150, 4, 0.8)
	for _, mode := range []giraph.Mode{giraph.ModeOOC, giraph.ModeTH} {
		var loaded, failed int
		for h1 := int64(12 * storage.KB); h1 >= 2*storage.KB; h1 -= 8 * vm.WordSize {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v at H1 %d B: panic: %v", mode, h1, r)
					}
				}()
				e, err := giraph.BuildEngine(mode, h1, 4*storage.MB, g, 6)
				if err != nil {
					failed++
					return
				}
				loaded++
				if oom := e.RT.OOM(); oom != nil {
					t.Fatalf("%v at H1 %d B: NewEngine succeeded over a latched %v", mode, h1, oom)
				}
				if _, err := e.Run(&giraph.CDLP{Iterations: 3}); err == nil && e.RT.OOM() != nil {
					t.Fatalf("%v at H1 %d B: Run succeeded over a latched %v", mode, h1, e.RT.OOM())
				}
			}()
		}
		if loaded == 0 || failed == 0 {
			t.Errorf("%v: %d sizes loaded and %d failed; the sweep must cross the OOM edge", mode, loaded, failed)
		}
	}
}
