package giraph

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// foldProg folds each vertex's messages, in the order the engine delivers
// them, into a hash that does not commute, so its answer pins that order.
// Every vertex sends its value along every out-edge in every superstep,
// the last included, so the last store outlives Run and is what the next
// Run on the engine receives at superstep 0. Superstep 0 leaves the value
// alone and records the fold of its messages in first.
type foldProg struct {
	iters int
	first []float64
}

// fold mixes msgs into h in order. The result stays below 2^20, so it
// survives the float32 message encoding exactly.
func fold(h float64, msgs []float64) float64 {
	x := uint64(h)
	for _, m := range msgs {
		x = x*1099511628211 ^ uint64(m)
	}
	return float64(x % (1 << 20))
}

func (p *foldProg) Name() string                          { return "fold" }
func (p *foldProg) MaxSupersteps() int                    { return p.iters }
func (p *foldProg) Init(v, degree, n int) (float64, bool) { return float64(v), true }
func (p *foldProg) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	if s == 0 {
		p.first[v] = fold(0, msgs)
		return value, true, value
	}
	nv := fold(value, msgs)
	return nv, true, nv
}

// refFold runs foldProg Go-side on g, delivering each superstep's messages
// by source vertex, then edge: by source partition, vertex and edge, as
// partitions are contiguous vertex ranges. in holds the messages waiting
// at superstep 0. It returns the final values, the superstep-0 folds and
// the messages left after the last superstep.
func refFold(g *workloads.Graph, iters int, in [][]float64) (vals, first []float64, left [][]float64) {
	vals, first = make([]float64, g.N), make([]float64, g.N)
	for v := range vals {
		vals[v] = float64(v)
	}
	if in == nil {
		in = make([][]float64, g.N)
	}
	for s := 0; s < iters; s++ {
		out := make([][]float64, g.N)
		for v := range vals {
			if s == 0 {
				first[v] = fold(0, in[v])
			} else {
				vals[v] = fold(vals[v], in[v])
			}
			for _, t := range g.Adj[v] {
				out[t] = append(out[t], vals[v])
			}
		}
		in = out
	}
	return vals, first, in
}

func mustBuild(t *testing.T, mode Mode, h1 int64, g *workloads.Graph, parts int) *Engine {
	t.Helper()
	e, err := BuildEngine(mode, h1, 64*storage.MB, g, parts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func diff(got, want []float64) int {
	for v := range want {
		if got[v] != want[v] {
			return v
		}
	}
	return -1
}

// TestMessageOrderAndBufferReuse runs foldProg on TeraHeap and on
// Giraph-OOC with a heap tight enough to offload and reload message
// stores, whose rebuild reads the reused outgoing buffers. Each engine
// runs twice: the second Run must return the same values, and its
// superstep 0 must receive the first Run's last messages intact, which
// holds only if the buffer generation follows the engine's barriers
// rather than the superstep number (5 supersteps end on generation 0).
func TestMessageOrderAndBufferReuse(t *testing.T) {
	g := workloads.GenGraph(37, 2000, 8, 0.8)
	const iters = 5
	want, first1, left := refFold(g, iters, nil)
	_, first2, _ := refFold(g, iters, left)
	for _, c := range []struct {
		mode Mode
		h1   int64
	}{{ModeTH, 8 * storage.MB}, {ModeOOC, 1200 * storage.KB}} {
		e := mustBuild(t, c.mode, c.h1, g, 8)
		for run, wantFirst := range [][]float64{first1, first2} {
			prog := &foldProg{iters: iters, first: make([]float64, g.N)}
			got, err := e.Run(prog)
			if err != nil {
				t.Fatalf("%v run %d: %v", c.mode, run+1, err)
			}
			if v := diff(got, want); v >= 0 {
				t.Fatalf("%v run %d: value[%d] = %v, want %v", c.mode, run+1, v, got[v], want[v])
			}
			if v := diff(prog.first, wantFirst); v >= 0 {
				t.Fatalf("%v run %d: superstep-0 fold[%d] = %v, want %v", c.mode, run+1, v, prog.first[v], wantFirst[v])
			}
		}
		if c.mode == ModeOOC && e.Stats.OOCReloads == 0 {
			t.Fatalf("%v: no reloads; the heap is not tight enough to test the buffers", c.mode)
		}
	}
}

// TestCombinedUnderReloadChurn runs the combiner programs, whose stores
// mirror the dense per-generation buffers, on a Giraph-OOC heap that
// reloads stores (their dense stores are small, so it is tighter than the
// uncombined tests') and on one that never offloads: the answers must
// agree bit for bit.
func TestCombinedUnderReloadChurn(t *testing.T) {
	g := workloads.GenGraph(37, 2000, 8, 0.8)
	for _, prog := range []func() Program{
		func() Program { return &WCC{MaxIters: 8} },
		func() Program { return &PageRank{Iterations: 6, N: g.N} },
	} {
		tight := mustBuild(t, ModeOOC, 600*storage.KB, g, 8)
		got, err := tight.Run(prog())
		if err != nil {
			t.Fatal(err)
		}
		if tight.Stats.OOCReloads == 0 {
			t.Fatalf("%s: no reloads", prog().Name())
		}
		want, err := mustBuild(t, ModeOOC, 32*storage.MB, g, 8).Run(prog())
		if err != nil {
			t.Fatal(err)
		}
		if v := diff(got, want); v >= 0 {
			t.Fatalf("%s: reloads changed value[%d]: %v, want %v", prog().Name(), v, got[v], want[v])
		}
	}
}

// TestMessagePlaneAllocatesNothing pins the warm message plane at zero Go
// allocations: gatherMessages over a full uncombined store, and packing a
// partition's outgoing messages with scatter.
func TestMessagePlaneAllocatesNothing(t *testing.T) {
	g := workloads.GenGraph(37, 2000, 8, 0.8)
	for _, mode := range []Mode{ModeTH, ModeOOC} {
		e := mustBuild(t, mode, 16*storage.MB, g, 8)
		if _, err := e.Run(&foldProg{iters: 3, first: make([]float64, g.N)}); err != nil {
			t.Fatal(err)
		}
		pt := e.partitions[1]
		if in := e.gatherMessages(pt); in.off[len(in.off)-1] == 0 {
			t.Fatalf("%v: the last store holds no messages: vacuous", mode)
		}
		if n := testing.AllocsPerRun(20, func() { e.gatherMessages(pt) }); n != 0 {
			t.Errorf("%v: gatherMessages: %v allocs/op, want 0", mode, n)
		}
		// The generation the next superstep would write: the live store
		// mirrors the other one.
		out, root := pt.gens[e.barriers%2].out, pt.edges.h.Addr()
		n := testing.AllocsPerRun(20, func() {
			for tp := range out {
				out[tp] = out[tp][:0]
			}
			for i := 0; i < pt.hi-pt.lo; i++ {
				ea := e.RT.ReadRef(root, i)
				e.scatter(out, ea, e.RT.Mem().NumPrims(ea)/2, false, 1)
			}
		})
		if n != 0 {
			t.Errorf("%v: scatter: %v allocs/op, want 0", mode, n)
		}
	}
}
