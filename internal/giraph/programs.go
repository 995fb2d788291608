package giraph

import (
	"fmt"
	"math"
)

// Program is a vertex program in the Pregel/Giraph model: Init sets the
// initial vertex value and activity; Compute consumes incoming messages,
// produces the new value, and decides whether (and what) to send to the
// out-neighbours this superstep. Compute receives a vertex's messages by
// source partition, source vertex and edge. msgs aliases an engine buffer
// that is valid only during the call: a program that keeps messages must
// copy them.
type Program interface {
	Name() string
	MaxSupersteps() int
	Init(v, degree, n int) (value float64, active bool)
	Compute(superstep, v int, value float64, msgs []float64, degree int) (newValue float64, send bool, msgVal float64)
}

// EdgeWeightUser marks programs whose messages add the traversed edge's
// weight (SSSP): the engine reads the weight from the edge entry and adds
// it to the program's base message value.
type EdgeWeightUser interface {
	UseEdgeWeights()
}

// Combiner collapses the messages bound for one vertex into a single
// combined value, as Giraph message combiners do (sum for PageRank, min
// for the distance/label propagations). Programs with a combiner use a
// dense combined message store: one slot per vertex.
type Combiner interface {
	// CombineIdentity is the neutral element; a slot still holding it
	// received no message.
	CombineIdentity() float64
	// Combine merges a new message into the accumulated value.
	Combine(acc, msg float64) float64
}

// PageRank is the Graphalytics PR workload: fixed-iteration PageRank.
type PageRank struct {
	Iterations int
	N          int
}

// Name implements Program.
func (p *PageRank) Name() string { return "PR" }

// MaxSupersteps implements Program.
func (p *PageRank) MaxSupersteps() int { return p.Iterations }

// Init implements Program.
func (p *PageRank) Init(v, degree, n int) (float64, bool) {
	return 1.0 / float64(n), true
}

// Compute implements Program.
func (p *PageRank) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	nv := value
	if s > 0 {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		nv = 0.15/float64(p.N) + 0.85*sum
	}
	if degree == 0 {
		return nv, false, 0
	}
	return nv, s < p.Iterations-1, nv / float64(degree)
}

// CDLP is community detection by label propagation: each vertex adopts
// the most frequent label among its incoming messages, the smallest such
// label on a tie. A value must not be shared by concurrent engines: it
// holds Compute's label counts.
type CDLP struct {
	Iterations int
	// count is indexed by label. Labels are vertex ids: Init hands out v
	// and Compute only ever adopts a received message, so Init sizes it to
	// n. Compute leaves every count at zero.
	count []int32
}

// Name implements Program.
func (c *CDLP) Name() string { return "CDLP" }

// MaxSupersteps implements Program.
func (c *CDLP) MaxSupersteps() int { return c.Iterations }

// Init implements Program.
func (c *CDLP) Init(v, degree, n int) (float64, bool) {
	if len(c.count) != n {
		c.count = make([]int32, n)
	}
	return float64(v), true
}

// Compute implements Program. One pass counts the labels and keeps the
// running best: a label takes over when its count passes the best count,
// or ties it with a smaller label, so the pass ends on the most frequent
// label with the smallest value. A second pass clears the counts. A
// message that is not a vertex id is a bug and panics.
func (c *CDLP) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	nv := value
	if s > 0 && len(msgs) > 0 {
		count := c.count
		bestN := int32(0)
		for _, m := range msgs {
			l := int(m)
			if float64(l) != m || uint(l) >= uint(len(count)) {
				panic(fmt.Sprintf("giraph: CDLP label %v at vertex %d is not a vertex id in [0, %d)", m, v, len(count)))
			}
			count[l]++
			if n := count[l]; n > bestN || (n == bestN && m < nv) {
				nv, bestN = m, n
			}
		}
		for _, m := range msgs {
			count[int(m)] = 0
		}
	}
	return nv, s < c.Iterations-1, nv
}

// WCC computes weakly connected components by min-label propagation.
type WCC struct {
	MaxIters int
}

// Name implements Program.
func (w *WCC) Name() string { return "WCC" }

// MaxSupersteps implements Program.
func (w *WCC) MaxSupersteps() int { return w.MaxIters }

// Init implements Program.
func (w *WCC) Init(v, degree, n int) (float64, bool) { return float64(v), true }

// Compute implements Program.
func (w *WCC) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	nv := value
	for _, m := range msgs {
		if m < nv {
			nv = m
		}
	}
	changed := nv != value || s == 0
	return nv, changed, nv
}

// BFS computes hop distances from a source vertex.
type BFS struct {
	Source   int
	MaxIters int
}

// Name implements Program.
func (b *BFS) Name() string { return "BFS" }

// MaxSupersteps implements Program.
func (b *BFS) MaxSupersteps() int { return b.MaxIters }

// Init implements Program.
func (b *BFS) Init(v, degree, n int) (float64, bool) {
	if v == b.Source {
		return 0, true
	}
	return math.Inf(1), false
}

// Compute implements Program.
func (b *BFS) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	nv := value
	for _, m := range msgs {
		if m < nv {
			nv = m
		}
	}
	improved := nv < value || (s == 0 && v == b.Source)
	return nv, improved, nv + 1
}

// SSSP computes shortest paths with per-vertex deterministic edge weights
// (the message carries dist + w(v)).
type SSSP struct {
	Source   int
	MaxIters int
}

// Name implements Program.
func (p *SSSP) Name() string { return "SSSP" }

// MaxSupersteps implements Program.
func (p *SSSP) MaxSupersteps() int { return p.MaxIters }

// Init implements Program.
func (p *SSSP) Init(v, degree, n int) (float64, bool) {
	if v == p.Source {
		return 0, true
	}
	return math.Inf(1), false
}

// Compute implements Program. The engine adds the per-edge weight to the
// base message value (UseEdgeWeights).
func (p *SSSP) Compute(s, v int, value float64, msgs []float64, degree int) (float64, bool, float64) {
	nv := value
	for _, m := range msgs {
		if m < nv {
			nv = m
		}
	}
	improved := nv < value || (s == 0 && v == p.Source)
	return nv, improved, nv
}

// UseEdgeWeights marks SSSP as edge-weighted.
func (p *SSSP) UseEdgeWeights() {}

// CombineIdentity implements Combiner (sum).
func (p *PageRank) CombineIdentity() float64 { return 0 }

// Combine implements Combiner (sum).
func (p *PageRank) Combine(acc, msg float64) float64 { return acc + msg }

// CombineIdentity implements Combiner (min).
func (w *WCC) CombineIdentity() float64 { return math.Inf(1) }

// Combine implements Combiner (min).
func (w *WCC) Combine(acc, msg float64) float64 { return math.Min(acc, msg) }

// CombineIdentity implements Combiner (min).
func (b *BFS) CombineIdentity() float64 { return math.Inf(1) }

// Combine implements Combiner (min).
func (b *BFS) Combine(acc, msg float64) float64 { return math.Min(acc, msg) }

// CombineIdentity implements Combiner (min).
func (p *SSSP) CombineIdentity() float64 { return math.Inf(1) }

// Combine implements Combiner (min).
func (p *SSSP) Combine(acc, msg float64) float64 { return math.Min(acc, msg) }
