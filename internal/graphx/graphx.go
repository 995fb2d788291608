// Package graphx implements the paper's five Spark graph workloads —
// PageRank (PR), Connected Components (CC), Single-Source Shortest Paths
// (SSSP), SVD++ (SVD), and Triangle Counting (TR) — over cached adjacency
// RDDs (Table 3).
//
// The adjacency data is the cached dataset: one partition is a single-
// entry-root object group (a ref array holding a vertex-id array and one
// out-edge array per vertex), exactly the partition shape TeraHeap's hint
// interface targets. Per-iteration state (ranks, labels, distances) is
// produced as unpersisted temporary RDD data, pressuring the young
// generation the way Spark's intermediate RDDs do.
package graphx

import (
	"fmt"
	"math"
	"time"

	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Graph couples a Go-side dataset with its cached adjacency RDD.
type Graph struct {
	Ctx   *spark.Context
	Data  *workloads.Graph
	Parts int
	Edges *spark.RDD

	edgeBuf []uint64 // reused by readEdges and buildPartition
}

// partRange returns the [lo, hi) vertex range of partition p.
func (g *Graph) partRange(p int) (int, int) {
	per := (g.Data.N + g.Parts - 1) / g.Parts
	lo := p * per
	hi := lo + per
	if hi > g.Data.N {
		hi = g.Data.N
	}
	return lo, hi
}

// Load builds the cached adjacency RDD over g with the given partition
// count and persists it.
func Load(ctx *spark.Context, data *workloads.Graph, parts int) *Graph {
	g := &Graph{Ctx: ctx, Data: data, Parts: parts}
	g.Edges = spark.NewRDD(ctx, parts, g.buildPartition).Persist()
	return g
}

// buildPartition materializes the adjacency of partition p:
//
//	root (ref array, 1+V slots)
//	  [0] vertex-id prim array (V words)
//	  [1+i] out-edge prim array of vertex lo+i
func (g *Graph) buildPartition(ctx *spark.Context, p int) (*vm.Handle, spark.PartStats, error) {
	lo, hi := g.partRange(p)
	v := hi - lo
	var st spark.PartStats
	root, err := ctx.RT.AllocRefArray(ctx.ClsPartition, 1+v)
	if err != nil {
		return nil, st, err
	}
	h := ctx.RT.NewHandle(root)
	st.Objects = 1
	st.Words = int64(vm.HeaderWords + 1 + v)

	vids, err := ctx.RT.AllocPrimArray(ctx.ClsData, v)
	if err != nil {
		ctx.RT.Release(h)
		return nil, st, err
	}
	ctx.RT.WriteRef(h.Addr(), 0, vids)
	st.Objects++
	st.Words += int64(vm.HeaderWords + v)
	for i := 0; i < v; i++ {
		ctx.RT.WritePrim(ctx.RT.ReadRef(h.Addr(), 0), i, uint64(lo+i))
	}

	for i := 0; i < v; i++ {
		edges := g.Data.Adj[lo+i]
		ea, err := ctx.RT.AllocPrimArray(ctx.ClsData, len(edges))
		if err != nil {
			ctx.RT.Release(h)
			return nil, st, err
		}
		ctx.RT.WriteRef(h.Addr(), 1+i, ea)
		buf := g.edgeWords(len(edges))
		for j, t := range edges {
			buf[j] = uint64(t)
		}
		ctx.RT.Mem().SetPrimRun(ea, 0, buf)
		st.Objects++
		st.Words += int64(vm.HeaderWords + len(edges))
		st.Elements += len(edges)
	}
	ctx.ChargeElements(int64(v + st.Elements))
	return h, st, nil
}

// forEachAdjacency iterates the cached adjacency, calling fn(v, edges
// prim-array address, degree) for every vertex, charging per-element
// compute.
func (g *Graph) forEachAdjacency(fn func(v int, edges vm.Addr, deg int)) error {
	ctx := g.Ctx
	return g.Edges.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := g.partRange(p)
		var elems int64
		for i := 0; i < hi-lo; i++ {
			ea := ctx.RT.ReadRef(root, 1+i)
			deg := ctx.RT.Mem().NumPrims(ea)
			fn(lo+i, ea, deg)
			elems += int64(deg) + 1
		}
		ctx.ChargeElements(elems)
		return nil
	})
}

// readEdges reads the deg targets of the out-edge array at edges as one
// primitive run. The slice is reused by the next call.
func (g *Graph) readEdges(edges vm.Addr, deg int) []uint64 {
	buf := g.edgeWords(deg)
	g.Ctx.RT.Mem().PrimRun(edges, 0, 1, buf)
	return buf
}

// edgeWords returns the reused edge buffer resized to deg words.
func (g *Graph) edgeWords(deg int) []uint64 {
	if cap(g.edgeBuf) < deg {
		g.edgeBuf = make([]uint64, deg)
	}
	return g.edgeBuf[:deg]
}

// allocIterationTemps models the unpersisted per-iteration RDD a stage
// produces for one partition (e.g. a new ranks partition): allocated,
// touched, and abandoned.
func (g *Graph) allocIterationTemps(wordsPerVertex int) error {
	ctx := g.Ctx
	for p := 0; p < g.Parts; p++ {
		lo, hi := g.partRange(p)
		n := (hi - lo) * wordsPerVertex
		if n == 0 {
			continue
		}
		if _, err := ctx.RT.AllocPrimArray(ctx.ClsData, n); err != nil {
			return err
		}
	}
	return nil
}

// PageRank runs iters synchronous PageRank iterations and returns the
// final ranks.
func (g *Graph) PageRank(iters int) ([]float64, error) {
	n := g.Data.N
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		contribs := make([]float64, n)
		err := g.forEachAdjacency(func(v int, edges vm.Addr, deg int) {
			if deg == 0 {
				return
			}
			share := ranks[v] / float64(deg)
			for _, t := range g.readEdges(edges, deg) {
				contribs[t] += share
			}
		})
		if err != nil {
			return nil, err
		}
		// Contributions are shuffled to their target partitions.
		if err := g.Ctx.Shuffle(g.Data.M); err != nil {
			return nil, err
		}
		// The new ranks RDD is an unpersisted intermediate.
		if err := g.allocIterationTemps(2); err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			ranks[v] = 0.15/float64(n) + 0.85*contribs[v]
		}
	}
	return ranks, nil
}

// ConnectedComponents runs label propagation until convergence (or
// maxIters) and returns per-vertex component labels.
func (g *Graph) ConnectedComponents(maxIters int) ([]int32, error) {
	n := g.Data.N
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	for it := 0; it < maxIters; it++ {
		changed := int64(0)
		next := make([]int32, n)
		copy(next, labels)
		err := g.forEachAdjacency(func(v int, edges vm.Addr, deg int) {
			for _, w := range g.readEdges(edges, deg) {
				t := int(w)
				if labels[v] < next[t] {
					next[t] = labels[v]
					changed++
				}
				if labels[t] < next[v] {
					next[v] = labels[t]
					changed++
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if err := g.Ctx.Shuffle(changed + 1); err != nil {
			return nil, err
		}
		if err := g.allocIterationTemps(1); err != nil {
			return nil, err
		}
		labels = next
		if changed == 0 {
			break
		}
	}
	return labels, nil
}

// SSSP computes hop-weighted shortest path distances from src by
// iterative relaxation.
func (g *Graph) SSSP(src int, maxIters int) ([]float64, error) {
	if src < 0 || src >= g.Data.N {
		return nil, fmt.Errorf("graphx: source %d out of range", src)
	}
	n := g.Data.N
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for it := 0; it < maxIters; it++ {
		relaxed := int64(0)
		err := g.forEachAdjacency(func(v int, edges vm.Addr, deg int) {
			if math.IsInf(dist[v], 1) {
				return
			}
			for _, e := range g.readEdges(edges, deg) {
				t := int(e)
				// Edge weight derived deterministically from endpoints.
				w := 1.0 + float64((v+t)%7)/7.0
				if d := dist[v] + w; d < dist[t] {
					dist[t] = d
					relaxed++
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if err := g.Ctx.Shuffle(relaxed + 1); err != nil {
			return nil, err
		}
		if err := g.allocIterationTemps(1); err != nil {
			return nil, err
		}
		if relaxed == 0 {
			break
		}
	}
	return dist, nil
}

// SVDPlusPlus runs iters rounds of latent-factor updates over the edges
// (rank-dim factors), the access/compute pattern of GraphX's SVD++.
func (g *Graph) SVDPlusPlus(iters, dim int) (float64, error) {
	n := g.Data.N
	rnd := workloads.NewRand(12345)
	factors := make([][]float64, n)
	for i := range factors {
		f := make([]float64, dim)
		for j := range f {
			f[j] = rnd.Float64()*0.1 - 0.05
		}
		factors[i] = f
	}
	var lastErr float64
	for it := 0; it < iters; it++ {
		var sumErr float64
		var samples int64
		err := g.forEachAdjacency(func(v int, edges vm.Addr, deg int) {
			for _, w := range g.readEdges(edges, deg) {
				t := int(w)
				rating := 1.0 + float64((v*31+t)%5) // deterministic pseudo-rating
				var dot float64
				for k := 0; k < dim; k++ {
					dot += factors[v][k] * factors[t][k]
				}
				e := rating - dot
				sumErr += e * e
				samples++
				for k := 0; k < dim; k++ {
					fv, ft := factors[v][k], factors[t][k]
					factors[v][k] = fv + 0.005*(e*ft-0.02*fv)
					factors[t][k] = ft + 0.005*(e*fv-0.02*ft)
				}
			}
			// Factor math is ~dim ops per edge beyond the base charge.
			g.Ctx.ChargeCompute(time.Duration(int64(deg)*int64(dim)) * 4 * time.Nanosecond)
		})
		if err != nil {
			return 0, err
		}
		if err := g.Ctx.Shuffle(g.Data.M * int64(dim) / 4); err != nil {
			return 0, err
		}
		if err := g.allocIterationTemps(dim); err != nil {
			return 0, err
		}
		if samples > 0 {
			lastErr = math.Sqrt(sumErr / float64(samples))
		}
	}
	return lastErr, nil
}

// TriangleCount counts triangles via per-edge neighbour-set intersection.
func (g *Graph) TriangleCount() (int64, error) {
	// Build undirected neighbour sets Go-side from the cached adjacency
	// (reading through the heap so device costs apply).
	n := g.Data.N
	nbr := make([]map[int32]struct{}, n)
	for i := range nbr {
		nbr[i] = make(map[int32]struct{})
	}
	err := g.forEachAdjacency(func(v int, edges vm.Addr, deg int) {
		for _, w := range g.readEdges(edges, deg) {
			t := int32(w)
			if int(t) != v {
				nbr[v][t] = struct{}{}
				nbr[t][int32(v)] = struct{}{}
			}
		}
	})
	if err != nil {
		return 0, err
	}
	// The triplet construction materializes sizable temporaries.
	if err := g.allocIterationTemps(8); err != nil {
		return 0, err
	}
	var count int64
	var ops int64
	for v := 0; v < n; v++ {
		// order-insensitive: triangle and operation counts are commutative sums.
		for t := range nbr[v] {
			if int(t) < v {
				continue
			}
			// Intersect smaller set against larger.
			a, b := nbr[v], nbr[int(t)]
			if len(b) < len(a) {
				a, b = b, a
			}
			// order-insensitive: commutative counts, as above.
			for w := range a {
				ops++
				if _, ok := b[w]; ok && int(w) > int(t) {
					count++
				}
			}
		}
	}
	g.Ctx.ChargeCompute(time.Duration(ops) * 6 * time.Nanosecond)
	if err := g.Ctx.Shuffle(ops / 8); err != nil {
		return 0, err
	}
	return count, nil
}
