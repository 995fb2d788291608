package workloads

// Graph is a directed graph with power-law out-degrees, the stand-in for
// the LDBC datagen social graphs and SparkBench graph inputs.
type Graph struct {
	N   int       // vertices
	Adj [][]int32 // out-edges per vertex
	M   int64     // total edges
}

// GenGraph builds a graph of n vertices and roughly n*avgDeg edges with
// Zipf-skewed degrees (skew s) and preferential target attachment.
func GenGraph(seed uint64, n int, avgDeg float64, skew float64) *Graph {
	r := NewRand(seed)
	g := &Graph{N: n, Adj: make([][]int32, n)}
	totalEdges := int64(float64(n) * avgDeg)
	// Zipf degree sequence over all vertices, scaled so it sums close to
	// totalEdges while every vertex keeps at least one out-edge.
	maxDeg := int(avgDeg * 20)
	if maxDeg < 2 {
		maxDeg = 2
	}
	raw := make([]int, n)
	var rawSum int64
	degrees, targets := NewZipf(maxDeg, skew), NewZipf(n, 1.1)
	for v := 0; v < n; v++ {
		raw[v] = 1 + degrees.Draw(r)
		rawSum += int64(raw[v])
	}
	scale := float64(totalEdges) / float64(rawSum)
	var placed int64
	for v := 0; v < n; v++ {
		d := int(float64(raw[v]) * scale)
		if d < 1 {
			d = 1
		}
		edges := make([]int32, 0, d)
		for i := 0; i < d; i++ {
			// Preferential attachment flavour: half the edges go to
			// low-id (high-degree) vertices, half uniform.
			var t int
			if r.Float64() < 0.5 {
				t = targets.Draw(r)
			} else {
				t = r.Intn(n)
			}
			if t == v {
				t = (t + 1) % n
			}
			edges = append(edges, int32(t))
		}
		g.Adj[v] = edges
		placed += int64(len(edges))
	}
	g.M = placed
	return g
}

// Points is a labeled-point dataset for the ML workloads (LR, LgR, SVM,
// BC), the stand-in for the SparkBench generators and KDD12.
type Points struct {
	N      int
	Dim    int
	X      [][]float64
	Labels []float64 // ±1 for classifiers
}

// GenPoints generates n points of dimension dim from two Gaussian
// clusters, labelled ±1 — linearly separable with noise so LR/SVM make
// real progress.
func GenPoints(seed uint64, n, dim int) *Points {
	r := NewRand(seed)
	p := &Points{N: n, Dim: dim, X: make([][]float64, n), Labels: make([]float64, n)}
	for i := 0; i < n; i++ {
		label := 1.0
		if r.Float64() < 0.5 {
			label = -1.0
		}
		x := make([]float64, dim)
		for j := 0; j < dim; j++ {
			x[j] = r.NormFloat64() + label*0.8
		}
		// 5% label noise.
		if r.Float64() < 0.05 {
			label = -label
		}
		p.X[i] = x
		p.Labels[i] = label
	}
	return p
}

// Rows is a relational dataset for the SQL RDD workload (RDD-RL).
type Rows struct {
	N    int
	Keys []int32 // grouping key, skewed
	Vals []int64
}

// GenRows generates n rows with Zipf-skewed keys over k distinct values.
func GenRows(seed uint64, n, k int) *Rows {
	r := NewRand(seed)
	rows := &Rows{N: n, Keys: make([]int32, n), Vals: make([]int64, n)}
	keys := NewZipf(k, 0.9)
	for i := 0; i < n; i++ {
		rows.Keys[i] = int32(keys.Draw(r))
		rows.Vals[i] = int64(r.Intn(1000))
	}
	return rows
}
