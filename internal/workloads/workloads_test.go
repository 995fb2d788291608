package workloads_test

import (
	"testing"
	"testing/quick"

	"github.com/carv-repro/teraheap-go/internal/workloads"
)

func TestRandDeterminism(t *testing.T) {
	a, b := workloads.NewRand(42), workloads.NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := workloads.NewRand(43)
	same := 0
	a = workloads.NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d", same)
	}
}

func TestFloat64InRange(t *testing.T) {
	r := workloads.NewRand(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := workloads.NewRand(9)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := workloads.NewRand(11)
	z := workloads.NewZipf(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(r)]++
	}
	// Rank 0 must dominate rank 50.
	if counts[0] <= counts[50]*2 {
		t.Fatalf("no skew: c0=%d c50=%d", counts[0], counts[50])
	}
}

func TestGenGraphShape(t *testing.T) {
	g := workloads.GenGraph(5, 1000, 8, 0.8)
	if g.N != 1000 {
		t.Fatalf("N = %d", g.N)
	}
	// Every vertex has at least one out-edge; total near n*avgDeg.
	var total int64
	for v, es := range g.Adj {
		if len(es) == 0 {
			t.Fatalf("vertex %d has no out-edges", v)
		}
		for _, e := range es {
			if e < 0 || int(e) >= g.N {
				t.Fatalf("edge target out of range: %d", e)
			}
			if int(e) == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
		total += int64(len(es))
	}
	if total != g.M {
		t.Fatalf("M = %d, counted %d", g.M, total)
	}
	if total < 6000 || total > 12000 {
		t.Fatalf("edge total off: %d (want ~8000)", total)
	}
}

func TestGenGraphDeterministic(t *testing.T) {
	a := workloads.GenGraph(5, 500, 4, 0.8)
	b := workloads.GenGraph(5, 500, 4, 0.8)
	if a.M != b.M {
		t.Fatal("nondeterministic edge count")
	}
	for v := range a.Adj {
		for i := range a.Adj[v] {
			if a.Adj[v][i] != b.Adj[v][i] {
				t.Fatal("nondeterministic adjacency")
			}
		}
	}
}

func TestGenPointsSeparable(t *testing.T) {
	p := workloads.GenPoints(3, 5000, 8)
	if p.N != 5000 || p.Dim != 8 {
		t.Fatalf("shape: %d x %d", p.N, p.Dim)
	}
	// The clusters are offset by ±0.8 per dimension: a trivial classifier
	// (sign of coordinate sum) should beat 75%.
	correct := 0
	for i := 0; i < p.N; i++ {
		var s float64
		for _, x := range p.X[i] {
			s += x
		}
		if (s > 0) == (p.Labels[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(p.N); acc < 0.75 {
		t.Fatalf("separability too low: %.2f", acc)
	}
}

func TestGenRowsKeysSkewed(t *testing.T) {
	rows := workloads.GenRows(13, 20000, 64)
	counts := make(map[int32]int)
	for _, k := range rows.Keys {
		if k < 0 || k >= 64 {
			t.Fatalf("key out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[40] {
		t.Fatalf("keys not skewed: c0=%d c40=%d", counts[0], counts[40])
	}
}
