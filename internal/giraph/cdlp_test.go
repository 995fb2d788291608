package giraph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/giraph"
)

// mapCDLP is the counting rule CDLP.Compute implements, written with a
// map: the running best moves to a label when its count passes the best
// count, or ties it with a smaller label.
func mapCDLP(value float64, msgs []float64) float64 {
	counts := make(map[float64]int, len(msgs))
	best, bestN := value, 0
	for _, m := range msgs {
		counts[m]++
		if n := counts[m]; n > bestN || (n == bestN && m < best) {
			best, bestN = m, n
		}
	}
	return best
}

// TestCDLPMatchesMapCount checks the counting Compute against the map
// rule on random message multisets drawn from few labels, so ties on the
// highest count are common. One CDLP value serves every call, as one
// engine's does, and the messages must come back unmodified.
func TestCDLPMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := &giraph.CDLP{Iterations: 3}
	c.Init(0, 0, 50)
	ties := 0
	for i := 0; i < 5000; i++ {
		msgs := make([]float64, rng.Intn(24))
		labels := 1 + rng.Intn(6)
		for j := range msgs {
			msgs[j] = float64(rng.Intn(labels) * 7)
		}
		in := slices.Clone(msgs)
		value := float64(rng.Intn(50))
		want := mapCDLP(value, msgs)
		got, send, msg := c.Compute(1, 0, value, msgs, len(msgs))
		if got != want || msg != want || !send {
			t.Fatalf("msgs %v value %v: got %v (msg %v, send %v), want %v", in, value, got, msg, send, want)
		}
		if !slices.Equal(msgs, in) {
			t.Fatalf("Compute modified its messages: %v, was %v", msgs, in)
		}
		if tiedAtTop(msgs) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no multiset tied on its highest count: vacuous")
	}
	if got, _, _ := c.Compute(0, 0, 3, []float64{1, 1}, 2); got != 3 {
		t.Fatalf("superstep 0 must keep the initial label, got %v", got)
	}
}

// tiedAtTop reports whether two or more labels share the highest count.
func tiedAtTop(msgs []float64) bool {
	counts := map[float64]int{}
	top := 0
	for _, m := range msgs {
		counts[m]++
		top = max(top, counts[m])
	}
	n := 0
	for _, c := range counts {
		if c == top {
			n++
		}
	}
	return n > 1
}

// sortCDLP is the sort-and-scan rule CDLP.Compute used to implement: sort
// a copy of the messages and take the first run of the greatest length,
// which is the most frequent label with the smallest value.
func sortCDLP(value float64, msgs []float64) float64 {
	buf := slices.Clone(msgs)
	slices.Sort(buf)
	nv, bestN := value, 0
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		if j-i > bestN {
			nv, bestN = buf[i], j-i
		}
		i = j
	}
	return nv
}

// TestCDLPMatchesSortAndScan checks the counting Compute against the sort
// it replaced on message multisets of several shapes, over labels in
// [0, n): many ties, one label, all-distinct labels and a heavy in-degree
// vertex. Each shape runs on one CDLP value, so every call also checks
// that the previous one left its counts at zero.
func TestCDLPMatchesSortAndScan(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(26))
	shapes := []struct {
		name string
		gen  func() []float64
	}{
		{"ties", func() []float64 {
			msgs := make([]float64, 1+rng.Intn(40))
			labels := rng.Perm(n)[:1+rng.Intn(5)]
			for j := range msgs {
				msgs[j] = float64(labels[rng.Intn(len(labels))])
			}
			return msgs
		}},
		{"one label", func() []float64 {
			msgs := make([]float64, 1+rng.Intn(30))
			l := float64(rng.Intn(n))
			for j := range msgs {
				msgs[j] = l
			}
			return msgs
		}},
		{"all distinct", func() []float64 {
			perm := rng.Perm(n)[:1+rng.Intn(60)]
			msgs := make([]float64, len(perm))
			for j, l := range perm {
				msgs[j] = float64(l)
			}
			return msgs
		}},
		{"heavy in-degree", func() []float64 {
			msgs := make([]float64, 5000+rng.Intn(5000))
			for j := range msgs {
				// Skewed toward small labels, as label propagation
				// converges onto them, with a long tail.
				msgs[j] = float64(min(rng.Intn(n), rng.Intn(n), rng.Intn(n)))
			}
			return msgs
		}},
	}
	for _, sh := range shapes {
		c := &giraph.CDLP{Iterations: 4}
		c.Init(0, 0, n)
		for i := 0; i < 300; i++ {
			msgs := sh.gen()
			value := float64(rng.Intn(n))
			want := sortCDLP(value, msgs)
			if got, _, _ := c.Compute(2, 0, value, msgs, len(msgs)); got != want {
				t.Fatalf("%s: %d messages, value %v: got %v, want %v", sh.name, len(msgs), value, got, want)
			}
		}
	}
}

// TestCDLPPanicsOnLabelOutsideRange pins the contract that every label is
// a vertex id: a message that is negative, at or past n, or not an
// integer is a bug upstream and must not be counted as some other label.
func TestCDLPPanicsOnLabelOutsideRange(t *testing.T) {
	for _, bad := range []float64{-1, 10, 11, 2.5, math.NaN(), math.Inf(1)} {
		c := &giraph.CDLP{Iterations: 3}
		c.Init(0, 0, 10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label %v with n = 10: Compute did not panic", bad)
				}
			}()
			c.Compute(1, 0, 0, []float64{3, bad}, 2)
		}()
	}
}
