package giraph_test

import (
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

// TestCDLPMatchesMapCount checks the sort-and-count Compute against the
// map rule on random message multisets drawn from few labels, so ties on
// the highest count are common. One CDLP value serves every call, as one
// engine's does, and the messages must come back unmodified.
func TestCDLPMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := &giraph.CDLP{Iterations: 3}
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
