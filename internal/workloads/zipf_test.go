package workloads

import (
	"math"
	"testing"
)

// powRank is the per-call expression every Zipf draw evaluated before
// the sampler cached Pow(n, 1-s) and then memoised bucket edges, kept
// verbatim so the sampler is pinned draw for draw.
func powRank(n int, s, u float64) int {
	var k int
	if s == 1 {
		k = int(math.Pow(float64(n), u)) - 1
	} else {
		k = int(math.Pow(u*(math.Pow(float64(n), 1-s)-1)+1, 1/(1-s)) - 1)
	}
	return min(max(k, 0), n-1)
}

// powDraw is the old Draw: no value consumed when n <= 1.
func powDraw(r *Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	return powRank(n, s, r.Float64())
}

// TestZipfMatchesPerCallFormula: the sampler built once per (n, s) draws
// exactly what the per-call formula drew from the same stream, and
// consumes the stream identically (none at all when n <= 1).
func TestZipfMatchesPerCallFormula(t *testing.T) {
	for _, s := range []float64{0.9, 0.99, 1, 1.1} {
		for _, n := range []int{0, 1, 2, 7, 160, 1000, 1_200_000} {
			got, want := NewRand(uint64(n)+3), NewRand(uint64(n)+3)
			z := NewZipf(n, s)
			for i := 0; i < 20000; i++ {
				if g, w := z.Draw(got), powDraw(want, n, s); g != w {
					t.Fatalf("s=%g n=%d draw %d: %d, want %d", s, n, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("s=%g n=%d: streams diverged", s, n)
			}
		}
	}
}

func u53(m uint64) float64 { return float64(m) / (1 << 53) }

// TestZipfDrawMatchesPow: the memoised sampler draws exactly what the
// one-Pow expression drew, consuming the stream identically, for every
// sampler the simulator builds. For the serve sampler it also probes the
// 53-bit draws around every rank threshold, where a bucket straddles two
// ranks and a wrong memo edge would show first.
func TestZipfDrawMatchesPow(t *testing.T) {
	const draws = 400_000
	t.Run("serve-streams", func(t *testing.T) {
		// The request loop takes, per primary request, one Float64 for the
		// op, one key draw and one Uint64 for the client.
		for _, seed := range []uint64{1, 2} {
			z := NewZipf(4096, 0.99)
			got, want := NewRand(seed), NewRand(seed)
			for i := 0; i < draws; i++ {
				got.Float64()
				want.Float64()
				if g, w := z.Draw(got), powDraw(want, 4096, 0.99); g != w {
					t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
				}
				got.Uint64()
				want.Uint64()
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("seed %d: streams diverged", seed)
			}
		}
	})
	t.Run("samplers", func(t *testing.T) {
		for _, c := range []struct {
			n int
			s float64
		}{
			{160, 0.8}, {65_536, 1.1}, {45_000, 1.1}, // GenGraph degrees, targets
			{512, 0.9},           // GenRows keys
			{4096, 1}, {1000, 1}, // the s == 1 branch
			{2, 0.99}, {2, 1}, {1, 0.99}, {1, 1}, {0, 1.1},
		} {
			z := NewZipf(c.n, c.s)
			got, want := NewRand(uint64(c.n)+5), NewRand(uint64(c.n)+5)
			for i := 0; i < draws; i++ {
				if g, w := z.Draw(got), powDraw(want, c.n, c.s); g != w {
					t.Fatalf("n=%d s=%g draw %d: %d, want %d", c.n, c.s, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("n=%d s=%g: streams diverged", c.n, c.s)
			}
		}
	})
	t.Run("serve-thresholds", func(t *testing.T) {
		const n, s, probe = 4096, 0.99, 256
		z := NewZipf(n, s)
		for k := 1; k < n; k++ {
			// The least m whose rank reaches k, by bisection over [0, 2^53).
			lo, hi := uint64(0), uint64(1)<<53
			for lo < hi {
				mid := lo + (hi-lo)/2
				if powRank(n, s, u53(mid)) >= k {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo == 1<<53 {
				continue // no u reaches rank k
			}
			from := lo - min(lo, probe)
			to := min(lo+probe, 1<<53)
			prev := powRank(n, s, u53(from))
			for pass := 0; pass < 2; pass++ { // memo filling, then memo filled
				for m := from; m < to; m++ {
					w := powRank(n, s, u53(m))
					if (m < lo && w >= k) || (m >= lo && w < k) || w < prev {
						t.Fatalf("rank %d: expression steps more than once near m=%d", k, lo)
					}
					prev = w
					if g := z.at(m); g != w {
						t.Fatalf("rank %d, m=%d (threshold %d), pass %d: %d, want %d", k, m, lo, pass, g, w)
					}
				}
				prev = powRank(n, s, u53(from))
			}
		}
	})
}
