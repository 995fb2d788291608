// Package workloads generates the synthetic datasets driving the
// experiments: power-law graphs standing in for the LDBC datagen social
// graphs, labeled points standing in for the SparkBench ML generators, and
// relational rows for the SQL workload. All generation is deterministic
// given a seed.
package workloads

import (
	"math"
	"math/bits"
)

// Rand is a small deterministic PRNG (splitmix64) so every experiment is
// exactly reproducible.
type Rand struct {
	state uint64
}

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workloads: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf samples ranks in [0, n) with P(k) ∝ 1/(k+1)^s by inverting the
// CDF of the continuous analogue, an approximation adequate for degree and
// key-popularity skew. Build it once per (n, s): it holds Pow(n, 1-s) and
// 1/(1-s), and a lazy memo of bucket edges. The 53 bits a draw takes
// split into G buckets, G the smallest power of two >= n; edge[b] is the
// rank at bucket b's first u, and a draw fills its bucket's two edges on
// first use. Since the rank is non-decreasing in u, a bucket whose two
// edges agree holds one rank, and a draw landing there makes no Pow call;
// any other draw makes one, on its own u. A Zipf is not safe for
// concurrent use: copies share the memo.
type Zipf struct {
	n      int
	s      float64
	pow    float64 // Pow(n, 1-s)
	invExp float64 // 1/(1-s)
	shift  uint    // 53 - log2(G): a draw's bucket is its 53 bits >> shift
	edge   []int32 // G+1 bucket edges as rank+1; 0 is not filled yet
}

// NewZipf builds the sampler for n ranks with skew s. No Pow runs for the
// memo until a draw needs it.
func NewZipf(n int, s float64) Zipf {
	z := Zipf{n: n, s: s, pow: math.Pow(float64(n), 1-s), invExp: 1 / (1 - s)}
	if n > 1 {
		lg := bits.Len(uint(n - 1))
		z.shift = uint(53 - lg)
		z.edge = make([]int32, 1<<lg+1)
		z.edge[1<<lg] = int32(n) // rank n-1 bounds the last bucket
	}
	return z
}

// Draw returns the rank at u = r.Float64(): it consumes the same one
// Uint64 (none when n <= 1) and returns exactly what rank(u) would.
func (z Zipf) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	return z.at(r.Uint64() >> 11)
}

// at returns the rank at u = m/2^53 for 53 random bits m.
func (z Zipf) at(m uint64) int {
	b := m >> z.shift
	lo, hi := z.edge[b], z.edge[b+1]
	if lo == 0 {
		lo = z.fill(b)
	}
	if hi == 0 {
		hi = z.fill(b + 1)
	}
	if lo == hi {
		return int(lo) - 1
	}
	return z.rank(float64(m) / (1 << 53))
}

// fill memoises edge b: the rank at bucket b's first u, plus one.
func (z Zipf) fill(b uint64) int32 {
	e := int32(z.rank(float64(b<<z.shift)/(1<<53))) + 1
	z.edge[b] = e
	return e
}

// rank inverts the CDF at u in [0, 1) and clamps to [0, n).
func (z Zipf) rank(u float64) int {
	var k int
	if z.s == 1 {
		k = int(math.Pow(float64(z.n), u)) - 1
	} else {
		k = int(math.Pow(u*(z.pow-1)+1, z.invExp) - 1)
	}
	return min(max(k, 0), z.n-1)
}
