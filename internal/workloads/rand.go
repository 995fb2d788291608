// Package workloads generates the synthetic datasets driving the
// experiments: power-law graphs standing in for the LDBC datagen social
// graphs, labeled points standing in for the SparkBench ML generators, and
// relational rows for the SQL workload. All generation is deterministic
// given a seed.
package workloads

import "math"

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
// 1/(1-s), so a draw makes one Pow call.
type Zipf struct {
	n      int
	s      float64
	pow    float64 // Pow(n, 1-s)
	invExp float64 // 1/(1-s)
}

// NewZipf builds the sampler for n ranks with skew s.
func NewZipf(n int, s float64) Zipf {
	return Zipf{n: n, s: s, pow: math.Pow(float64(n), 1-s), invExp: 1 / (1 - s)}
}

// Draw returns one rank, consuming one Float64 from r (none when n <= 1).
func (z Zipf) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	u := r.Float64()
	var k int
	if z.s == 1 {
		k = int(math.Pow(float64(z.n), u)) - 1
	} else {
		k = int(math.Pow(u*(z.pow-1)+1, z.invExp) - 1)
	}
	return min(max(k, 0), z.n-1)
}
