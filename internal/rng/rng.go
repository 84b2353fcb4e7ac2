// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every randomized algorithm in this repository.
//
// The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit state
// advanced by a Weyl increment and finalized with a variant of the MurmurHash3
// mixer. It is not cryptographically secure, but it is statistically strong,
// allocation-free, and — crucially for reproducible experiments — splittable:
// independent child streams can be forked deterministically from a parent.
//
// All algorithms in internal/core and internal/seq take an explicit *rng.RNG
// (or a seed), so every experiment in the benchmark harness is exactly
// reproducible from its seed.
package rng

import (
	"math"
	"slices"
)

// RNG is a deterministic pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New to make seeding explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// golden is 2^64 / phi, the Weyl increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split forks a child generator whose stream is independent of the parent's
// subsequent output. The parent advances by one step.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64()}
}

// Clone returns a copy of r at its current stream position. The clone and
// the original produce identical subsequent output and advance independently.
func (r *RNG) Clone() *RNG {
	return &RNG{state: r.state}
}

// Jump advances the generator by n raw Uint64 draws in O(1). Because
// SplitMix64's state is an affine counter (state += golden per draw),
// r.Jump(n) leaves r exactly where n calls to Uint64 would. This is what
// lets parallel generators hand each worker chunk its own stream position
// while staying bit-identical to a sequential draw sequence.
func (r *RNG) Jump(n uint64) {
	r.state += n * golden
}

// goldenInv is the multiplicative inverse of golden modulo 2^64 (golden is
// odd, hence invertible), computed by Newton iteration: each step doubles
// the number of correct low bits.
var goldenInv = func() uint64 {
	x := uint64(golden) // correct to 3 bits
	for i := 0; i < 5; i++ {
		x *= 2 - golden*x
	}
	return x
}()

// DrawsSince returns how many raw Uint64 draws (including Jumps) separate r
// from the earlier position past. It is exact for any pair of positions on
// the same stream: the state difference divided by the (odd, invertible)
// Weyl increment.
func (r *RNG) DrawsSince(past *RNG) uint64 {
	return (r.state - past.state) * goldenInv
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless method would be faster, but modulo bias is
	// negligible for n far below 2^64 and this keeps the code obvious.
	bound := uint64(n)
	threshold := -bound % bound // (2^64 - bound) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// UniformWeight returns a uniform weight in [lo, hi).
func (r *RNG) UniformWeight(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, via the
// Fisher-Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n),
// in no particular order. It panics if k > n or k < 0. Up to 16 indices its
// duplicate table is an array on its stack, so the small samples the
// generators draw per element and per set allocate only their result.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	var stackSlots [32]uint64
	var out []int
	if k > 0 {
		out = make([]int, 0, k)
	}
	out, _ = r.SampleAppend(out, stackSlots[:], n, k)
	return out
}

// SampleAppend appends k distinct uniform indices from [0, n) to dst and
// returns it, making exactly the draws SampleWithoutReplacement makes. table
// is the storage of the duplicate table, reused whatever it holds: only the
// setSlots(k) slots the draw uses are cleared, and a table too short for
// them is replaced by a larger one. It returns the table it used, for the
// next call. A caller that keeps both across calls samples without
// allocating. It panics if k > n or k < 0.
func (r *RNG) SampleAppend(dst []int, table []uint64, n, k int) ([]int, []uint64) {
	if k < 0 || k > n {
		panic("rng: sampling without replacement requires 0 <= k <= n")
	}
	if k == 0 {
		return dst, table
	}
	// Floyd's algorithm: O(k) expected time, O(k) space. The set stores t+1,
	// so its keys are non-zero.
	slots := setSlots(k)
	if cap(table) < slots {
		table = make([]uint64, slots)
	} else {
		table = table[:slots]
		clear(table)
	}
	chosen := setOver(table)
	dst = slices.Grow(dst, k)
	for i := 0; i < k; i++ {
		j := n - k + i
		t := r.Intn(j + 1)
		if chosen.Add(uint64(t) + 1) {
			t = j
			chosen.Add(uint64(j) + 1)
		}
		dst = append(dst, t)
	}
	return dst, table
}

// Binomial returns a sample from Binomial(n, p). For small n it sums
// Bernoulli trials; for large n it uses the normal approximation when the
// variance is large enough that the approximation error is negligible for
// our simulation purposes (sampling set sizes), falling back to inversion.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		c := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				c++
			}
		}
		return c
	}
	mean := float64(n) * p
	variance := mean * (1 - p)
	if variance >= 100 {
		// Normal approximation with continuity correction.
		x := int(math.Round(mean + math.Sqrt(variance)*r.normFloat64()))
		if x < 0 {
			x = 0
		}
		if x > n {
			x = n
		}
		return x
	}
	// Inversion by sequential search; fine for small mean.
	q := math.Pow(1-p, float64(n))
	u := r.Float64()
	cum := q
	k := 0
	for u > cum && k < n {
		k++
		q *= (float64(n-k+1) / float64(k)) * (p / (1 - p))
		cum += q
	}
	return k
}

// normFloat64 returns a standard normal variate via the polar method.
func (r *RNG) normFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
