package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must differ from parent's continuing stream.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split child mirrors parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 100; n++ {
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(10)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 100}} {
		s := r.SampleWithoutReplacement(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("sample(%d,%d) len=%d", tc.n, tc.k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate in sample: %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element of [0,5) should appear in a 2-sample with prob 2/5.
	r := New(12)
	counts := make([]int, 5)
	const trials = 50000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(5, 2) {
			counts[v]++
		}
	}
	for v, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.4) > 0.02 {
			t.Fatalf("element %d rate %v, want ~0.4", v, rate)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(13)
	cases := []struct {
		n int
		p float64
	}{{10, 0.5}, {100, 0.1}, {10000, 0.3}, {10000, 0.001}}
	for _, tc := range cases {
		const trials = 5000
		sum := 0.0
		for i := 0; i < trials; i++ {
			x := r.Binomial(tc.n, tc.p)
			if x < 0 || x > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, x)
			}
			sum += float64(x)
		}
		mean := sum / trials
		want := float64(tc.n) * tc.p
		sd := math.Sqrt(float64(tc.n) * tc.p * (1 - tc.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(trials)+0.5 {
			t.Fatalf("Binomial(%d,%v) mean = %v, want ~%v", tc.n, tc.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(14)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, .5) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(10, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(10, 1) != 10")
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(99)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSampleDistinct(t *testing.T) {
	r := New(100)
	f := func(a, b uint8) bool {
		n := int(a%50) + 1
		k := int(b) % (n + 1)
		s := r.SampleWithoutReplacement(n, k)
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(s) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

func TestJumpMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 100, 12345} {
		a := New(42)
		b := New(42)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.Jump(n)
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Jump(%d) diverges from %d sequential draws", n, n)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(7)
	a.Uint64()
	b := a.Clone()
	if a.Uint64() != b.Uint64() {
		t.Fatal("clone not at the same position")
	}
	b.Uint64()
	if a.Clone().Uint64() == b.Clone().Uint64() {
		t.Fatal("clone positions should have diverged")
	}
}

func TestDrawsSince(t *testing.T) {
	r := New(99)
	start := r.Clone()
	draws := uint64(0)
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			r.Uint64()
			draws++
		case 1:
			r.Intn(1000) // may consume >1 draw on rejection; count via a probe
			probe := start.Clone()
			probe.Jump(r.DrawsSince(start))
			if probe.Uint64() != r.Clone().Uint64() {
				t.Fatal("DrawsSince inconsistent with Jump after Intn")
			}
			draws = r.DrawsSince(start)
		case 2:
			r.Jump(13)
			draws += 13
		}
		if got := r.DrawsSince(start); got != draws {
			t.Fatalf("DrawsSince = %d, want %d (step %d)", got, draws, i)
		}
	}
}

// TestSampleWithoutReplacementDigests pins SampleWithoutReplacement across
// versions: each constant is an FNV-1a hash of the sample in order plus the
// generator's next draw, computed on the commit before Floyd's algorithm
// moved from a map to Set. k = 16 and 17 sit either side of the stack-backed
// table's size.
func TestSampleWithoutReplacementDigests(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		k    int
		want uint64
	}{
		{1, 0x20e8729924bf9de1}, {3, 0x9e5a3268f170d92b}, {16, 0x54f1b4f05c943dd6},
		{17, 0xe69c6fcf1ea39ce2}, {n / 2, 0x18a6d8e6b7f2eef6}, {n, 0x1dfc11fc234a295c},
	} {
		r := New(0xD16E57)
		h := fnv.New64a()
		var b [8]byte
		for _, v := range append(r.SampleWithoutReplacement(n, tc.k), int(r.Uint64()>>1)) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("SampleWithoutReplacement(%d, %d): digest %#x, want %#x", n, tc.k, got, tc.want)
		}
	}
}
