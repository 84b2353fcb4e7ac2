package setcover

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func tiny() *Instance {
	// Sets over elements {0,1,2,3}:
	//   S0 = {0,1} w=1,  S1 = {1,2} w=1,  S2 = {2,3} w=1,  S3 = {0,1,2,3} w=2.5
	return &Instance{
		NumElements: 4,
		Sets:        [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3}},
		Weights:     []float64{1, 1, 1, 2.5},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := tiny()
	bad.Weights[0] = 0
	if bad.Validate() == nil {
		t.Fatal("zero weight accepted")
	}
	bad2 := tiny()
	bad2.Sets[0] = []int{0, 9}
	if bad2.Validate() == nil {
		t.Fatal("out of range element accepted")
	}
	bad3 := tiny()
	bad3.NumElements = 5
	if bad3.Validate() == nil {
		t.Fatal("uncovered element accepted")
	}
	bad4 := tiny()
	bad4.Weights = bad4.Weights[:2]
	if bad4.Validate() == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDualAndFrequency(t *testing.T) {
	in := tiny()
	d := in.Dual()
	if len(d) != 4 {
		t.Fatal("dual length")
	}
	// Element 1 is in S0, S1, S3.
	if len(d[1]) != 3 {
		t.Fatalf("freq(1) = %d", len(d[1]))
	}
	if in.MaxFrequency() != 3 {
		t.Fatalf("f = %d", in.MaxFrequency())
	}
	if in.MaxSetSize() != 4 {
		t.Fatalf("delta = %d", in.MaxSetSize())
	}
	if in.TotalSize() != 2+2+2+4 {
		t.Fatalf("total size = %d", in.TotalSize())
	}
}

func TestIsCoverAndWeight(t *testing.T) {
	in := tiny()
	if !in.IsCover([]int{3}) {
		t.Fatal("S3 covers everything")
	}
	if !in.IsCover([]int{0, 2}) {
		t.Fatal("S0+S2 covers")
	}
	if in.IsCover([]int{0, 1}) {
		t.Fatal("S0+S1 misses 3")
	}
	if in.IsCover([]int{9}) {
		t.Fatal("invalid index")
	}
	if w := in.Weight([]int{0, 2, 0}); w != 2 {
		t.Fatalf("weight with dup = %v", w)
	}
}

// TestWeightSumsFirstOccurrences checks Weight bit for bit against summing
// each index at its first occurrence: floating-point addition is not
// associative, so the order is part of every cover's reported weight.
func TestWeightSumsFirstOccurrences(t *testing.T) {
	r := rng.New(31)
	in := RandomSized(300, 60, 6, 1000, r)
	for trial := 0; trial < 20; trial++ {
		x := make([]int, 1+r.Intn(400))
		for j := range x {
			x[j] = r.Intn(in.NumSets())
		}
		want := 0.0
		seen := map[int]bool{}
		for _, i := range x {
			if !seen[i] {
				seen[i] = true
				want += in.Weights[i]
			}
		}
		if got := in.Weight(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Weight = %v, first-occurrence sum %v", trial, got, want)
		}
	}
}

func TestClone(t *testing.T) {
	in := tiny()
	cp := in.Clone()
	cp.Sets[0][0] = 99
	cp.Weights[0] = 99
	if in.Sets[0][0] == 99 || in.Weights[0] == 99 {
		t.Fatal("clone aliases original")
	}
}

func TestFromVertexCover(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	w := []float64{1, 2, 3, 4}
	in := FromVertexCover(g, w)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NumSets() != 4 || in.NumElements != 3 {
		t.Fatal("dimensions")
	}
	if f := in.MaxFrequency(); f != 2 {
		t.Fatalf("vertex cover must have f=2, got %d", f)
	}
	// Vertex 1's set must contain edges 0 and 1.
	if len(in.Sets[1]) != 2 {
		t.Fatalf("set for vertex 1: %v", in.Sets[1])
	}
}

func TestRandomFrequency(t *testing.T) {
	r := rng.New(1)
	in := RandomFrequency(20, 500, 3, 10, r)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if f := in.MaxFrequency(); f > 3 || f < 1 {
		t.Fatalf("f = %d, want in [1,3]", f)
	}
	if in.NumSets() != 20 || in.NumElements != 500 {
		t.Fatal("dimensions")
	}
	for _, w := range in.Weights {
		if w < 1 || w >= 10 {
			t.Fatalf("weight %v", w)
		}
	}
}

func TestRandomSized(t *testing.T) {
	r := rng.New(2)
	in := RandomSized(200, 50, 8, 5, r)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := in.MaxSetSize(); d > 9 { // delta + at most slack from coverage fixes
		t.Fatalf("delta = %d, want <= 9", d)
	}
}

func TestRandomSizedDeltaClamp(t *testing.T) {
	r := rng.New(3)
	in := RandomSized(10, 3, 100, 2, r) // delta > m gets clamped
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.MaxSetSize() > 3 {
		t.Fatal("delta clamp failed")
	}
}

func TestQuickRandomFrequencyAlwaysCovered(t *testing.T) {
	r := rng.New(4)
	f := func(a, b, c uint8) bool {
		n := int(a%20) + 1
		m := int(b%100) + 1
		fq := int(c)%n + 1
		in := RandomFrequency(n, m, fq, 4, r)
		return in.Validate() == nil && in.MaxFrequency() <= fq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomSizedAlwaysCovered(t *testing.T) {
	r := rng.New(5)
	f := func(a, b, c uint8) bool {
		n := int(a%30) + 1
		m := int(b%40) + 1
		d := int(c%10) + 1
		in := RandomSized(n, m, d, 3, r)
		return in.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// instanceDigest hashes an instance as a caller sees it: sets and weights in
// order, then the dual, then the next draw of the RNG that generated it.
func instanceDigest(in *Instance, r *rng.RNG) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	lists := func(ls [][]int) {
		put(uint64(len(ls)))
		for _, l := range ls {
			put(uint64(len(l)))
			for _, x := range l {
				put(uint64(x))
			}
		}
	}
	put(uint64(in.NumElements))
	lists(in.Sets)
	for _, w := range in.Weights {
		put(math.Float64bits(w))
	}
	lists(in.Dual())
	put(r.Uint64())
	return h.Sum64()
}

// TestInstanceDigests pins the generators, FromVertexCover and Dual across
// versions: the constants were computed on the commit before
// SampleWithoutReplacement lost its map and Dual/FromVertexCover moved to
// one slab each.
func TestInstanceDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(r *rng.RNG) *Instance
		want uint64
	}{
		{"RandomFrequency-f3", func(r *rng.RNG) *Instance { return RandomFrequency(200, 3000, 3, 10, r) }, 0x54f2cea827c37ba2},
		{"RandomFrequency-f40", func(r *rng.RNG) *Instance { return RandomFrequency(60, 500, 40, 10, r) }, 0xe2848b32242415cb},
		{"RandomSized", func(r *rng.RNG) *Instance { return RandomSized(500, 50, 12, 8, r) }, 0x8ae038adbdb0cdc9},
		{"RandomSized-wide", func(r *rng.RNG) *Instance { return RandomSized(40, 400, 60, 8, r) }, 0xd8cdfc79cff05732},
		{"FromVertexCover", func(r *rng.RNG) *Instance {
			g := graph.GNM(120, 900, r)
			w := make([]float64, g.N)
			for i := range w {
				w[i] = r.UniformWeight(1, 10)
			}
			return FromVertexCover(g, w)
		}, 0xc839ade9a1bd5378},
	} {
		r := rng.New(0xD16E57)
		if got := instanceDigest(tc.run(r), r); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// bigInstance is the f = 3 generator at 10⁵ elements, without its dual.
func bigInstance() *Instance {
	return RandomFrequency(2000, 100000, 3, 10, rng.New(8))
}

// TestDualAllocsBounded: the dual is a frequency count, one slab and the
// views' headers, not a grown slice per element.
func TestDualAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	in := bigInstance()
	if allocs := testing.AllocsPerRun(3, func() {
		in.dual = nil
		in.Dual()
	}); allocs > 3 {
		t.Fatalf("Dual() on %d elements made %v allocations, want at most 3", in.NumElements, allocs)
	}
}

func BenchmarkDual(b *testing.B) {
	b.ReportAllocs()
	in := bigInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.dual = nil
		in.Dual()
	}
}
