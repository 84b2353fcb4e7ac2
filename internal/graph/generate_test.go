package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rng"
)

// generatorDigest hashes everything a caller can observe of a generator
// run: the vertex count, the edge list in order (endpoints as stored, weight
// bits) and the next draw of the RNG the generator was handed.
func generatorDigest(g *Graph, r *rng.RNG) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(g.N))
	put(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.W))
	}
	put(r.Uint64())
	return h.Sum64()
}

// TestGeneratorDigests pins every random generator across versions: the
// constants were computed on the commit before the generators lost their hash
// maps (map[[2]int]bool dedup, append-grown edge lists), so a match means
// the same accept/reject decision for every attempt, the same edge order
// and the same final RNG position — for every SetParallelism setting, on
// sizes either side of genParallelMin.
func TestGeneratorDigests(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	for _, tc := range []struct {
		name string
		run  func(r *rng.RNG) *Graph
		want uint64
	}{
		{"GNM-sparse-small", func(r *rng.RNG) *Graph { return GNM(200, 1000, r) }, 0xf63324e6284c1cef},
		{"GNM-sparse-large", func(r *rng.RNG) *Graph { return GNM(3000, 40000, r) }, 0xccaa61e2a1caa5a7},
		{"GNM-dense-small", func(r *rng.RNG) *Graph { return GNM(60, 1500, r) }, 0x47607c345f7f7435},
		{"GNM-dense-large", func(r *rng.RNG) *Graph { return GNM(200, 15000, r) }, 0xafc4865993459ed},
		{"GNM-complete", func(r *rng.RNG) *Graph { return GNM(40, 780, r) }, 0x1302c52f11babef1},
		{"Density-small", func(r *rng.RNG) *Graph { return Density(100, 0.3, r) }, 0xf5a49cc813adff10},
		{"Density-large", func(r *rng.RNG) *Graph { return Density(500, 0.5, r) }, 0xd6591cdecc3495cc},
		{"RMAT-small", func(r *rng.RNG) *Graph { return RMATDefault(8, 1500, r) }, 0x4f29bc3b8d2bf84d},
		{"RMAT-large", func(r *rng.RNG) *Graph { return RMATDefault(12, 30000, r) }, 0x10f5e98ccd99ddcd},
		{"Bipartite-sparse-small", func(r *rng.RNG) *Graph { return RandomBipartite(100, 120, 2000, r) }, 0xd85c046dd168ec72},
		{"Bipartite-sparse-large", func(r *rng.RNG) *Graph { return RandomBipartite(400, 500, 30000, r) }, 0xb8574232acfc1136},
		{"Bipartite-dense-small", func(r *rng.RNG) *Graph { return RandomBipartite(50, 60, 2500, r) }, 0xb5b6774b18a51ffb},
		{"Bipartite-dense-large", func(r *rng.RNG) *Graph { return RandomBipartite(150, 150, 18000, r) }, 0x44225726fe31931c},
		{"PreferentialAttachment", func(r *rng.RNG) *Graph { return PreferentialAttachment(2000, 4, r) }, 0x34f5a283410041f},
		{"PlantClique", func(r *rng.RNG) *Graph {
			g := GNM(300, 3000, r)
			PlantClique(g, 25, r)
			return g
		}, 0xc4c37ad1590f5325},
	} {
		for _, workers := range []int{1, 2, 4} {
			SetParallelism(workers)
			r := rng.New(0xD16E57)
			if got := generatorDigest(tc.run(r), r); got != tc.want {
				t.Errorf("%s workers=%d: digest %#x, want %#x", tc.name, workers, got, tc.want)
			}
		}
	}
}

// benchGraph keeps BenchmarkGNM's result alive.
var benchGraph *Graph

// BenchmarkGNM generates the two graphs the end-to-end harness builds most:
// mis-rounds' n = 20 000, c = 0.5 and match's n = 30 000, c = 0.3.
func BenchmarkGNM(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		c    float64
	}{{"n=20000,c=0.5", 20000, 0.5}, {"n=30000,c=0.3", 30000, 0.3}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = Density(tc.n, tc.c, rng.New(uint64(i)))
			}
		})
	}
}

// TestGNMAllocsConstant: the edge list and the duplicate table are sized
// once from m, so a sequential GNM makes a handful of allocations however
// many edges it draws (the map-and-append version made hundreds here and
// 8 000 at m = 2.8 M).
func TestGNMAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer SetParallelism(SetParallelism(1))
	r := rng.New(3)
	count := func(m int) float64 {
		return testing.AllocsPerRun(5, func() { benchGraph = GNM(4000, m, r) })
	}
	small, large := count(1<<10), count(1<<16)
	if small != large || large > 10 {
		t.Fatalf("GNM(4000, m) made %v allocations at m = 2^10 and %v at m = 2^16, want the same and at most 10", small, large)
	}
}
