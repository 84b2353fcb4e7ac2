package seq

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// The sequential baselines' wall-clock, on the sizes of the paper's Figure 1
// comparison columns.

// seqBenchGraph is a weighted 800-vertex graph at density c = 0.3.
func seqBenchGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	g := graph.Density(800, 0.3, r)
	g.AssignUniformWeights(r, 1, 100)
	return g
}

func BenchmarkSeqLocalRatioMatching(b *testing.B) {
	g := seqBenchGraph(19)
	for i := 0; i < b.N; i++ {
		_ = LocalRatioMatching(g)
	}
}

func BenchmarkSeqGreedyMatching(b *testing.B) {
	g := seqBenchGraph(20)
	for i := 0; i < b.N; i++ {
		_ = GreedyMatching(g)
	}
}

func BenchmarkSeqGreedySetCover(b *testing.B) {
	inst := setcover.RandomSized(2000, 200, 12, 8, rng.New(21))
	for i := 0; i < b.N; i++ {
		_ = GreedySetCover(inst, 0)
	}
}

func BenchmarkSeqLocalRatioSetCover(b *testing.B) {
	inst := setcover.RandomFrequency(300, 6000, 4, 10, rng.New(22))
	for i := 0; i < b.N; i++ {
		_, _ = LocalRatioSetCover(inst)
	}
}

func BenchmarkSeqMisraGries(b *testing.B) {
	g := graph.Density(400, 0.3, rng.New(23))
	for i := 0; i < b.N; i++ {
		_ = MisraGries(g)
	}
}

func BenchmarkSeqGreedyMIS(b *testing.B) {
	g := seqBenchGraph(24)
	for i := 0; i < b.N; i++ {
		_ = GreedyMIS(g, nil)
	}
}

// BenchmarkMisraGriesOf colours one of the two edge groups an ecolour job
// splits the benchmark workload's instance into (Density(15000, 0.3),
// κ = 2 at µ = 0.2), straight from the group's edge ids.
func BenchmarkMisraGriesOf(b *testing.B) {
	g := graph.Density(15000, 0.3, rng.New(1).Split())
	r := rng.New(1)
	var ids []int
	for id := range g.Edges {
		if r.Intn(2) == 0 {
			ids = append(ids, id)
		}
	}
	colour := make([]int, g.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MisraGriesOf(g, ids, colour)
	}
}
