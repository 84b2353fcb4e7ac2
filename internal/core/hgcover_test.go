package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/setcover"
)

// serveCoverInstance builds the instance the serve workload's
// setcover-greedy jobs run on (service.BuildInstance of {n: 40000, seed: 1}):
// 40 000 sets of 1–12 elements over 4 000 elements, weights in [1, 8).
func serveCoverInstance() *setcover.Instance {
	return setcover.RandomSized(40000, 4000, 12, 8, rng.New(1).Split())
}

// BenchmarkHGSetCoverServe runs one setcover-greedy job of the serve
// workload: the serve instance at µ = 0.2, ε = 0.2, 18 iterations.
func BenchmarkHGSetCoverServe(b *testing.B) {
	inst := serveCoverInstance()
	inst.Dual()
	p := Params{Mu: 0.2, Seed: 1000000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HGSetCover(inst, p, HGCoverOptions{Eps: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}
