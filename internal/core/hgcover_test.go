package core

import (
	"runtime"
	"runtime/debug"
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

// TestHGSetCoverAllocsBounded pins the driver's bookkeeping at the serve
// instance: the dual-driven refresh and the flat group layout leave no
// allocation per element probe or per group, each sampled set's group ids
// are drawn into one reused buffer over one reused duplicate table, the
// payload slab, the membership list and the group buckets at least double
// their capacity when they grow, and the plan is sized once. It measures
// with the collector off, as TestColouringAllocsBounded does, so the
// readings do not spread: 628 mallocs and 3 410 859 bytes a call in three
// processes. The mallocs ceiling is 1.25× that reading. The bytes ceiling is
// 1.15×: doubling from the length instead of the capacity, which leaves the
// buckets (refilled from empty) growing by exact steps, reads 634 mallocs
// and 4 504 491 bytes and fails it, and so does growing the lists by appends
// (5.1 MB). A map and per-group slices took about 339 000 allocations a
// call; a fresh sample and Floyd set per sampled set took about 2 470 and
// 16 MB.
func TestHGSetCoverAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	inst := serveCoverInstance()
	inst.Dual() // built once per instance, as service.BuildInstance does
	p := Params{Mu: 0.2, Seed: 1000000}
	run := func() {
		if _, err := HGSetCover(inst, p, HGCoverOptions{Eps: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	allocs, bytes := func() (float64, float64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, run), bytesPerRun(3, run)
	}()
	if allocs > 785 || bytes > 3.92e6 {
		t.Errorf("%v allocations and %.0f bytes per call, want <= 785 and <= 3.92e6", allocs, bytes)
	}
	t.Logf("%v allocations, %.0f bytes per call", allocs, bytes)
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
