package core

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestColouringAllocsBounded pins what one Algorithm 5 call allocates, in
// mallocs and in bytes, for both variants at the benchmark's density and µ
// (c = 0.3, µ = 0.2; κ = 1 at n = 2000, 2 at n = 8000). The ceilings are
// 1.25× the mallocs and 1.5× the bytes measured when it was written, warm
// (vertex/edge: 82/91 mallocs and 1.45/4.45 MB at n = 2000, 123/148 and
// 5.13/28.6 MB at n = 8000), with machines walking their edges as a
// stride, the group lists in one slab each and the colours counted in a
// bitmap. Per-machine lists grown by append and a radix count took 147/152
// and 238/253 mallocs, and 2.29/5.99 and 10.7/39.6 MB.
func TestColouringAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		n                  int
		vMallocs, eMallocs float64
		vBytes, eBytes     float64
	}{
		{2000, 102, 113, 2.18e6, 6.68e6},
		{8000, 153, 185, 7.70e6, 42.9e6},
	} {
		g := graph.Density(tc.n, 0.3, rng.New(71))
		p := Params{Mu: 0.2, Seed: 1}
		for _, alg := range []struct {
			name           string
			colour         func(*graph.Graph, Params) (*ColouringResult, error)
			mallocs, bytes float64
		}{
			{"VertexColouring", VertexColouring, tc.vMallocs, tc.vBytes},
			{"EdgeColouring", EdgeColouring, tc.eMallocs, tc.eBytes},
		} {
			run := func() {
				if _, err := alg.colour(g, p); err != nil {
					t.Fatal(err)
				}
			}
			run()
			mallocs := testing.AllocsPerRun(5, run)
			bytes := bytesPerRun(5, run)
			if mallocs > alg.mallocs || bytes > alg.bytes {
				t.Errorf("%s m=%d: %v mallocs and %.0f bytes per call, want <= %v and <= %.0f",
					alg.name, g.M(), mallocs, bytes, alg.mallocs, alg.bytes)
			}
			t.Logf("%s m=%d: %v mallocs, %.0f bytes per call", alg.name, g.M(), mallocs, bytes)
		}
	}
}

// bytesPerRun returns the heap bytes one call of run allocates, averaged
// over runs calls, on one P as testing.AllocsPerRun measures.
func bytesPerRun(runs int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
