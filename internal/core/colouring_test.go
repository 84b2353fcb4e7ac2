package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestColouringAllocsBounded pins what one Algorithm 5 call allocates, in
// mallocs and in bytes, for both variants at the benchmark's density and µ
// (c = 0.3, µ = 0.2; κ = 1 at n = 2000, 2 at n = 8000). It measures with
// the collector off, as TestRLRSetCoverAllocsBounded does, so the readings
// do not spread. Three processes read the same counts to the byte:
// vertex/edge 68/56 mallocs and 1 305 434/1 673 864 bytes at n = 2000,
// 92/72 and 4 558 168/10 341 336 at n = 8000. The ceilings are 1.25× those
// readings. Colouring each edge group on a copied subgraph, with an int
// colour per edge, and emitting from a second partition of all the items
// read 69 mallocs and 2 419 888 bytes, and 94 and 14 716 784, so it fails
// both EdgeColouring rows.
func TestColouringAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		n                  int
		vMallocs, eMallocs float64
		vBytes, eBytes     float64
	}{
		{2000, 85, 70, 1.64e6, 2.10e6},
		{8000, 115, 90, 5.70e6, 12.93e6},
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
			runtime.GC()
			mallocs, bytes := func() (float64, float64) {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				return testing.AllocsPerRun(5, run), bytesPerRun(5, run)
			}()
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

// BenchmarkEdgeColouring runs one job of the ecolour benchmark workload: its
// instance (service.BuildInstance of a density spec with n = 15000,
// c = 0.3, seed 1; weights play no part) at µ = 0.2, κ = 2.
func BenchmarkEdgeColouring(b *testing.B) {
	g := graph.Density(15000, 0.3, rng.New(1).Split())
	g.Build()
	p := Params{Mu: 0.2, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EdgeColouring(g, p); err != nil {
			b.Fatal(err)
		}
	}
}
