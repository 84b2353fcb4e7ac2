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
// vertex/edge 63/63 mallocs and 109 360/1 673 978 bytes at n = 2000,
// 79/81 and 429 264/10 341 520 at n = 8000. The ceilings are 1.25× the
// readings taken before the route round reserved its columns (56/56 and
// 70/72 mallocs, bytes within 200 of today's). Colouring each vertex group on a copied induced subgraph, with
// an m-sized slab of edge groups, read 68 mallocs and 1 305 434 bytes, and
// 92 and 4 558 168, so it fails both VertexColouring rows. Colouring each
// edge group on a copied subgraph, with an int colour per edge, and
// emitting from a second partition of all the items read 69 mallocs and
// 2 419 888 bytes, and 94 and 14 716 784, so it fails both EdgeColouring
// rows.
func TestColouringAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		n                  int
		vMallocs, eMallocs float64
		vBytes, eBytes     float64
	}{
		{2000, 70, 70, 1.37e5, 2.10e6},
		{8000, 87, 90, 5.37e5, 12.93e6},
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

// TestColouringBytesIgnoreGC checks that what an Algorithm 5 call allocates
// does not depend on whether the collector ran since the last call: two GC
// cycles empty sync.Pool, and the route round's reserved columns come from
// the hand-off set, which the collector leaves alone. At n = 8000 a call
// after two cycles reads the same bytes as a warm one (429 400 B vertex,
// 10 341 656 B edge). Route columns drawn from the pool and grown by
// appends read 0.43 and 12.9 MB warm and 5.1 and 20.4 MB after the cycles.
func TestColouringBytesIgnoreGC(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := graph.Density(8000, 0.3, rng.New(71))
	p := Params{Mu: 0.2, Seed: 1}
	for _, alg := range []struct {
		name   string
		colour func(*graph.Graph, Params) (*ColouringResult, error)
	}{
		{"VertexColouring", VertexColouring},
		{"EdgeColouring", EdgeColouring},
	} {
		run := func() {
			if _, err := alg.colour(g, p); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC()
		warm, cold := func() (float64, float64) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			warm := bytesPerRun(1, run)
			runtime.GC()
			runtime.GC()
			return warm, bytesPerRun(1, run)
		}()
		if cold > 1.02*warm {
			t.Errorf("%s m=%d: %.0f bytes after two GC cycles, %.0f warm", alg.name, g.M(), cold, warm)
		}
		t.Logf("%s m=%d: %.0f bytes warm, %.0f after two GC cycles", alg.name, g.M(), warm, cold)
	}
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

// BenchmarkVertexColouring runs one vcolour job of the serve workload: its
// uploaded graph (a density graph with n = 16000, c = 0.3, seed 1; weights
// play no part) at µ = 0.2, κ = 2.
func BenchmarkVertexColouring(b *testing.B) {
	g := graph.Density(16000, 0.3, rng.New(1).Split())
	g.Build()
	p := Params{Mu: 0.2, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VertexColouring(g, p); err != nil {
			b.Fatal(err)
		}
	}
}
