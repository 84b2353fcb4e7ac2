package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestColouringBytesIgnoreGC checks that what an Algorithm 5 call allocates
// does not depend on whether the collector ran since the last call: two GC
// cycles empty sync.Pool, but the route and output rounds charge their
// records, so no column of theirs comes from it. At n = 8000 a call after
// two cycles reads within 500 B of a warm one (232 864 B vertex, 7 482 624 B
// edge). Route records written into columns drawn from the pool read 0.23
// and 7.48 MB warm and 2.64 and 13.4 MB after the cycles.
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
