package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/setcover"
)

func TestCanonArgsRejectsNonFinite(t *testing.T) {
	for _, a := range Algorithms() {
		for _, p := range a.Params {
			if _, err := a.CanonArgs(map[string]float64{p.Name: p.Default}); err != nil {
				t.Errorf("%s %s=%v (the default): %v", a.Name, p.Name, p.Default, err)
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if _, err := a.CanonArgs(map[string]float64{p.Name: v}); err == nil {
					t.Errorf("%s %s=%v: accepted", a.Name, p.Name, v)
				}
			}
		}
	}
}

// TestVertexCoverRatioBound checks Theorem 2.4's f = 2 case through the
// registry: over 24 seeds of vertex-weighted graphs with n ≤ 16, at µ = 0.05
// and 0.2, the "vertexcover" entry returns a valid cover of weight at most
// twice the optimum seq.BruteForceVertexCover finds.
func TestVertexCoverRatioBound(t *testing.T) {
	alg, ok := LookupAlgorithm("vertexcover")
	if !ok {
		t.Fatal("vertexcover is not registered")
	}
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(700 + seed)
		n := 10 + int(seed%7)
		g := graph.GNM(n, 2*n+int(seed%5), r)
		w := make([]float64, n)
		for i := range w {
			w[i] = r.UniformWeight(1, 10)
		}
		_, opt := seq.BruteForceVertexCover(g, w)
		in := Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}
		for _, mu := range []float64{0.05, 0.2} {
			res, err := alg.Run(in, Params{Mu: mu, Seed: seed}, nil)
			if err != nil {
				t.Fatalf("seed %d µ=%v: %v", seed, mu, err)
			}
			if !res.Valid {
				t.Fatalf("seed %d µ=%v: not a vertex cover", seed, mu)
			}
			if res.Weight > 2*opt+1e-9 {
				t.Errorf("seed %d µ=%v: weight %v > 2·OPT (OPT=%v)", seed, mu, res.Weight, opt)
			}
		}
	}
}
