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

// TestVertexCoverRatioBound checks Theorem 2.4's f-approximation through the
// registry against the exact optimum, over 24 seeds per row at µ = 0.05 and
// 0.2: the "vertexcover" entry (f = 2) on vertex-weighted graphs with n ≤ 16
// against seq.BruteForceVertexCover, and "setcover-f" on
// setcover.RandomFrequency instances with at most 20 sets against
// seq.BruteForceSetCover. Every run must return a valid cover of weight at
// most f·OPT.
func TestVertexCoverRatioBound(t *testing.T) {
	rows := []struct {
		alg string
		// instance returns seed's input, its maximum frequency f and the
		// optimum cover weight.
		instance func(seed uint64) (in Input, f int, opt float64)
	}{
		{"vertexcover", func(seed uint64) (Input, int, float64) {
			r := rng.New(700 + seed)
			n := 10 + int(seed%7)
			g := graph.GNM(n, 2*n+int(seed%5), r)
			w := make([]float64, n)
			for i := range w {
				w[i] = r.UniformWeight(1, 10)
			}
			_, opt := seq.BruteForceVertexCover(g, w)
			return Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}, 2, opt
		}},
		{"setcover-f", func(seed uint64) (Input, int, float64) {
			r := rng.New(900 + seed)
			inst := setcover.RandomFrequency(12+int(seed%9), 40+10*int(seed%5), 2+int(seed%4), 10, r)
			_, opt := seq.BruteForceSetCover(inst)
			return Input{Cover: inst}, inst.MaxFrequency(), opt
		}},
	}
	for _, row := range rows {
		alg, ok := LookupAlgorithm(row.alg)
		if !ok {
			t.Fatalf("%s is not registered", row.alg)
		}
		most := 0
		for seed := uint64(1); seed <= 24; seed++ {
			in, f, opt := row.instance(seed)
			for _, mu := range []float64{0.05, 0.2} {
				res, err := alg.Run(in, Params{Mu: mu, Seed: seed}, nil)
				if err != nil {
					t.Fatalf("%s seed %d µ=%v: %v", row.alg, seed, mu, err)
				}
				if !res.Valid {
					t.Fatalf("%s seed %d µ=%v: not a cover", row.alg, seed, mu)
				}
				if res.Weight > float64(f)*opt+1e-9 {
					t.Errorf("%s seed %d µ=%v: weight %v > %d·OPT (OPT=%v)", row.alg, seed, mu, res.Weight, f, opt)
				}
				most = max(most, res.Iterations)
			}
		}
		t.Logf("%s: at most %d iterations over 24 seeds", row.alg, most)
	}
}
