package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/seq"
)

func TestFilteringWeightedMatchingSmallExact(t *testing.T) {
	// At µ = 0, η = max(n, 8). Weights in [1, 2) put every edge in one
	// class, so trials with more than η edges filter that class by sampling
	// (a one-class run ends in the iteration after it samples) and must
	// still return a maximal matching.
	rows := []struct {
		mu       float64
		whi      float64
		oneClass bool
	}{{0.3, 50, false}, {0, 50, false}, {0, 2, true}}
	for _, row := range rows {
		r := rng.New(80)
		sampled := false
		for trial := 0; trial < 25; trial++ {
			n := 5 + r.Intn(5)
			m := min(1+r.Intn(15), n*(n-1)/2)
			g := graph.GNM(n, m, r)
			g.AssignUniformWeights(r, 1, row.whi)
			res, err := FilteringWeightedMatching(g, Params{Mu: row.mu, Seed: uint64(trial)})
			if err != nil {
				t.Fatalf("%+v trial %d: %v", row, trial, err)
			}
			if !graph.IsMatching(g, res.Edges) {
				t.Fatalf("%+v trial %d: invalid matching", row, trial)
			}
			if row.oneClass && !graph.IsMaximalMatching(g, res.Edges) {
				t.Fatalf("%+v trial %d: one weight class must give a maximal matching", row, trial)
			}
			opt := seq.BruteForceMatching(g)
			if 8*res.Weight < opt-1e-9 {
				t.Fatalf("%+v trial %d: weight %v < OPT/8 (OPT=%v)", row, trial, res.Weight, opt)
			}
			sampled = sampled || res.Iterations >= 2
		}
		if row.oneClass && !sampled {
			t.Fatalf("%+v: no trial took two iterations, so none sampled", row)
		}
	}
}

func TestFilteringWeightedMatchingRejectsNonPositive(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 0)
	if _, err := FilteringWeightedMatching(g, Params{Mu: 0.2, Seed: 1}); err == nil {
		t.Fatal("expected error for zero weight")
	}
}

func TestRLRBeatsLayeredFiltering(t *testing.T) {
	// The Figure 1 "who wins" shape: the paper's 2-approximation should
	// usually beat the prior 8-approximation on weight. Demand it on
	// average over several graphs (any single instance can tie).
	r := rng.New(81)
	winsRLR, total := 0.0, 0.0
	for trial := 0; trial < 10; trial++ {
		g := graph.Density(250, 0.3, r)
		g.AssignUniformWeights(r, 1, 1000) // wide spread stresses layering
		rlr, err := RLRMatching(g, Params{Mu: 0.25, Seed: uint64(trial)}, MatchingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := FilteringWeightedMatching(g, Params{Mu: 0.25, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		winsRLR += rlr.Weight / lay.Weight
		total++
	}
	if avg := winsRLR / total; avg < 1.0 {
		t.Fatalf("RLR/layered average weight ratio %v < 1: the 2-approx should win", avg)
	}
}

func TestFilteringWeightedMatchingUniformWeights(t *testing.T) {
	// With all weights in one class the algorithm degenerates to plain
	// filtering and the result must be a maximal matching.
	r := rng.New(82)
	g := graph.GNM(60, 200, r)
	g.AssignUnitWeights()
	res, err := FilteringWeightedMatching(g, Params{Mu: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalMatching(g, res.Edges) {
		t.Fatal("uniform-weight layered filtering must give a maximal matching")
	}
}
