package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/setcover"
)

func TestRLRMatchingEmptyGraph(t *testing.T) {
	g := graph.New(5)
	res, err := RLRMatching(g, Params{Mu: 0.2, Seed: 1}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 0 {
		t.Fatal("matching on empty graph")
	}
}

func TestRLRMatchingSmallExact(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 25; trial++ {
		n := 5 + r.Intn(5)
		m := min(1+r.Intn(15), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		g.AssignUniformWeights(r, 1, 10)
		res, err := RLRMatching(g, Params{Mu: 0.3, Seed: uint64(trial)}, MatchingOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsMatching(g, res.Edges) {
			t.Fatalf("trial %d: invalid matching", trial)
		}
		opt := seq.BruteForceMatching(g)
		if 2*res.Weight < opt-1e-9 {
			t.Fatalf("trial %d: weight %v < OPT/2 (OPT=%v)", trial, res.Weight, opt)
		}
	}
}

func TestRLRMatchingBound(t *testing.T) {
	// Theorem 5.5 over many seeds: the unwound stack weighs at least half
	// the optimum. Brute force caps the instances at 26 edges; the tiny η
	// rows make even those draw samples instead of shipping every edge.
	for _, m := range []int{12, 24} {
		for _, etaWords := range []int{0, 2} {
			for seed := uint64(1); seed <= 20; seed++ {
				r := rng.New(500 + seed)
				g := graph.GNM(10, m, r)
				g.AssignUniformWeights(r, 1, 10)
				res, err := RLRMatching(g, Params{Mu: 0.3, Seed: seed}, MatchingOptions{Eta: etaWords})
				if err != nil {
					t.Fatalf("m=%d eta=%d seed %d: %v", m, etaWords, seed, err)
				}
				if !graph.IsMatching(g, res.Edges) {
					t.Fatalf("m=%d eta=%d seed %d: not a matching", m, etaWords, seed)
				}
				if opt := seq.BruteForceMatching(g); 2*res.Weight < opt-1e-9 {
					t.Errorf("m=%d eta=%d seed %d: weight %v < OPT/2 (OPT=%v)", m, etaWords, seed, res.Weight, opt)
				}
			}
		}
	}
	// Theorem 5.6 over many seeds: O(c/µ) iterations inside the space cap.
	// Each iteration pushes at most one edge per vertex, and the alive count
	// only falls, to zero.
	const n = 400
	for _, c := range []float64{0.5, 0.6} {
		for _, mu := range []float64{0.1, 0.2} {
			for seed := uint64(1); seed <= 20; seed++ {
				g := graph.Density(n, c, rng.New(90+seed))
				g.AssignUniformWeights(rng.New(190+seed), 1, 100)
				res, err := RLRMatching(g, Params{Mu: mu, Seed: seed}, MatchingOptions{})
				if err != nil {
					t.Fatalf("c=%v µ=%v seed %d: %v", c, mu, seed, err)
				}
				if !graph.IsMatching(g, res.Edges) {
					t.Fatalf("c=%v µ=%v seed %d: not a matching", c, mu, seed)
				}
				if res.Metrics.Violations != 0 {
					t.Errorf("c=%v µ=%v seed %d: %d space violations (max space %d)", c, mu, seed, res.Metrics.Violations, res.Metrics.MaxSpace)
				}
				if bound := int(math.Ceil(c/mu)) + 2; res.Iterations > bound {
					t.Errorf("c=%v µ=%v seed %d: %d iterations > ⌈c/µ⌉+2 = %d", c, mu, seed, res.Iterations, bound)
				}
				if res.StackSize > n*res.Iterations {
					t.Errorf("c=%v µ=%v seed %d: stack %d > n·iterations = %d", c, mu, seed, res.StackSize, n*res.Iterations)
				}
				if len(res.History) != res.Iterations || res.History[len(res.History)-1] != 0 {
					t.Errorf("c=%v µ=%v seed %d: history %v over %d iterations does not end at 0", c, mu, seed, res.History, res.Iterations)
				}
				before := int64(g.M())
				for i, after := range res.History {
					if after > before {
						t.Errorf("c=%v µ=%v seed %d: alive count rose %d → %d in iteration %d", c, mu, seed, before, after, i+1)
					}
					before = after
				}
			}
		}
	}
}

func TestRLRMatchingMediumVsSequential(t *testing.T) {
	r := rng.New(6)
	g := graph.Density(300, 0.25, r)
	g.AssignUniformWeights(r, 1, 100)
	res, err := RLRMatching(g, Params{Mu: 0.15, Seed: 99}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, res.Edges) {
		t.Fatal("invalid matching")
	}
	// The sequential local ratio matching is a 2-approximation too; the two
	// should be within a factor 2 of each other (both >= OPT/2, <= OPT).
	sw := graph.MatchingWeight(g, seq.LocalRatioMatching(g))
	if res.Weight < sw/2-1e-9 || sw < res.Weight/2-1e-9 {
		t.Fatalf("MR weight %v vs sequential %v outside mutual factor 2", res.Weight, sw)
	}
	if res.Metrics.Rounds == 0 || res.Metrics.WordsSent == 0 {
		t.Fatal("metrics not recorded")
	}
	if res.Metrics.Violations != 0 {
		t.Fatalf("space violations: %d (max space %d)", res.Metrics.Violations, res.Metrics.MaxSpace)
	}
}

func TestRLRMatchingLinearSpaceVariant(t *testing.T) {
	// Appendix C: η = Θ(n). More iterations, but still a valid
	// 2-approximation.
	r := rng.New(8)
	g := graph.Density(150, 0.3, r)
	g.AssignUniformWeights(r, 1, 10)
	res, err := RLRMatching(g, Params{Mu: 0, Seed: 3}, MatchingOptions{Eta: g.N})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, res.Edges) {
		t.Fatal("invalid matching")
	}
	resBig, err := RLRMatching(g, Params{Mu: 0.4, Seed: 3}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= resBig.Iterations {
		t.Fatalf("linear-space variant should need more iterations: %d vs %d",
			res.Iterations, resBig.Iterations)
	}
}

func TestRLRSetCoverSmallExact(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(8)
		m := 4 + r.Intn(20)
		f := min(1+r.Intn(3), n)
		inst := setcover.RandomFrequency(n, m, f, 5, r)
		res, err := RLRSetCover(inst, Params{Mu: 0.3, Seed: uint64(trial)}, CoverOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !inst.IsCover(res.Cover) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		_, opt := seq.BruteForceSetCover(inst)
		ff := float64(inst.MaxFrequency())
		if res.Weight > ff*opt+1e-9 {
			t.Fatalf("trial %d: weight %v > f*OPT = %v*%v", trial, res.Weight, ff, opt)
		}
		if res.LowerBound > opt+1e-9 {
			t.Fatalf("trial %d: lower bound %v > OPT %v", trial, res.LowerBound, opt)
		}
	}
}

func TestRLRSetCoverMedium(t *testing.T) {
	r := rng.New(10)
	inst := setcover.RandomFrequency(60, 4000, 4, 10, r)
	res, err := RLRSetCover(inst, Params{Mu: 0.2, Seed: 5}, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	f := float64(inst.MaxFrequency())
	if res.Weight > f*res.LowerBound+1e-9 {
		t.Fatalf("weight %v > f * lower bound %v", res.Weight, f*res.LowerBound)
	}
	if res.Metrics.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestRLRVertexCoverFastPath(t *testing.T) {
	r := rng.New(11)
	g := graph.Density(120, 0.3, r)
	w := make([]float64, g.N)
	for i := range w {
		w[i] = r.UniformWeight(1, 10)
	}
	inst := setcover.FromVertexCover(g, w)
	resVC, err := RLRSetCover(inst, Params{Mu: 0.2, Seed: 6}, CoverOptions{VertexCoverMode: true})
	if err != nil {
		t.Fatal(err)
	}
	coverSet := map[int]bool{}
	for _, v := range resVC.Cover {
		coverSet[v] = true
	}
	if !graph.IsVertexCover(g, coverSet) {
		t.Fatal("not a vertex cover")
	}
	if resVC.Weight > 2*resVC.LowerBound+1e-9 {
		t.Fatalf("weight %v > 2*LB %v", resVC.Weight, resVC.LowerBound)
	}
	// The fast path avoids the broadcast tree; with the same seed and
	// instance it should use at most as many rounds per iteration as the
	// general path.
	resGen, err := RLRSetCover(inst, Params{Mu: 0.2, Seed: 6}, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perIterVC := float64(resVC.Metrics.Rounds) / float64(resVC.Iterations)
	perIterGen := float64(resGen.Metrics.Rounds) / float64(resGen.Iterations)
	if perIterVC > perIterGen+1e-9 {
		t.Fatalf("fast path uses more rounds/iter (%v) than general (%v)", perIterVC, perIterGen)
	}
}

func TestRLRSetCoverSingleSetInstance(t *testing.T) {
	inst := &setcover.Instance{
		NumElements: 3,
		Sets:        [][]int{{0, 1, 2}},
		Weights:     []float64{2},
	}
	res, err := RLRSetCover(inst, Params{Mu: 0.2, Seed: 1}, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 || res.Cover[0] != 0 {
		t.Fatalf("cover = %v", res.Cover)
	}
}

func TestRLRSetCoverUncoverableElement(t *testing.T) {
	inst := &setcover.Instance{
		NumElements: 2,
		Sets:        [][]int{{0}},
		Weights:     []float64{1},
	}
	if _, err := RLRSetCover(inst, Params{Mu: 0.2, Seed: 1}, CoverOptions{}); err == nil {
		t.Fatal("expected error for uncoverable element")
	}
}
