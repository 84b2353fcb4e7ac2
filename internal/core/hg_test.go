package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/setcover"
)

func harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

func TestHGSetCoverSmallExact(t *testing.T) {
	r := rng.New(70)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(10)
		m := 4 + r.Intn(12)
		inst := setcover.RandomSized(n, m, 5, 4, r)
		eps := 0.2
		res, err := HGSetCover(inst, Params{Mu: 0.3, Seed: uint64(trial)}, HGCoverOptions{Eps: eps})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !inst.IsCover(res.Cover) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		_, opt := seq.BruteForceSetCover(inst)
		bound := (1 + eps) * harmonic(inst.MaxSetSize()) * opt
		if res.Weight > bound+1e-9 {
			t.Fatalf("trial %d: weight %v > (1+eps)H_delta*OPT = %v", trial, res.Weight, bound)
		}
	}
}

func TestHGSetCoverMedium(t *testing.T) {
	// The m << n regime of Theorem 4.6.
	r := rng.New(71)
	inst := setcover.RandomSized(3000, 200, 12, 8, r)
	res, err := HGSetCover(inst, Params{Mu: 0.3, Seed: 3}, HGCoverOptions{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	// Compare against sequential greedy: the MR solution may not beat it,
	// but should be within (1+eps)^2 of it on average-quality instances.
	greedy := inst.Weight(seq.GreedySetCover(inst, 0))
	if res.Weight > 3*greedy {
		t.Fatalf("MR cover %v is wildly worse than greedy %v", res.Weight, greedy)
	}
	if res.Metrics.Rounds == 0 {
		t.Fatal("no rounds")
	}
}

func TestHGSetCoverVsFApprox(t *testing.T) {
	// On an instance with large f and small delta... the lnDelta algorithm
	// should not be catastrophically worse; both must be valid covers.
	r := rng.New(72)
	inst := setcover.RandomSized(500, 100, 6, 5, r)
	hg, err := HGSetCover(inst, Params{Mu: 0.3, Seed: 1}, HGCoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rlr, err := RLRSetCover(inst, Params{Mu: 0.3, Seed: 1}, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(hg.Cover) || !inst.IsCover(rlr.Cover) {
		t.Fatal("invalid cover")
	}
	// With small delta (H_delta ~ 2.5) and large f (~tens), hungry-greedy
	// should usually win on weight.
	if hg.Weight > 2*rlr.Weight {
		t.Fatalf("hungry-greedy %v should not be 2x worse than f-approx %v (f=%d, delta=%d)",
			hg.Weight, rlr.Weight, inst.MaxFrequency(), inst.MaxSetSize())
	}
}

func TestBMatchingSmallExact(t *testing.T) {
	r := rng.New(73)
	for _, bcap := range []int{1, 2, 3} {
		bf := func(int) int { return bcap }
		for trial := 0; trial < 15; trial++ {
			n := 5 + r.Intn(5)
			m := min(1+r.Intn(14), n*(n-1)/2)
			g := graph.GNM(n, m, r)
			g.AssignUniformWeights(r, 1, 10)
			eps := 0.15
			res, err := BMatching(g, Params{Mu: 0.3, Seed: uint64(trial)}, BMatchingOptions{B: bf, Eps: eps})
			if err != nil {
				t.Fatalf("b=%d trial %d: %v", bcap, trial, err)
			}
			if !graph.IsBMatching(g, res.Edges, bf) {
				t.Fatalf("b=%d trial %d: invalid b-matching", bcap, trial)
			}
			opt := seq.BruteForceBMatching(g, bf)
			ratio := 3 - 2/math.Max(2, float64(bcap)) + 2*eps
			if ratio*res.Weight < opt-1e-9 {
				t.Fatalf("b=%d trial %d: weight %v vs OPT %v breaks ratio %v",
					bcap, trial, res.Weight, opt, ratio)
			}
		}
	}
}

func TestBMatchingMedium(t *testing.T) {
	r := rng.New(74)
	g := graph.Density(200, 0.3, r)
	g.AssignUniformWeights(r, 1, 50)
	caps := make([]int, g.N)
	for v := range caps {
		caps[v] = 1 + r.Intn(4)
	}
	bf := func(v int) int { return caps[v] }
	res, err := BMatching(g, Params{Mu: 0.25, Seed: 8}, BMatchingOptions{B: bf, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsBMatching(g, res.Edges, bf) {
		t.Fatal("invalid b-matching")
	}
	// Sanity: with capacities >= 1 everywhere the solution should weigh at
	// least as much as a plain greedy matching divided by the ratio bound.
	greedy := graph.MatchingWeight(g, seq.GreedyMatching(g))
	if res.Weight < greedy/4 {
		t.Fatalf("b-matching weight %v suspiciously below matching %v", res.Weight, greedy)
	}
}

func TestVertexColouringSmall(t *testing.T) {
	r := rng.New(75)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(30)
		m := min(r.Intn(4*n+1), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		res, err := VertexColouring(g, Params{Mu: 0.2, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsProperVertexColouring(g, res.Colours) {
			t.Fatalf("trial %d: improper colouring", trial)
		}
	}
}

func TestEdgeColouringSmall(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(25)
		m := min(r.Intn(4*n+1), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		res, err := EdgeColouring(g, Params{Mu: 0.2, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsProperEdgeColouring(g, res.Colours) {
			t.Fatalf("trial %d: improper edge colouring", trial)
		}
	}
}

func TestEdgeColouringBound(t *testing.T) {
	// Theorems 6.4 and 6.6 over many seeds, for both variants of Algorithm
	// 5: (1+o(1))∆ colours in two rounds within the space cap. The second
	// bound is the mechanism itself — κ groups, each coloured with at most
	// ∆_i + 1 colours (greedily, or by Misra–Gries). Both densities keep
	// the output round's 3n or 3m words under machine 0's cap; c = 0.6 at
	// this n does not for edges, and counts one violation on every seed.
	const n, mu = 400, 0.2
	slack := 1 + math.Sqrt(6*math.Log(float64(n)))/math.Pow(float64(n), mu/2) + math.Pow(float64(n), -mu)
	variants := []struct {
		name   string
		colour func(*graph.Graph, Params) (*ColouringResult, error)
		proper func(*graph.Graph, []int) bool
	}{
		{"VertexColouring", VertexColouring, graph.IsProperVertexColouring},
		{"EdgeColouring", EdgeColouring, graph.IsProperEdgeColouring},
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			for _, c := range []float64{0.4, 0.5} {
				for seed := uint64(1); seed <= 20; seed++ {
					g := graph.Density(n, c, rng.New(78+seed))
					res, err := vr.colour(g, Params{Mu: mu, Seed: seed})
					if err != nil {
						t.Fatalf("c=%v seed %d: %v", c, seed, err)
					}
					if !vr.proper(g, res.Colours) {
						t.Fatalf("c=%v seed %d: improper", c, seed)
					}
					delta := float64(g.MaxDegree())
					if bound := slack*delta + float64(res.Groups); float64(res.NumColours) > bound {
						t.Errorf("c=%v seed %d: %d colours > bound %v (∆=%v, κ=%d)", c, seed, res.NumColours, bound, delta, res.Groups)
					}
					if bound := res.Groups * (res.MaxGroupDegree + 1); res.NumColours > bound {
						t.Errorf("c=%v seed %d: %d colours > κ(∆_i+1) = %d·%d", c, seed, res.NumColours, res.Groups, res.MaxGroupDegree+1)
					}
					if res.Metrics.Rounds != 2 || res.Metrics.Violations != 0 {
						t.Errorf("c=%v seed %d: %d rounds, %d violations, want 2 and 0", c, seed, res.Metrics.Rounds, res.Metrics.Violations)
					}
				}
			}
		})
	}
}

func TestColouringConstantRounds(t *testing.T) {
	// Algorithm 5 takes two rounds (route, then output) whatever the graph
	// size: at c = 0.3 in one group, at c = 0.5 in two or three.
	r := rng.New(79)
	for _, c := range []float64{0.3, 0.5} {
		for _, n := range []int{100, 400, 900} {
			g := graph.Density(n, c, r)
			res, err := VertexColouring(g, Params{Mu: 0.2, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			rese, err := EdgeColouring(g, Params{Mu: 0.2, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if c == 0.5 && res.Groups < 2 {
				t.Fatalf("c=%v n=%d: κ = %d, want several groups", c, n, res.Groups)
			}
			if res.Metrics.Rounds != 2 || rese.Metrics.Rounds != 2 {
				t.Fatalf("c=%v n=%d: %d vertex and %d edge rounds, want 2", c, n, res.Metrics.Rounds, rese.Metrics.Rounds)
			}
		}
	}
}

func TestColouringEmptyGraph(t *testing.T) {
	g := graph.New(5)
	res, err := VertexColouring(g, Params{Mu: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsProperVertexColouring(g, res.Colours) {
		t.Fatal("empty graph colouring")
	}
	rese, err := EdgeColouring(g, Params{Mu: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rese.Colours) != 0 {
		t.Fatal("edge colours on empty graph")
	}
}

func TestHGSetCoverPreprocess(t *testing.T) {
	// A wide weight spread: without preprocessing the L-ladder is long;
	// Remark 4.7 clamps it. The solution must stay a valid cover and cheap
	// sets must be auto-selected while absurdly expensive ones never appear.
	r := rng.New(83)
	inst := setcover.RandomSized(800, 120, 8, 4, r)
	// Make set 0 essentially free and set 1 absurdly expensive.
	inst.Weights[0] = 1e-9
	inst.Weights[1] = 1e12
	res, err := HGSetCover(inst, Params{Mu: 0.3, Seed: 9}, HGCoverOptions{Eps: 0.2, Preprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	foundCheap, foundExpensive := false, false
	for _, i := range res.Cover {
		if i == 0 {
			foundCheap = true
		}
		if i == 1 {
			foundExpensive = true
		}
	}
	if !foundCheap {
		t.Fatal("free set not auto-selected by preprocessing")
	}
	if foundExpensive {
		t.Fatal("absurdly expensive set selected despite Remark 4.7 clamp")
	}
}

func TestHGSetCoverPreprocessMatchesPlainQuality(t *testing.T) {
	r := rng.New(84)
	inst := setcover.RandomSized(600, 100, 8, 6, r)
	plain, err := HGSetCover(inst, Params{Mu: 0.3, Seed: 2}, HGCoverOptions{Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := HGSetCover(inst, Params{Mu: 0.3, Seed: 2}, HGCoverOptions{Eps: 0.2, Preprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(pre.Cover) {
		t.Fatal("preprocessed cover invalid")
	}
	// Preprocessing costs at most ~ε·OPT extra; on benign instances the two
	// should be close.
	if pre.Weight > 1.5*plain.Weight+1e-9 {
		t.Fatalf("preprocessed weight %v far above plain %v", pre.Weight, plain.Weight)
	}
}
