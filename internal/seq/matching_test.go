package seq

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func randWeighted(n, m int, r *rng.RNG) *graph.Graph {
	g := graph.GNM(n, m, r)
	g.AssignUniformWeights(r, 1, 10)
	return g
}

func TestLocalRatioMatchingTiny(t *testing.T) {
	// Path with weights 1, 10, 1: OPT takes the middle edge (10); any
	// 2-approx must weigh at least 5.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 1)
	m := LocalRatioMatching(g)
	if !graph.IsMatching(g, m) {
		t.Fatal("invalid matching")
	}
	if w := graph.MatchingWeight(g, m); w < 5 {
		t.Fatalf("weight %v below half of OPT 10", w)
	}
}

func TestLocalRatioMatchingTwoApprox(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(6)
		maxM := n * (n - 1) / 2
		m := 1 + r.Intn(min(maxM, 20))
		g := randWeighted(n, m, r)
		sel := LocalRatioMatching(g)
		if !graph.IsMatching(g, sel) {
			t.Fatalf("trial %d: invalid matching", trial)
		}
		opt := BruteForceMatching(g)
		if w := graph.MatchingWeight(g, sel); 2*w < opt-1e-9 {
			t.Fatalf("trial %d: weight %v < OPT/2 = %v/2", trial, w, opt)
		}
	}
}

func TestGreedyMatchingTwoApprox(t *testing.T) {
	r := rng.New(22)
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(6)
		m := min(1+r.Intn(15), n*(n-1)/2)
		g := randWeighted(n, m, r)
		sel := GreedyMatching(g)
		if !graph.IsMatching(g, sel) {
			t.Fatalf("trial %d: invalid", trial)
		}
		opt := BruteForceMatching(g)
		if w := graph.MatchingWeight(g, sel); 2*w < opt-1e-9 {
			t.Fatalf("trial %d: %v < OPT/2", trial, w)
		}
	}
}

func TestGreedyMatchingIsMaximal(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 20; trial++ {
		g := graph.GNM(10, 20, r)
		if !graph.IsMaximalMatching(g, GreedyMatching(g)) {
			t.Fatalf("trial %d: greedy matching not maximal", trial)
		}
	}
}

func TestMaximalMatching(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 20; trial++ {
		g := graph.GNM(12, 25, r)
		ids := make([]int, g.M())
		for i := range ids {
			ids[i] = i
		}
		sel := MaximalMatching(g, ids, make([]bool, g.N), nil)
		if !graph.IsMaximalMatching(g, sel) {
			t.Fatalf("trial %d: not maximal", trial)
		}
	}
}

func TestMatchingLocalRatioState(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5) // edge 0
	g.AddEdge(1, 2, 3) // edge 1
	lr := NewMatchingLocalRatio(g)
	if !lr.Alive(0) || !lr.Alive(1) {
		t.Fatal("all edges alive initially")
	}
	psi, ok := lr.Push(0)
	if !ok || psi != 5 {
		t.Fatalf("push(0) = %v, %v", psi, ok)
	}
	if lr.Phi(0) != 5 || lr.Phi(1) != 5 {
		t.Fatal("phi not updated at both endpoints")
	}
	// Edge 1 now has reduced weight 3 - 5 = -2: dead.
	if lr.Alive(1) {
		t.Fatal("edge 1 should be dead")
	}
	if lr.Reduced(1) != -2 {
		t.Fatalf("reduced(1) = %v", lr.Reduced(1))
	}
	// Pushing a dead edge is a no-op.
	if _, ok := lr.Push(1); ok {
		t.Fatal("pushed dead edge")
	}
	// Re-pushing stacked edge is a no-op.
	if _, ok := lr.Push(0); ok {
		t.Fatal("re-pushed stacked edge")
	}
	m := lr.Unwind()
	if len(m) != 1 || m[0] != 0 {
		t.Fatalf("unwind = %v", m)
	}
}

func TestUnwindPrefersLaterPushes(t *testing.T) {
	// Stack unwinding is LIFO: the edge pushed last wins conflicts. Build a
	// triangle and push in a known order.
	g := graph.New(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 8)
	g.AddEdge(0, 2, 7)
	lr := NewMatchingLocalRatio(g)
	lr.Push(0) // psi 10; edges 1,2 get reduced by 10 → dead
	m := lr.Unwind()
	if len(m) != 1 || m[0] != 0 {
		t.Fatalf("unwind = %v", m)
	}
}

func TestBruteForceMatchingKnown(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 4)
	g.AddEdge(2, 3, 3)
	if opt := BruteForceMatching(g); math.Abs(opt-6) > 1e-12 {
		t.Fatalf("OPT = %v, want 6 (edges 0 and 2)", opt)
	}
}

func TestBMatchingDegeneratesToMatching(t *testing.T) {
	r := rng.New(25)
	b1 := func(int) int { return 1 }
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(5)
		m := min(1+r.Intn(12), n*(n-1)/2)
		g := randWeighted(n, m, r)
		sel := LocalRatioBMatching(g, b1, 0)
		if !graph.IsMatching(g, sel) {
			t.Fatalf("trial %d: b=1 result is not a matching", trial)
		}
		opt := BruteForceMatching(g)
		if w := graph.MatchingWeight(g, sel); 2*w < opt-1e-9 {
			t.Fatalf("trial %d: b=1 weight %v < OPT/2 %v", trial, w, opt/2)
		}
	}
}

func TestBMatchingApproximation(t *testing.T) {
	r := rng.New(26)
	for _, b := range []int{2, 3} {
		bf := func(int) int { return b }
		for trial := 0; trial < 30; trial++ {
			n := 4 + r.Intn(5)
			m := min(1+r.Intn(14), n*(n-1)/2)
			g := randWeighted(n, m, r)
			eps := 0.1
			sel := LocalRatioBMatching(g, bf, eps)
			if !graph.IsBMatching(g, sel, bf) {
				t.Fatalf("b=%d trial %d: invalid b-matching", b, trial)
			}
			opt := BruteForceBMatching(g, bf)
			ratio := 3 - 2/float64(b) + 2*eps
			if w := graph.MatchingWeight(g, sel); ratio*w < opt-1e-9 {
				t.Fatalf("b=%d trial %d: weight %v, OPT %v, ratio bound %v violated",
					b, trial, w, opt, ratio)
			}
		}
	}
}

func TestBMatchingHeterogeneousCapacities(t *testing.T) {
	r := rng.New(27)
	for trial := 0; trial < 20; trial++ {
		g := randWeighted(6, 10, r)
		caps := make([]int, g.N)
		for v := range caps {
			caps[v] = 1 + r.Intn(3)
		}
		bf := func(v int) int { return caps[v] }
		sel := LocalRatioBMatching(g, bf, 0.2)
		if !graph.IsBMatching(g, sel, bf) {
			t.Fatalf("trial %d: invalid heterogeneous b-matching", trial)
		}
	}
}

func TestBMatchingStarWithCapacity(t *testing.T) {
	// Star with b(centre)=2: the two heaviest spokes should be selectable.
	g := graph.New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(0, 2, 4)
	g.AddEdge(0, 3, 1)
	caps := []int{2, 1, 1, 1}
	bf := func(v int) int { return caps[v] }
	sel := LocalRatioBMatching(g, bf, 0.05)
	if !graph.IsBMatching(g, sel, bf) {
		t.Fatal("invalid")
	}
	opt := BruteForceBMatching(g, bf) // 9
	if math.Abs(opt-9) > 1e-12 {
		t.Fatalf("brute OPT = %v, want 9", opt)
	}
	w := graph.MatchingWeight(g, sel)
	if (3-2.0/2+0.1)*w < opt-1e-9 {
		t.Fatalf("weight %v too small vs OPT %v", w, opt)
	}
}

func TestBMatchingNegativeEpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBMatchingLocalRatio(graph.Path(3), func(int) int { return 1 }, -0.1)
}
