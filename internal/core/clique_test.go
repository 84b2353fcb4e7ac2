package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMaximalCliqueSmall(t *testing.T) {
	r := rng.New(60)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(15)
		m := r.Intn(3*n + 1)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		res, err := MaximalClique(g, Params{Mu: 0.3, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Clique) == 0 && n > 0 {
			t.Fatalf("trial %d: empty clique on nonempty graph", trial)
		}
		if !graph.IsMaximalClique(g, res.Clique) {
			t.Fatalf("trial %d: not a maximal clique: %v", trial, res.Clique)
		}
	}
}

func TestMaximalCliqueStructured(t *testing.T) {
	cases := map[string]*graph.Graph{
		"complete": graph.Complete(12),
		"star":     graph.Star(15),
		"path":     graph.Path(10),
		"empty":    graph.New(6),
		"cycle":    graph.Cycle(7),
	}
	for name, g := range cases {
		res, err := MaximalClique(g, Params{Mu: 0.25, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N > 0 && len(res.Clique) == 0 {
			t.Fatalf("%s: empty clique", name)
		}
		if !graph.IsMaximalClique(g, res.Clique) {
			t.Fatalf("%s: not maximal: %v", name, res.Clique)
		}
	}
	// The complete graph's only maximal clique is everything.
	res, _ := MaximalClique(graph.Complete(12), Params{Mu: 0.25, Seed: 4})
	if len(res.Clique) != 12 {
		t.Fatalf("K12 clique size %d", len(res.Clique))
	}
}

func TestMaximalCliquePlanted(t *testing.T) {
	r := rng.New(61)
	g := graph.GNM(100, 300, r)
	planted := graph.PlantClique(g, 10, r)
	res, err := MaximalClique(g, Params{Mu: 0.25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalClique(g, res.Clique) {
		t.Fatal("not maximal")
	}
	_ = planted // the found clique need not be the planted one, only maximal
}

func TestMaximalCliqueMedium(t *testing.T) {
	r := rng.New(62)
	g := graph.Density(200, 0.3, r)
	res, err := MaximalClique(g, Params{Mu: 0.25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalClique(g, res.Clique) {
		t.Fatal("not maximal")
	}
	if res.Metrics.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestLubyMISSmall(t *testing.T) {
	r := rng.New(63)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(20)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		res, err := LubyMIS(g, Params{Mu: 0.3, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Set) {
			t.Fatalf("trial %d: not an MIS", trial)
		}
	}
}

func TestLubyMISMedium(t *testing.T) {
	r := rng.New(64)
	g := graph.Density(300, 0.3, r)
	res, err := LubyMIS(g, Params{Mu: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalIndependentSet(g, res.Set) {
		t.Fatal("not an MIS")
	}
}

func TestFilteringMatchingSmall(t *testing.T) {
	// At µ = 0, η = max(n, 8) and up to 3n edges, so some trials start
	// above η and filter by sampling before the final iteration.
	for _, mu := range []float64{0.3, 0} {
		r := rng.New(65)
		sampled := false
		for trial := 0; trial < 20; trial++ {
			n := 5 + r.Intn(15)
			m := r.Intn(3*n + 1)
			if max := n * (n - 1) / 2; m > max {
				m = max
			}
			g := graph.GNM(n, m, r)
			res, err := FilteringMatching(g, Params{Mu: mu, Seed: uint64(trial)})
			if err != nil {
				t.Fatalf("mu=%v trial %d: %v", mu, trial, err)
			}
			if !graph.IsMaximalMatching(g, res.Edges) {
				t.Fatalf("mu=%v trial %d: not a maximal matching", mu, trial)
			}
			if !graph.IsVertexCover(g, res.VertexCover) {
				t.Fatalf("mu=%v trial %d: matched vertices are not a vertex cover", mu, trial)
			}
			if len(res.VertexCover) != 2*len(res.Edges) {
				t.Fatalf("mu=%v trial %d: cover size %d != 2*matching %d", mu, trial, len(res.VertexCover), len(res.Edges))
			}
			sampled = sampled || res.Iterations >= 2
		}
		if mu == 0 && !sampled {
			t.Fatal("mu=0: no trial took two iterations, so none sampled")
		}
	}
}

func TestFilteringMatchingMedium(t *testing.T) {
	r := rng.New(66)
	g := graph.Density(400, 0.3, r)
	res, err := FilteringMatching(g, Params{Mu: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalMatching(g, res.Edges) {
		t.Fatal("not maximal")
	}
	if res.Metrics.Violations != 0 {
		t.Fatalf("space violations: %d", res.Metrics.Violations)
	}
}
