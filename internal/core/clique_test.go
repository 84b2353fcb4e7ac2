package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMaximalCliqueSmall(t *testing.T) {
	r := rng.New(60)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(15)
		m := min(r.Intn(3*n+1), n*(n-1)/2)
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

// cliqueMus are the space exponents the clique tests and the clique rows
// of TestPinnedResults run at.
var cliqueMus = []float64{0.25, 0.05}

// cliqueGraphs builds TestMaximalCliqueStructured's cases. parallel is the
// path 1–0–2 with both edges doubled: deg_A counts every copy, so nothing is
// ever heavy and the ids-only final gather adds all three, not a clique.
func cliqueGraphs() map[string]*graph.Graph {
	parallel := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {0, 2}, {0, 2}} {
		parallel.AddEdge(e[0], e[1], 1)
	}
	return map[string]*graph.Graph{
		"complete": graph.Complete(12),
		"star":     graph.Star(15),
		"path":     graph.Path(10),
		"empty":    graph.New(6),
		"cycle":    graph.Cycle(7),
		"parallel": parallel,
	}
}

// plantedCliqueGraph is G(100, 300) with a 10-clique planted in it.
func plantedCliqueGraph() *graph.Graph {
	r := rng.New(61)
	g := graph.GNM(100, 300, r)
	graph.PlantClique(g, 10, r)
	return g
}

func mediumCliqueGraph() *graph.Graph { return graph.Density(200, 0.3, rng.New(62)) }

func TestMaximalCliqueStructured(t *testing.T) {
	for name, g := range cliqueGraphs() {
		for _, mu := range cliqueMus {
			key := fmt.Sprintf("%s/%v", name, mu)
			res, err := MaximalClique(g, Params{Mu: mu, Seed: 4})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if g.N > 0 && len(res.Clique) == 0 {
				t.Fatalf("%s: empty clique", key)
			}
			if name == "parallel" {
				if !slices.Equal(res.Clique, []int{0, 1, 2}) {
					t.Fatalf("%s: clique %v, want the ids-only gather's [0 1 2]", key, res.Clique)
				}
			} else if !graph.IsMaximalClique(g, res.Clique) {
				t.Fatalf("%s: not maximal: %v", key, res.Clique)
			}
		}
	}
}

func TestMaximalCliquePlanted(t *testing.T) {
	g := plantedCliqueGraph()
	for _, mu := range cliqueMus {
		res, err := MaximalClique(g, Params{Mu: mu, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		// The found clique need not be the planted one, only maximal.
		if !graph.IsMaximalClique(g, res.Clique) {
			t.Fatalf("µ=%v: not maximal", mu)
		}
	}
}

func TestMaximalCliqueMedium(t *testing.T) {
	g := mediumCliqueGraph()
	for _, mu := range cliqueMus {
		res, err := MaximalClique(g, Params{Mu: mu, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMaximalClique(g, res.Clique) {
			t.Fatalf("µ=%v: not maximal", mu)
		}
		if res.Metrics.Rounds == 0 {
			t.Fatalf("µ=%v: no rounds recorded", mu)
		}
	}
}

func TestLubyMISSmall(t *testing.T) {
	r := rng.New(63)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(20)
		m := min(r.Intn(3*n), n*(n-1)/2)
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
			m := min(r.Intn(3*n+1), n*(n-1)/2)
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
