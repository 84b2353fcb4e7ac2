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

// cliqueDigests pins the full result (clique, iterations, every metric) of
// each MaximalClique row below, keyed "case/µ": any drift in the driver's
// draws, groups, rounds or charging moves one.
var cliqueDigests = map[string]string{
	"complete/0.05": "d71aa5a93698b4ed6535d838f4b39349fc9099c6115e0c43f08dd094fc43fd69",
	"complete/0.25": "7aeadbcb458ecefc310d4d43b68febbbf7cd2082cbea3de5286426a9c24a1857",
	"cycle/0.05":    "e45501251b18c64c414802dd36e27ed3bb7c315abdef817b38088e84191ca763",
	"cycle/0.25":    "2967819587fd090ac21f314b6f9eba45462f1d45201c1b977cb73d2be2199b87",
	"empty/0.05":    "42670b8371b7812f1d95f380b7228be6426cf2918548281fa977b3f21142bd9a",
	"empty/0.25":    "689c498ea83889f3d4651c61137a32af6122a9b9ab937e3a2cc054a789399d7d",
	"medium/0.05":   "ae818312bcdf46123982e4a34f6cf08956517ad3c50abb4dc8535e5c6423337a",
	"medium/0.25":   "dbfb9e0413a2ac435c3cd78b3a7a16a04b5c651b156c80b067db54a464bf504e",
	"parallel/0.05": "459640a2779e5342980dd02e8bf551bbf6fe8a17586986459b21420add733b38",
	"parallel/0.25": "14dc78794fde919ec98840fd232a216d532df4a2a736227cddd153df40aac357",
	"path/0.05":     "502f5a01d498e1787225525daa84d21568d8168dd51c774c2137f5e90f82f8be",
	"path/0.25":     "c6178a68f53609989fc5690906d7ba8b94fc444a03a0447c5962df6897318d36",
	"planted/0.05":  "56f3c51c6e7d812e582cc8f49264e6e7b91976995872add5a000c7e518867869",
	"planted/0.25":  "a8ed43270c49180b4942be991aad3fedc91363ad93717686a635c43924d27ec9",
	"star/0.05":     "e7cb4d4a6325054b5e68a2ecf57b8491ca8632237aa621516a5d67fa017479b8",
	"star/0.25":     "7ec1838d6f08b82ea634ef76f5ae25a7111a678f34df878bfaf5291f2f4e308d",
}

// cliqueMus are the space exponents every pinned clique row runs at.
var cliqueMus = []float64{0.25, 0.05}

// checkCliqueDigest fails t unless res hashes to the digest pinned for key.
func checkCliqueDigest(t *testing.T, key string, res *CliqueResult) {
	t.Helper()
	if got := resultDigest(res); got != cliqueDigests[key] {
		t.Errorf("%s: digest %s, pinned %s (%d iterations)", key, got, cliqueDigests[key], res.Iterations)
	}
}

func TestMaximalCliqueStructured(t *testing.T) {
	// parallel is the path 1–0–2 with both edges doubled. deg_A counts
	// every copy, so 1 and 2 look adjacent to all of A: nothing is ever
	// heavy, and the final gather, which ships ids only, adds all three.
	// The result is not a clique; the row pins that ids-only gather.
	parallel := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {0, 2}, {0, 2}} {
		parallel.AddEdge(e[0], e[1], 1)
	}
	cases := map[string]*graph.Graph{
		"complete": graph.Complete(12),
		"star":     graph.Star(15),
		"path":     graph.Path(10),
		"empty":    graph.New(6),
		"cycle":    graph.Cycle(7),
		"parallel": parallel,
	}
	for name, g := range cases {
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
			checkCliqueDigest(t, key, res)
		}
	}
	// The complete graph's only maximal clique is everything.
	res, _ := MaximalClique(graph.Complete(12), Params{Mu: 0.25, Seed: 4})
	if len(res.Clique) != 12 {
		t.Fatalf("K12 clique size %d", len(res.Clique))
	}
}

func TestMaximalCliquePlanted(t *testing.T) {
	for _, mu := range cliqueMus {
		r := rng.New(61)
		g := graph.GNM(100, 300, r)
		planted := graph.PlantClique(g, 10, r)
		res, err := MaximalClique(g, Params{Mu: mu, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsMaximalClique(g, res.Clique) {
			t.Fatalf("µ=%v: not maximal", mu)
		}
		_ = planted // the found clique need not be the planted one, only maximal
		checkCliqueDigest(t, fmt.Sprintf("planted/%v", mu), res)
	}
}

func TestMaximalCliqueMedium(t *testing.T) {
	for _, mu := range cliqueMus {
		r := rng.New(62)
		g := graph.Density(200, 0.3, r)
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
		// The sampled batches, not only the final gather, are pinned.
		if res.Iterations < 2 {
			t.Fatalf("µ=%v: %d iterations, want a row with sampled batches", mu, res.Iterations)
		}
		checkCliqueDigest(t, fmt.Sprintf("medium/%v", mu), res)
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
