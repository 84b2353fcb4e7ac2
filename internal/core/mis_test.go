package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMISSmallGraphs(t *testing.T) { testMISSmallGraphs(t, MIS, 50) }

func TestMISFastSmallGraphs(t *testing.T) { testMISSmallGraphs(t, MISFast, 51) }

// testMISSmallGraphs runs alg on 20 small random graphs drawn from seed.
func testMISSmallGraphs(t *testing.T, alg func(*graph.Graph, Params) (*MISResult, error), seed uint64) {
	r := rng.New(seed)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(20)
		g := graph.GNM(n, min(r.Intn(3*n), n*(n-1)/2), r)
		res, err := alg(g, Params{Mu: 0.3, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Set) {
			t.Fatalf("trial %d: not an MIS", trial)
		}
	}
}

func TestMISStructuredGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"star":     graph.Star(30),
		"path":     graph.Path(25),
		"cycle":    graph.Cycle(24),
		"complete": graph.Complete(15),
		"empty":    graph.New(10),
		"grid":     graph.Grid(5, 6),
	}
	for name, g := range cases {
		for _, algo := range []struct {
			name string
			f    func(*graph.Graph, Params) (*MISResult, error)
		}{{"MIS", MIS}, {"MISFast", MISFast}} {
			res, err := algo.f(g, Params{Mu: 0.25, Seed: 7})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo.name, name, err)
			}
			if !graph.IsMaximalIndependentSet(g, res.Set) {
				t.Fatalf("%s/%s: not an MIS", algo.name, name)
			}
		}
	}
}

func TestMISStarPicksLeaves(t *testing.T) {
	// In a star, either the centre alone or all leaves form the MIS; both
	// are valid, but the set must have size 1 or n-1.
	g := graph.Star(20)
	res, err := MISFast(g, Params{Mu: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 1 && len(res.Set) != 19 {
		t.Fatalf("star MIS size %d", len(res.Set))
	}
}

func TestMISMediumDensity(t *testing.T) {
	r := rng.New(52)
	g := graph.Density(400, 0.25, r)
	res, err := MISFast(g, Params{Mu: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalIndependentSet(g, res.Set) {
		t.Fatal("not an MIS")
	}
	if res.Metrics.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if res.Metrics.Violations != 0 {
		t.Fatalf("space violations: %d (max space %d)", res.Metrics.Violations, res.Metrics.MaxSpace)
	}
}

func TestMISPowerLaw(t *testing.T) {
	g := graph.PreferentialAttachment(500, 4, rng.New(54))
	res, err := MISFast(g, Params{Mu: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMaximalIndependentSet(g, res.Set) {
		t.Fatal("not an MIS on power-law graph")
	}
}

// TestMISSampleIsTheInbox checks, on every sampling pass of both hungry-
// greedy MIS drivers and of the clique's complement view, the two facts the
// sampling round rests on: each candidate the central machine reads from its
// inbox carries exactly its vertex's alive neighbours in CSR order (in the
// complement view its alive non-neighbours, ascending and without v), and
// every alive vertex's dI is its alive-neighbour count, which is what sizes
// the round's columns.
func TestMISSampleIsTheInbox(t *testing.T) {
	passes, candidates := 0, 0
	sampled = func(s *misState) {
		passes++
		var want []int64
		alive := func(v int) []int64 {
			want = want[:0]
			for _, u := range s.g.Neighbors(v) {
				if s.aliveVertex(int(u)) {
					want = append(want, int64(u))
				}
			}
			return want
		}
		adjacent := make([]bool, s.g.N)
		nonAdjacent := func(v int) []int64 {
			for _, u := range s.g.Neighbors(v) {
				adjacent[u] = true
			}
			want = want[:0]
			for u := range s.g.N {
				if u != v && !adjacent[u] && s.aliveVertex(u) {
					want = append(want, int64(u))
				}
			}
			clear(adjacent)
			return want
		}
		for _, cand := range s.sample {
			candidates++
			if !s.aliveVertex(cand.v) {
				t.Fatalf("pass %d: sampled vertex %d is not alive", passes, cand.v)
			}
			listed := alive
			if s.complement {
				listed = nonAdjacent
			}
			if got := listed(cand.v); !slices.Equal(cand.aliveNbrs, got) {
				t.Fatalf("pass %d: vertex %d arrived with %v, want its alive neighbours in the view %v", passes, cand.v, cand.aliveNbrs, got)
			}
		}
		for v := 0; v < s.g.N; v++ {
			if s.aliveVertex(v) && s.dI[v] != len(alive(v)) {
				t.Fatalf("pass %d: dI[%d] = %d, want its %d alive neighbours", passes, v, s.dI[v], len(want))
			}
		}
	}
	t.Cleanup(func() { sampled = func(*misState) {} })
	mis := func(alg func(*graph.Graph, Params) (*MISResult, error)) func(*graph.Graph, Params) (bool, error) {
		return func(g *graph.Graph, p Params) (bool, error) {
			res, err := alg(g, p)
			return err == nil && graph.IsMaximalIndependentSet(g, res.Set), err
		}
	}
	for _, alg := range []struct {
		name string
		run  func(*graph.Graph, Params) (maximal bool, err error)
	}{{"MIS", mis(MIS)}, {"MISFast", mis(MISFast)}, {"MaximalClique", func(g *graph.Graph, p Params) (bool, error) {
		res, err := MaximalClique(g, p)
		return err == nil && graph.IsMaximalClique(g, res.Clique), err
	}}} {
		for _, mu := range []float64{0.05, 0.2} {
			for seed := uint64(1); seed <= 5; seed++ {
				g := graph.Density(1000, 0.5, rng.New(seed))
				before := passes
				maximal, err := alg.run(g, Params{Mu: mu, Seed: seed})
				if err != nil {
					t.Fatalf("%s µ=%v seed %d: %v", alg.name, mu, seed, err)
				}
				if !maximal {
					t.Fatalf("%s µ=%v seed %d: not maximal", alg.name, mu, seed)
				}
				if passes-before < 2 {
					t.Fatalf("%s µ=%v seed %d: %d sampling passes, want at least two", alg.name, mu, seed, passes-before)
				}
			}
		}
	}
	t.Logf("%d sampling passes, %d candidates checked", passes, candidates)
}

func TestMISFastBound(t *testing.T) {
	// Theorem A.3 and Lemma A.2 as assertions, over 20 seeds × 2 densities ×
	// 2 values of µ: a valid maximal independent set within the space cap;
	// an alive-edge history that never grows and ends below n^{1+µ}; at most
	// ⌈8c/µ⌉ iterations (each divides the alive edges by n^{µ/8} w.h.p., and
	// there are n^{1+c} to start with); and exactly the rounds the driver
	// charges — with D the depth of the degree-n^µ broadcast tree over the M
	// machines, an iteration costs two all-reduces (alive edges, class
	// counts) at 2(D+1) rounds each, the sampling round and three
	// dissemination rounds, and the end costs one more alive-edge all-reduce,
	// the gathering round and three dissemination rounds:
	//
	//	Rounds = Iterations·(4(D+1)+4) + 2(D+1) + 4.
	//
	// D ≤ ⌈c/µ⌉+1 is a constant, so this is Theorem A.3's O(c/µ) rounds with
	// its constant spelled out. MIS (Theorem 3.3) is held to validity and the
	// space cap on the same table.
	const n = 400
	for _, c := range []float64{0.5, 0.6} {
		for _, mu := range []float64{0.1, 0.2} {
			maxIterations := int(math.Ceil(8 * c / mu))
			fewest, most := maxIterations, 0
			for seed := uint64(1); seed <= 20; seed++ {
				g := graph.Density(n, c, rng.New(1000+seed))
				name := fmt.Sprintf("c=%v mu=%v seed=%d", c, mu, seed)
				res, err := MISFast(g, Params{Mu: mu, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !graph.IsMaximalIndependentSet(g, res.Set) {
					t.Fatalf("%s: not a maximal independent set", name)
				}
				if res.Metrics.Violations != 0 {
					t.Errorf("%s: %d space violations (max space %d)", name, res.Metrics.Violations, res.Metrics.MaxSpace)
				}
				if res.Iterations > maxIterations {
					t.Errorf("%s: %d iterations, Theorem A.3 allows %d", name, res.Iterations, maxIterations)
				}
				fewest, most = min(fewest, res.Iterations), max(most, res.Iterations)
				if len(res.History) != res.Iterations+1 {
					t.Fatalf("%s: %d history entries for %d iterations", name, len(res.History), res.Iterations)
				}
				for k := 1; k < len(res.History); k++ {
					if res.History[k] > res.History[k-1] {
						t.Errorf("%s: alive edges grew: %v", name, res.History)
					}
				}
				if last := res.History[len(res.History)-1]; float64(last) >= math.Pow(n, 1+mu) {
					t.Errorf("%s: stopped with %d alive edges, not below n^{1+µ} = %.0f", name, last, math.Pow(n, 1+mu))
				}
				depth := 0
				for pos := res.Metrics.Machines - 1; pos > 0; pos = (pos - 1) / treeDegree(n, mu) {
					depth++
				}
				if depth > int(math.Ceil(c/mu))+1 {
					t.Errorf("%s: tree depth %d over %d machines", name, depth, res.Metrics.Machines)
				}
				if want := res.Iterations*(4*(depth+1)+4) + 2*(depth+1) + 4; res.Metrics.Rounds != want {
					t.Errorf("%s: %d rounds, want %d for %d iterations at tree depth %d", name, res.Metrics.Rounds, want, res.Iterations, depth)
				}

				slow, err := MIS(g, Params{Mu: mu, Seed: seed})
				if err != nil {
					t.Fatalf("%s: MIS: %v", name, err)
				}
				if !graph.IsMaximalIndependentSet(g, slow.Set) {
					t.Fatalf("%s: MIS: not a maximal independent set", name)
				}
				if slow.Metrics.Violations != 0 {
					t.Errorf("%s: MIS: %d space violations (max space %d)", name, slow.Metrics.Violations, slow.Metrics.MaxSpace)
				}
			}
			t.Logf("c=%v mu=%v: %d to %d iterations over 20 seeds, bound %d", c, mu, fewest, most, maxIterations)
		}
	}
}

// BenchmarkMsgPlaneMISSampling{Seq,Par4} are the message plane's allocation
// pair on a small-message-heavy workload: the sampling rounds of Algorithm 6,
// which ship one short record per sampled vertex per round and fan status
// updates back out, on an n = 800, c = 0.3 graph at µ = 0.2. Run with
// -benchmem. Against the per-Message representation this dropped from
// ~20.4k to well under half that allocs/op; what remains is algorithm-side
// (sampling plans, candidate lists), not message plane.
// BenchmarkMsgPlaneBroadcast{Seq,Par4} in internal/mpc is the pair's
// broadcast-tree half.
func benchMsgPlaneMISSampling(b *testing.B, workers int) {
	r := rng.New(30)
	g := graph.Density(800, 0.3, r)
	g.AssignUniformWeights(r, 1, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MISFast(g, Params{Mu: 0.2, Seed: 7, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMsgPlaneMISSamplingSeq(b *testing.B)  { benchMsgPlaneMISSampling(b, 1) }
func BenchmarkMsgPlaneMISSamplingPar4(b *testing.B) { benchMsgPlaneMISSampling(b, 4) }
