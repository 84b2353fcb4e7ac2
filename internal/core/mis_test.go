package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
)

func TestMISSmallGraphs(t *testing.T) {
	r := rng.New(50)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(20)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		res, err := MIS(g, Params{Mu: 0.3, Seed: uint64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graph.IsMaximalIndependentSet(g, res.Set) {
			t.Fatalf("trial %d: not an MIS", trial)
		}
	}
}

func TestMISFastSmallGraphs(t *testing.T) {
	r := rng.New(51)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(20)
		m := r.Intn(3 * n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := graph.GNM(n, m, r)
		res, err := MISFast(g, Params{Mu: 0.3, Seed: uint64(trial)})
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

// misOracleGraphs is the instance table of the classic-oracle tests: dense
// random graphs at two densities plus the degenerate shapes.
func misOracleGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"density0.3": graph.Density(2000, 0.3, rng.New(60)),
		"density0.5": graph.Density(2000, 0.5, rng.New(61)),
		"star":       graph.Star(40),
		"path":       graph.Path(33),
		"empty":      graph.New(12),
		"one":        graph.New(1),
	}
}

// testMISMatchesClassic checks that algo returns the classic body's whole
// MISResult — set, iteration and phase counts, history and all nine metrics —
// on every executor, for three seeds.
func testMISMatchesClassic(t *testing.T, algo, classic func(*graph.Graph, Params) (*MISResult, error)) {
	for name, g := range misOracleGraphs() {
		mus := []float64{0.05, 0.1, 0.25}
		if testing.Short() && g.N > 100 {
			mus = mus[2:]
		}
		for _, mu := range mus {
			for seed := uint64(1); seed <= 3; seed++ {
				// The oracle runs once per cell, on one worker: what the
				// executor may not change is the production driver's
				// business.
				p := Params{Mu: mu, Seed: seed, Workers: 1}
				want, err := classic(g, p)
				if err != nil {
					t.Fatalf("%s %+v: classic: %v", name, p, err)
				}
				for _, workers := range []int{1, 2} {
					p.Workers = workers
					got, err := algo(g, p)
					if err != nil {
						t.Fatalf("%s %+v: %v", name, p, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s mu=%v workers=%d seed=%d: result differs from the classic body\n got %d vertices, %d iterations, %d phases, history %v, %+v\nwant %d vertices, %d iterations, %d phases, history %v, %+v",
							name, mu, workers, seed,
							len(got.Set), got.Iterations, got.Phases, got.History, got.Metrics,
							len(want.Set), want.Iterations, want.Phases, want.History, want.Metrics)
					}
				}
			}
		}
	}
}

func TestMISFastMatchesClassic(t *testing.T) { testMISMatchesClassic(t, MISFast, misFastClassic) }

func TestMISMatchesClassic(t *testing.T) { testMISMatchesClassic(t, MIS, misClassic) }

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

// --- the classic bodies --------------------------------------------------
//
// misClassic and misFastClassic are MIS and MISFast, with every helper they
// shared, exactly as they stood before the driver lost its maps and its
// per-candidate slices: batchDominated and blocked as map[int]bool, a fresh
// alive-neighbour slice per sampled vertex, classOf evaluated three times a
// vertex. Only the names changed. TestMISFastMatchesClassic and
// TestMISMatchesClassic hold the production drivers to their results.

// misStateClassic is the shared distributed state of Algorithms 2 and 6: vertices
// (with adjacency lists) partitioned over data machines, per-vertex status
// and alive-degree, and the central machine's record of the independent set.
//
// The per-vertex arrays are owner-partitioned: during a round, machine k's
// RoundFunc invocation only ever writes entries of vertices it owns, so the
// rounds are race-free under a parallel executor. Random sampling decisions
// are drawn before the round starts (in machine order, then vertex order —
// the order the machines would draw in), and the round's closures read the
// resulting per-machine plans.
type misStateClassic struct {
	g       *graph.Graph
	cluster *mpc.Cluster
	r       *rng.RNG
	M       int

	owned [][]int // owned[machine]: vertices of machine, ascending

	inI       []bool // v ∈ I
	dominated []bool // v ∈ N+(I) \ I
	dI        []int  // alive degree: |N(v) \ N+(I)|, 0 if v ∈ N+(I)
}

func (s *misStateClassic) vertexOwner(v int) int { return 1 + v%(s.M-1) }

func (s *misStateClassic) aliveVertex(v int) bool { return !s.inI[v] && !s.dominated[v] }

func newMISStateClassic(g *graph.Graph, cluster *mpc.Cluster, r *rng.RNG) *misStateClassic {
	g.Build()
	s := &misStateClassic{
		g:         g,
		cluster:   cluster,
		r:         r,
		M:         cluster.M(),
		inI:       make([]bool, g.N),
		dominated: make([]bool, g.N),
		dI:        make([]int, g.N),
	}
	s.owned = appendPartition(g.N, s.M, s.vertexOwner)
	for v := 0; v < g.N; v++ {
		s.dI[v] = g.Degree(v)
	}
	resident := make([]int, s.M)
	for v := 0; v < g.N; v++ {
		resident[s.vertexOwner(v)] += 3 + g.Degree(v)
	}
	for machine := 1; machine < s.M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}
	cluster.SetResident(0, g.N) // central: I and N+(I) bitmaps
	return s
}

// aliveNeighbours returns v's neighbours outside N+(I), scanning the
// contiguous CSR neighbour slice (no edge-id indirection).
func (s *misStateClassic) aliveNeighbours(v int) []int64 {
	var out []int64
	for _, u := range s.g.Neighbors(v) {
		if !s.inI[u] && !s.dominated[u] {
			out = append(out, int64(u))
		}
	}
	return out
}

// addToIFromLists marks the vertices in add as members of I and their listed
// alive neighbours as dominated, returning the newly dominated vertices
// (including the I members themselves for ownership notification purposes).
type centralBatchClassic struct {
	added        []int
	newDominated []int
}

// disseminate ships the batch results back to the vertex owners (one routed
// round), then lets owners notify their dominated vertices' neighbours so
// every alive vertex can update dI (a second routed round plus a delivery
// round), mirroring the update step of Theorem 3.3's proof sketch.
func (s *misStateClassic) disseminate(batch centralBatchClassic) error {
	// Round 1: central tells each owner which of its vertices entered I or
	// became dominated. Only the central machine acts on an empty inbox;
	// rounds 2 and 3 are driven entirely by delivered records.
	s.cluster.Arm(0)
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		if machine != 0 {
			return
		}
		for _, v := range batch.added {
			out.SendInts(s.vertexOwner(v), int64(v), 1)
		}
		for _, v := range batch.newDominated {
			out.SendInts(s.vertexOwner(v), int64(v), 0)
		}
	})
	if err != nil {
		return err
	}
	// Round 2: owners record the status change and broadcast "v left the
	// alive set" to the owners of v's neighbours.
	err = s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for msg, ok := in.Next(); ok; msg, ok = in.Next() {
			v := int(msg.Ints[0])
			if msg.Ints[1] == 1 {
				s.inI[v] = true
			} else {
				s.dominated[v] = true
			}
			s.dI[v] = 0
			for _, u := range s.g.Neighbors(v) {
				out.SendInts(s.vertexOwner(int(u)), int64(u))
			}
		}
	})
	if err != nil {
		return err
	}
	// Round 3: owners decrement dI of their still-alive vertices once per
	// removed neighbour.
	return s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for msg, ok := in.Next(); ok; msg, ok = in.Next() {
			u := int(msg.Ints[0])
			if s.aliveVertex(u) && s.dI[u] > 0 {
				s.dI[u]--
			}
		}
	})
}

// centralProcessGroups runs the hungry-greedy inner loop on the central
// machine: candidates arrive in groups; from each group the first vertex
// whose current alive degree (w.r.t. the central machine's view of N+(I))
// is at least threshold joins I. Candidate lists were computed against the
// alive set at sampling time; the central machine re-filters them against
// its batch-local dominated set, exactly as the paper's central machine can
// (it holds the sampled neighbour lists).
func (s *misStateClassic) centralProcessGroups(groups [][]candidateClassic, threshold int) centralBatchClassic {
	return s.centralProcessGroupsWithState(groups, threshold, make(map[int]bool))
}

type candidateClassic struct {
	v         int
	aliveNbrs []int64
}

// sampleToCentral performs the sampling round: every vertex for which
// include(v) is true joins the sample with probability prob and ships
// (v, alive neighbour list) to the central machine. The sampling decisions
// are drawn up front in machine order, then vertex order — the order the
// machines would draw in — into a per-machine plan, which the round's
// closures replay concurrently. The returned candidates are in submission
// order (machine order, then vertex order), which the central machine chops
// into groups.
func (s *misStateClassic) sampleToCentral(include func(v int) bool, prob float64) ([]candidateClassic, error) {
	plan := make([][]candidateClassic, s.M)
	var sample []candidateClassic
	for machine := 1; machine < s.M; machine++ {
		for _, v := range s.owned[machine] {
			if !include(v) || !s.r.Bernoulli(prob) {
				continue
			}
			cand := candidateClassic{v: v, aliveNbrs: s.aliveNeighbours(v)}
			plan[machine] = append(plan[machine], cand)
			sample = append(sample, cand)
		}
	}
	armPlanned(s.cluster, plan)
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, cand := range plan[machine] {
			out.Begin(0)
			out.Int(int64(cand.v))
			out.Ints(cand.aliveNbrs...)
			out.End()
		}
	})
	if err != nil {
		return nil, err
	}
	return sample, nil
}

// chopGroupsClassic splits a shuffled sample into groups of the given size.
func chopGroupsClassic(r *rng.RNG, sample []candidateClassic, groupSize int) [][]candidateClassic {
	r.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if groupSize < 1 {
		groupSize = 1
	}
	var groups [][]candidateClassic
	for i := 0; i < len(sample); i += groupSize {
		end := i + groupSize
		if end > len(sample) {
			end = len(sample)
		}
		groups = append(groups, sample[i:end])
	}
	return groups
}

// finishCentrally gathers the remaining alive vertices with their alive
// adjacency onto the central machine (one round) and completes the
// independent set greedily.
func (s *misStateClassic) finishCentrally() error {
	leftovers, err := s.sampleToCentral(s.aliveVertex, 1)
	if err != nil {
		return err
	}
	sort.Slice(leftovers, func(i, j int) bool { return leftovers[i].v < leftovers[j].v })
	blocked := make(map[int]bool)
	var batch centralBatchClassic
	for _, cand := range leftovers {
		if blocked[cand.v] {
			continue
		}
		batch.added = append(batch.added, cand.v)
		blocked[cand.v] = true
		for _, u := range cand.aliveNbrs {
			if !blocked[int(u)] {
				batch.newDominated = append(batch.newDominated, int(u))
				blocked[int(u)] = true
			}
		}
	}
	return s.disseminate(batch)
}

// aliveEdgeCount aggregates Σ_v alive dI(v) / 2 = |E_k| over the tree.
func (s *misStateClassic) aliveEdgeCount(tree *mpc.Tree) (int64, error) {
	counts := make([]int64, s.M)
	for v := 0; v < s.g.N; v++ {
		if s.aliveVertex(v) {
			counts[s.vertexOwner(v)] += int64(s.dI[v])
		}
	}
	total, err := tree.AllReduceSum(s.cluster, 1, func(machine int) []int64 {
		return []int64{counts[machine]}
	})
	if err != nil {
		return 0, err
	}
	return total[0] / 2, nil
}

// result assembles the final MISResult. The membership bitmap s.inI is the
// internal representation; the public map shape is a single pre-sized
// conversion (no per-insert rehash growth).
func (s *misStateClassic) result(iterations, phases int) *MISResult {
	return &MISResult{
		Set:        graph.VertexSet(s.inI),
		Iterations: iterations,
		Phases:     phases,
		Metrics:    s.cluster.Metrics(),
	}
}

// MIS is Algorithm 2: the warm-up hungry-greedy maximal independent set in
// O(1/µ²) rounds (Theorem 3.3). Phases i = 1..1/α (α = µ/2) reduce the
// maximum alive degree from n^{1-(i-1)α} to n^{1-iα}; within a phase, heavy
// vertices (alive degree ≥ n^{1-iα}) are sampled in groups of n^{µ/2} and
// the central machine adds one qualifying vertex per group.
func misClassic(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*n+2*g.M(), 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)
	s := newMISStateClassic(g, cluster, r)

	alpha := p.Mu / 2
	if alpha <= 0 {
		alpha = 0.05
	}
	phases := int(math.Ceil(1 / alpha))
	nf := float64(n)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))
	iterations := 0

	for i := 1; i <= phases; i++ {
		thresholdF := math.Pow(nf, 1-float64(i)*alpha)
		threshold := int(math.Ceil(thresholdF))
		if threshold < 1 {
			threshold = 1
		}
		heavyMin := math.Pow(nf, float64(i)*alpha) // while |V_H| >= n^{iα}
		for {
			if iterations >= maxIterations {
				return nil, fmt.Errorf("core: MIS exceeded %d iterations", maxIterations)
			}
			// Count heavy vertices (aggregated over the tree).
			counts := make([]int64, M)
			for v := 0; v < n; v++ {
				if s.aliveVertex(v) && s.dI[v] >= threshold {
					counts[s.vertexOwner(v)]++
				}
			}
			total, err := tree.AllReduceSum(cluster, 1, func(machine int) []int64 {
				return []int64{counts[machine]}
			})
			if err != nil {
				return nil, err
			}
			heavy := total[0]
			if heavy == 0 {
				break
			}
			if float64(heavy) < heavyMin {
				// Line 12: fewer than n^{iα} heavy vertices remain; gather
				// them and finish the phase centrally with a greedy MIS
				// restricted to V_H.
				heavySet := func(v int) bool { return s.aliveVertex(v) && s.dI[v] >= threshold }
				sample, err := s.sampleToCentral(heavySet, 1)
				if err != nil {
					return nil, err
				}
				sort.Slice(sample, func(a, b int) bool { return sample[a].v < sample[b].v })
				groups := make([][]candidateClassic, len(sample))
				for k := range sample {
					groups[k] = sample[k : k+1]
				}
				batch := s.centralProcessGroups(groups, 0)
				if err := s.disseminate(batch); err != nil {
					return nil, err
				}
				iterations++
				break
			}
			// Draw ~n^{iα} groups of n^{µ/2} heavy vertices via
			// self-sampling (each heavy vertex joins with probability
			// groups*groupSize/|V_H|).
			target := heavyMin * float64(groupSize)
			prob := math.Min(1, target/float64(heavy))
			heavySet := func(v int) bool { return s.aliveVertex(v) && s.dI[v] >= threshold }
			sample, err := s.sampleToCentral(heavySet, prob)
			if err != nil {
				return nil, err
			}
			groups := chopGroupsClassic(r, sample, groupSize)
			batch := s.centralProcessGroups(groups, threshold)
			if err := s.disseminate(batch); err != nil {
				return nil, err
			}
			iterations++
		}
	}
	// All alive vertices now have dI < n^{1-phases*α} ≤ 1, i.e. dI = 0:
	// gather and add them all.
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	return s.result(iterations, phases), nil
}

// MISFast is Algorithm 6: the improved hungry-greedy maximal independent
// set in O(c/µ) rounds (Theorem A.3). Each iteration buckets alive vertices
// into degree classes V_{k,i} = {v : n^{1-iα} ≤ d_I(v) < n^{1-(i-1)α}},
// samples n^{(i+1)α} groups of n^{µ/2} vertices from each class, and the
// central machine adds one vertex with d_I ≥ n^{1-(i+1)α} per group; the
// alive edge count drops by a factor n^{µ/8} per iteration w.h.p.
// (Lemma A.2). When fewer than n^{1+µ} edges remain the residual graph is
// gathered and finished centrally.
func misFastClassic(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	M := dataMachines(3*n+2*g.M(), 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)
	s := newMISStateClassic(g, cluster, r)

	alpha := p.Mu / 8
	if alpha <= 0 {
		alpha = 0.0125
	}
	classes := int(math.Ceil(1 / alpha))
	nf := float64(n)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))
	iterations := 0
	var history []int64

	for {
		if iterations >= maxIterations {
			return nil, fmt.Errorf("core: MISFast exceeded %d iterations", maxIterations)
		}
		edges, err := s.aliveEdgeCount(tree)
		if err != nil {
			return nil, err
		}
		history = append(history, edges)
		if float64(edges) < math.Pow(nf, 1+p.Mu) {
			break
		}
		iterations++
		// One sampling round covers all degree classes: each alive vertex
		// knows its class from d_I and self-samples with the class's rate.
		classOf := func(v int) int {
			if !s.aliveVertex(v) || s.dI[v] == 0 {
				return -1
			}
			d := float64(s.dI[v])
			// class i: n^{1-iα} <= d < n^{1-(i-1)α}
			i := int(math.Ceil((1 - math.Log(d)/math.Log(nf)) / alpha))
			if i < 1 {
				i = 1
			}
			if i > classes {
				i = classes
			}
			return i
		}
		classCounts := make([]int64, classes+1)
		machineClassCounts := make([][]int64, M)
		for machine := range machineClassCounts {
			machineClassCounts[machine] = make([]int64, classes+1)
		}
		for v := 0; v < n; v++ {
			if i := classOf(v); i >= 1 {
				machineClassCounts[s.vertexOwner(v)][i]++
			}
		}
		totals, err := tree.AllReduceSum(cluster, classes+1, func(machine int) []int64 {
			return machineClassCounts[machine]
		})
		if err != nil {
			return nil, err
		}
		copy(classCounts, totals)

		sampleProb := func(v int) float64 {
			i := classOf(v)
			if i < 1 || classCounts[i] == 0 {
				return 0
			}
			target := math.Pow(nf, float64(i+1)*alpha) * float64(groupSize)
			return math.Min(1, target/float64(classCounts[i]))
		}
		// Draw the sampling decisions machine by machine (each machine's
		// vertices in ascending order), then replay the per-machine plans
		// inside the round.
		byClass := make([][]candidateClassic, classes+1)
		plan := make([][]candidateClassic, M)
		for machine := 1; machine < M; machine++ {
			for _, v := range s.owned[machine] {
				i := classOf(v)
				if i < 1 || !r.Bernoulli(sampleProb(v)) {
					continue
				}
				cand := candidateClassic{v: v, aliveNbrs: s.aliveNeighbours(v)}
				plan[machine] = append(plan[machine], cand)
				byClass[i] = append(byClass[i], cand)
			}
		}
		armPlanned(cluster, plan)
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, cand := range plan[machine] {
				out.Begin(0)
				out.Int(int64(cand.v))
				out.Ints(cand.aliveNbrs...)
				out.End()
			}
		})
		if err != nil {
			return nil, err
		}
		// Central machine: process classes in increasing i; threshold for
		// class i is n^{1-(i+1)α}.
		var batch centralBatchClassic
		batchDominated := make(map[int]bool)
		for i := 1; i <= classes; i++ {
			if len(byClass[i]) == 0 {
				continue
			}
			threshold := int(math.Ceil(math.Pow(nf, 1-float64(i+1)*alpha)))
			if threshold < 1 {
				threshold = 1
			}
			groups := chopGroupsClassic(r, byClass[i], groupSize)
			sub := s.centralProcessGroupsWithState(groups, threshold, batchDominated)
			batch.added = append(batch.added, sub.added...)
			batch.newDominated = append(batch.newDominated, sub.newDominated...)
		}
		if err := s.disseminate(batch); err != nil {
			return nil, err
		}
	}
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	res := s.result(iterations, 0)
	res.History = history
	return res, nil
}

// centralProcessGroupsWithState is centralProcessGroups sharing a dominated
// set across multiple class batches within the same iteration.
func (s *misStateClassic) centralProcessGroupsWithState(groups [][]candidateClassic, threshold int, batchDominated map[int]bool) centralBatchClassic {
	var batch centralBatchClassic
	isAlive := func(v int) bool {
		return s.aliveVertex(v) && !batchDominated[v]
	}
	for _, group := range groups {
		for _, cand := range group {
			if !isAlive(cand.v) {
				continue
			}
			deg := 0
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					deg++
				}
			}
			if deg < threshold {
				continue
			}
			batch.added = append(batch.added, cand.v)
			batchDominated[cand.v] = true
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					batch.newDominated = append(batch.newDominated, int(u))
					batchDominated[int(u)] = true
				}
			}
			break
		}
	}
	return batch
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
