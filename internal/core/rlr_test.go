package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/setcover"
)

// rlrMatchingClassic is the RLRMatching driver as it stood before the
// map-free rewrite, kept verbatim as the oracle: per-machine [][]int64 plans
// for every iteration, a perVertex map with sorted keys, a changed map, and a
// whole-m rescan after the delivery round. TestRLRMatchingMatchesClassic
// requires the production driver to reproduce its MatchingResult exactly.
func rlrMatchingClassic(g *graph.Graph, p Params, opt MatchingOptions) (*MatchingResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	etaWords := opt.Eta
	if etaWords <= 0 {
		etaWords = eta(n, p.Mu, 8)
	}
	// Machine 0 is the dedicated central machine; machines 1..M-1 hold the
	// edge and vertex partitions.
	M := dataMachines(4*m, 4*etaWords)
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	tree := mpc.NewTree(cluster, 0, treeDegree(n, p.Mu))
	r := rng.New(p.Seed)

	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	vertexOwner := func(v int) int { return 1 + v%(M-1) }

	// Resident state: each edge owner stores (u, v, w, alive) per edge; each
	// vertex owner stores ϕ(v) plus the incident edge list used to forward
	// potentials.
	alive := make([]bool, m)
	for id := range alive {
		alive[id] = g.Edges[id].W > 0
	}
	g.Build()
	ownedEdges := appendPartition(m, M, edgeOwner)
	resident := make([]int, M)
	for id := range g.Edges {
		resident[edgeOwner(id)] += 4
	}
	for v := 0; v < n; v++ {
		resident[vertexOwner(v)] += 2 + g.Degree(v)
	}
	for machine := 0; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	// Central machine state: the local ratio potentials and stack.
	lr := seq.NewMatchingLocalRatio(g)
	cluster.AddResident(0, 2*n) // ϕ plus stacked-bit bookkeeping

	res := &MatchingResult{}
	aliveCount := int64(0)
	for _, a := range alive {
		if a {
			aliveCount++
		}
	}

	for iter := 0; aliveCount > 0; iter++ {
		if iter >= maxIterations {
			return nil, fmt.Errorf("core: RLRMatching exceeded %d iterations", maxIterations)
		}
		res.Iterations++

		// Sampling round: edge owners sample each alive edge into E'_u and
		// E'_v independently and ship sampled edges to the central machine.
		// Message layout: [edgeID, sideMask] with sideMask bit0 = sampled
		// for U's list, bit1 = sampled for V's list.
		full := aliveCount < 4*int64(etaWords)
		prob := 1.0
		if !full {
			prob = math.Min(1, float64(etaWords)/float64(aliveCount))
		}
		// Draw the two per-edge side samples machine by machine before the
		// round; the closures replay each machine's plan concurrently.
		sampledSides := int64(0)
		var sampleIDs []int64
		plan := make([][]int64, M)
		for machine := 1; machine < M; machine++ {
			for _, id := range ownedEdges[machine] {
				if !alive[id] {
					continue
				}
				mask := int64(0)
				if full || r.Bernoulli(prob) {
					mask |= 1
				}
				if full || r.Bernoulli(prob) {
					mask |= 2
				}
				if mask != 0 {
					plan[machine] = append(plan[machine], int64(id), mask)
					if mask&1 != 0 {
						sampledSides++
					}
					if mask&2 != 0 {
						sampledSides++
					}
					sampleIDs = append(sampleIDs, int64(id), mask)
				}
			}
		}
		armPlanned(cluster, plan)
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for i := 0; i+1 < len(plan[machine]); i += 2 {
				out.SendInts(0, plan[machine][i], plan[machine][i+1])
			}
		})
		if err != nil {
			return nil, err
		}

		// Line 10-11: if Σ|E'_v| > 8η the algorithm fails. This is a
		// w.h.p.-never event at the paper's constants.
		if !full && sampledSides > 8*int64(etaWords) {
			return nil, fmt.Errorf("core: RLRMatching sampling overflow (%d > 8η=%d)", sampledSides, 8*etaWords)
		}

		// Central machine: group sampled edges per vertex and push the
		// heaviest alive edge of each E'_v (Lines 12-14).
		perVertex := make(map[int][]int) // vertex -> sampled edge ids
		for i := 0; i+1 < len(sampleIDs); i += 2 {
			id, mask := int(sampleIDs[i]), sampleIDs[i+1]
			e := g.Edges[id]
			if mask&1 != 0 {
				perVertex[e.U] = append(perVertex[e.U], id)
			}
			if mask&2 != 0 {
				perVertex[e.V] = append(perVertex[e.V], id)
			}
		}
		vertices := make([]int, 0, len(perVertex))
		for v := range perVertex {
			vertices = append(vertices, v)
		}
		sort.Ints(vertices)
		changed := make(map[int]bool)
		var pushed []int64
		for _, v := range vertices {
			best, bestW := -1, 0.0
			for _, id := range perVertex[v] {
				if !lr.Alive(id) {
					continue
				}
				if w := lr.Reduced(id); w > bestW {
					best, bestW = id, w
				}
			}
			if best < 0 {
				continue
			}
			if _, ok := lr.Push(best); ok {
				e := g.Edges[best]
				changed[e.U] = true
				changed[e.V] = true
				pushed = append(pushed, int64(best))
			}
		}
		cluster.SetResident(0, 2*n+2*lr.StackSize())

		// Update round A: central sends the changed ϕ values to the vertex
		// owners and the stacked edge ids to the edge owners (§5.3).
		changedList := make([]int, 0, len(changed))
		for v := range changed {
			changedList = append(changedList, v)
		}
		sort.Ints(changedList)
		cluster.Arm(0) // rounds B and the delivery round run off their inboxes
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for _, v := range changedList {
				out.Begin(vertexOwner(v))
				out.Int(int64(v))
				out.Float(lr.Phi(v))
				out.End()
			}
			for _, id := range pushed {
				out.SendInts(edgeOwner(int(id)), id)
			}
		})
		if err != nil {
			return nil, err
		}

		// Update round B: vertex owners forward ϕ(v) to the machines owning
		// v's alive incident edges; edge owners mark stacked edges dead and
		// recompute aliveness from the received potentials.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if len(msg.Floats) == 1 {
					v := int(msg.Ints[0])
					phi := msg.Floats[0]
					for _, id := range g.IncidentEdges(v) {
						if alive[id] {
							out.Begin(edgeOwner(int(id)))
							out.Int(int64(id))
							out.Int(int64(v))
							out.Float(phi)
							out.End()
						}
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		// Deliver round B's messages and apply them. Stacked edges die; an
		// edge receiving a potential recomputes its reduced weight (the
		// simulator reads lr, which holds exactly the values the messages
		// carry).
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if len(msg.Floats) == 1 && len(msg.Ints) == 2 {
					id := int(msg.Ints[0])
					if alive[id] && !lr.Alive(id) {
						alive[id] = false
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for _, id := range pushed {
			alive[id] = false
		}
		// Any edge whose potential made it non-positive is dead even if its
		// owner received no message this iteration (both endpoints
		// unchanged ⇒ weight unchanged, so this only affects edges with a
		// changed endpoint — exactly the ones messaged above).
		// Recompute the alive count with an aggregation over the tree.
		counts := make([]int64, M)
		for id := 0; id < m; id++ {
			if alive[id] && !lr.Alive(id) {
				alive[id] = false
			}
			if alive[id] {
				counts[edgeOwner(id)]++
			}
		}
		total, err := tree.AllReduceSum(cluster, 1, func(machine int) []int64 {
			return []int64{counts[machine]}
		})
		if err != nil {
			return nil, err
		}
		aliveCount = total[0]
		res.History = append(res.History, aliveCount)
	}

	res.Edges = lr.Unwind()
	res.Weight = graph.MatchingWeight(g, res.Edges)
	res.StackSize = lr.StackSize()
	res.Metrics = cluster.Metrics()
	return res, nil
}

// sampledIterations counts the iterations of a run that drew randomness:
// iteration i is sampled when the alive count before it was at least 4η.
func sampledIterations(before int64, history []int64, eta int) int {
	k := 0
	for _, after := range history {
		if before >= 4*int64(eta) {
			k++
		}
		before = after
	}
	return k
}

func TestRLRMatchingMatchesClassic(t *testing.T) {
	weighted := func(g *graph.Graph, seed uint64) *graph.Graph {
		g.AssignUniformWeights(rng.New(seed), 1, 100)
		return g
	}
	// Every fourth edge weightless or negative: never alive, never sampled.
	holed := weighted(graph.Density(200, 0.4, rng.New(21)), 22)
	for id := range holed.Edges {
		if id%4 == 0 {
			holed.Edges[id].W = float64(-(id % 8)) // 0 and -4
		}
	}
	// Equal weights everywhere: every argmax is a tie, so the first-max rule
	// and the arrival order decide the whole run.
	ties := graph.Density(150, 0.4, rng.New(23))
	// Even edges stored as (smaller, larger), odd ones as (larger, smaller):
	// a central machine that read an edge's side from its endpoints' order
	// instead of from U filters the wrong side of half of them. The mix is
	// set here, not left to the generator's own orientation.
	swapped := weighted(graph.Density(300, 0.4, rng.New(24)), 25)
	for id := range swapped.Edges {
		e := &swapped.Edges[id]
		if (e.U > e.V) != (id%2 == 1) {
			e.U, e.V = e.V, e.U
		}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		mu   float64
		eta  int
		// minSampled is the number of sampled iterations the case must
		// reach to be worth keeping.
		minSampled int
	}{
		{"full/default-eta", weighted(graph.Density(300, 0.3, rng.New(11)), 12), 0.2, 0, 0},
		{"full/dense-graph", weighted(graph.Density(120, 0.8, rng.New(13)), 14), 0.3, 0, 0},
		{"appendixC/eta=n", weighted(graph.Density(400, 0.5, rng.New(15)), 16), 0, 400, 1},
		{"sampled/tiny-eta", weighted(graph.Density(1000, 0.5, rng.New(17)), 18), 0.05, 32, 10},
		{"sampled/ties", ties, 0.1, 40, 2},
		{"sampled/orientation", swapped, 0.1, 40, 2},
		{"nonpositive-weights", holed, 0.1, 60, 1},
		{"star", graph.Star(300), 0.1, 20, 1},
		{"path", weighted(graph.Path(500), 19), 0.1, 30, 1},
	}
	for _, tc := range cases {
		etaWords := tc.eta
		if etaWords <= 0 {
			etaWords = eta(tc.g.N, tc.mu, 8)
		}
		positive := int64(0)
		for _, e := range tc.g.Edges {
			if e.W > 0 {
				positive++
			}
		}
		for _, workers := range []int{1, 2} {
			for seed := uint64(1); seed <= 3; seed++ {
				p := Params{Mu: tc.mu, Seed: seed, Workers: workers}
				opt := MatchingOptions{Eta: tc.eta}
				want, err := rlrMatchingClassic(tc.g, p, opt)
				if err != nil {
					t.Fatalf("%s: classic: %v", tc.name, err)
				}
				got, err := RLRMatching(tc.g, p, opt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d seed=%d: result differs from the classic driver\n got %+v\nwant %+v",
						tc.name, workers, seed, got, want)
				}
				if k := sampledIterations(positive, got.History, etaWords); k < tc.minSampled {
					t.Fatalf("%s seed=%d: %d sampled iterations, the case needs >= %d", tc.name, seed, k, tc.minSampled)
				}
			}
		}
	}
}

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
		m := 1 + r.Intn(15)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
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
		f := 1 + r.Intn(3)
		if f > n {
			f = n
		}
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
