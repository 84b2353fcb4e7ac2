package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/seq"
)

// FilteringResult is the output of the Lattanzi et al. filtering baselines.
type FilteringResult struct {
	// Edges are the selected matching edges.
	Edges []int
	// VertexCover is the 2-approximate unweighted vertex cover induced by
	// the maximal matching (both endpoints of every matched edge).
	VertexCover map[int]bool
	// Iterations is the number of filtering iterations.
	Iterations int
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// filtering is the state both filtering baselines share: an edge-partitioned
// cluster whose central machine 0 holds the matched-vertex bitmap, and the
// matching grown so far. One value serves every run of a call, so the
// weighted baseline's classes extend one matching and count iterations
// against one cap.
type filtering struct {
	frame
	g        *graph.Graph
	etaWords int
	matched  []bool
	matching []int
	newly    []int64 // the endpoints an iteration matched, broadcast down the tree
}

// newFiltering lays g's edges out three words each over data machines
// 1..M-1 under a budget of η = n^{1+µ} words; the caller closes the cluster.
func newFiltering(g *graph.Graph, p Params, name string) *filtering {
	n, m := g.N, g.M()
	etaWords := eta(n, p.Mu, 8)
	f := &filtering{
		frame:    newFrame(name, p, dataMachines(3*m, 3*etaWords), etaWords, n),
		g:        g,
		etaWords: etaWords,
		matched:  make([]bool, n),
	}
	for machine := 1; machine < f.M; machine++ {
		f.cluster.SetResident(machine, 3*f.ownedCount(machine, m))
	}
	f.cluster.SetResident(0, n) // matched-vertex bitmap
	return f
}

// run filters the count edges marked in alive down to nothing, extending
// the matching. Each iteration samples every alive edge with probability
// η/count (all of them once count ≤ η, which ends the run), extends the
// matching over the sample on the central machine, broadcasts the newly
// matched vertices and drops every alive edge they touch. A run with
// count 0 issues no rounds. On return alive is all false.
func (f *filtering) run(alive []bool, count int64) error {
	for count > 0 {
		if err := f.next(); err != nil {
			return err
		}
		final := count <= int64(f.etaWords)
		prob := 1.0
		if !final {
			prob = math.Min(1, float64(f.etaWords)/float64(count))
		}
		// The frame's plan, drawn in place rather than through drawPlan: the
		// draw is all the per-edge work here, and a pick call per edge would
		// add about a tenth to a run.
		f.plan = f.plan[:0]
		for machine := 1; machine < f.M; machine++ {
			for id := machine - 1; id < len(alive); id += f.M - 1 {
				if alive[id] && (final || f.r.Bernoulli(prob)) {
					f.plan = append(f.plan, id)
				}
			}
			f.endPlan(machine)
		}
		// The central machine reads the plan, so the sampled ids are charged.
		sampled := f.plan
		err := gatherRound(&f.frame, struct{}{}, plannedIDs)
		if err != nil {
			return err
		}
		sort.Ints(sampled) // in place: the round has shipped the plan
		before := len(f.matching)
		f.matching = seq.MaximalMatching(f.g, sampled, f.matched, f.matching)

		// Broadcast the newly matched vertices down the tree; owners kill
		// incident edges.
		f.newly = f.newly[:0]
		for _, id := range f.matching[before:] {
			e := f.g.Edges[id]
			f.newly = append(f.newly, int64(e.U), int64(e.V))
		}
		if err := f.tree.Broadcast(f.cluster, f.newly, nil); err != nil {
			return err
		}
		clear(f.counts)
		for id, e := range f.g.Edges {
			if !alive[id] {
				continue
			}
			if final || f.matched[e.U] || f.matched[e.V] {
				alive[id] = false
			} else {
				f.counts[f.owner(id)]++
			}
		}
		if count, err = f.sumCounts(); err != nil {
			return err
		}
	}
	return nil
}

// FilteringMatching is the filtering technique of Lattanzi, Moseley, Suri
// and Vassilvitskii (SPAA 2011) for unweighted maximal matching, the
// prior-work baseline in Figure 1 (2-approximation for matching; its matched
// vertices give a 2-approximation for unweighted vertex cover).
//
// Each iteration samples edges with probability η/|E|, computes a maximal
// matching of the sample on the central machine, and keeps only edges with
// both endpoints unmatched; when the residue fits on one machine it is
// finished there.
func FilteringMatching(g *graph.Graph, p Params) (*FilteringResult, error) {
	m := g.M()
	if m == 0 {
		return &FilteringResult{VertexCover: map[int]bool{}}, nil
	}
	f := newFiltering(g, p, "FilteringMatching")
	defer f.cluster.Close()
	alive := make([]bool, m)
	for id := range alive {
		alive[id] = true
	}
	if err := f.run(alive, int64(m)); err != nil {
		return nil, err
	}
	// matched is exactly the endpoint set of the maximal matching, so the
	// public cover map is one pre-sized conversion from the bitmap.
	return &FilteringResult{
		Edges:       f.matching,
		VertexCover: graph.VertexSet(f.matched),
		Iterations:  f.iterations,
		Metrics:     f.cluster.Metrics(),
	}, nil
}
