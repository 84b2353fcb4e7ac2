package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// FilteringWeightedMatching is the layered filtering 8-approximation for
// maximum weight matching of Lattanzi et al. (SPAA 2011) — the prior-work
// comparator row of Figure 1 that the paper's 2-approximation (Algorithm 4)
// improves on.
//
// Edges are bucketed into geometric weight classes [2^i·w_min, 2^{i+1}·w_min)
// and the classes are processed from heaviest to lightest; within a class an
// unweighted maximal matching is computed by filtering, restricted to edges
// whose endpoints are still free. Greedy-by-layer loses a factor 4 on top of
// maximality's factor 2, giving 8.
func FilteringWeightedMatching(g *graph.Graph, p Params) (*MatchingResult, error) {
	m := g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	wmin := math.Inf(1)
	for _, e := range g.Edges {
		if e.W <= 0 {
			return nil, fmt.Errorf("core: FilteringWeightedMatching requires positive weights")
		}
		wmin = math.Min(wmin, e.W)
	}
	classOf := func(w float64) int { return int(math.Floor(math.Log2(w / wmin))) }
	maxClass := 0
	for _, e := range g.Edges {
		maxClass = max(maxClass, classOf(e.W))
	}

	f := newFiltering(g, p, "FilteringWeightedMatching")
	defer f.cluster.Close()
	// Each run leaves alive all false, so the classes share one bitmap.
	alive := make([]bool, m)
	for class := maxClass; class >= 0; class-- {
		count := int64(0)
		for id, e := range g.Edges {
			if classOf(e.W) == class && !f.matched[e.U] && !f.matched[e.V] {
				alive[id] = true
				count++
			}
		}
		if err := f.run(alive, count); err != nil {
			return nil, err
		}
	}
	return &MatchingResult{
		Edges:      f.matching,
		Weight:     graph.MatchingWeight(g, f.matching),
		Iterations: f.iterations,
		Metrics:    f.cluster.Metrics(),
	}, nil
}
