package seq

import (
	"sort"

	"repro/internal/graph"
)

// MatchingLocalRatio is the incremental state of the Paz–Schwartzman local
// ratio algorithm for maximum weight matching (Theorem 5.1), in the
// potential-function formulation of the paper's §5.3: the state keeps a
// value ϕ(v) per vertex equal to the total weight reduction applied to edges
// incident to v. The current (reduced) weight of an un-stacked edge e={u,v}
// with original weight w is w − ϕ(u) − ϕ(v); e is alive while that is
// positive.
//
// Push(e) performs the local ratio reduction for e (increasing ϕ at both
// endpoints by e's current weight) and pushes e on the stack. Unwind() pops
// the stack greedily into a matching, which is a 2-approximation of the
// maximum weight matching of the original graph.
type MatchingLocalRatio struct {
	g     *graph.Graph
	phi   []float64
	stack []int
	onStk []bool
}

// NewMatchingLocalRatio returns a fresh state for g.
func NewMatchingLocalRatio(g *graph.Graph) *MatchingLocalRatio {
	return &MatchingLocalRatio{
		g:     g,
		phi:   make([]float64, g.N),
		onStk: make([]bool, g.M()),
	}
}

// AliveReduced returns the current reduced weight of edge id and whether the
// edge is alive (positive reduced weight, not on the stack), reading the edge
// and both potentials once — the form the per-vertex argmax scans use.
func (lr *MatchingLocalRatio) AliveReduced(id int) (w float64, alive bool) {
	e := &lr.g.Edges[id]
	w = e.W - lr.phi[e.U] - lr.phi[e.V]
	return w, w > 0 && !lr.onStk[id]
}

// Reduced returns the current reduced weight of edge id.
func (lr *MatchingLocalRatio) Reduced(id int) float64 {
	w, _ := lr.AliveReduced(id)
	return w
}

// Alive reports whether edge id still has positive reduced weight and is not
// on the stack.
func (lr *MatchingLocalRatio) Alive(id int) bool {
	_, alive := lr.AliveReduced(id)
	return alive
}

// Phi returns ϕ(v).
func (lr *MatchingLocalRatio) Phi(v int) float64 { return lr.phi[v] }

// StackSize returns the number of stacked edges.
func (lr *MatchingLocalRatio) StackSize() int { return len(lr.stack) }

// Stack returns the stacked edge ids in push order. The slice aliases the
// stack and must not be modified.
func (lr *MatchingLocalRatio) Stack() []int { return lr.stack }

// Push applies the weight reduction for edge id and stacks it. It returns
// the reduction ψ (the edge's reduced weight at push time) and reports
// whether the push happened; pushing a dead or already-stacked edge is a
// no-op returning (0, false).
func (lr *MatchingLocalRatio) Push(id int) (float64, bool) {
	psi, alive := lr.AliveReduced(id)
	if !alive {
		return 0, false
	}
	e := &lr.g.Edges[id]
	lr.phi[e.U] += psi
	lr.phi[e.V] += psi
	lr.onStk[id] = true
	lr.stack = append(lr.stack, id)
	return psi, true
}

// Unwind pops the stack, adding each edge to the matching if both endpoints
// are still free. The result is a valid matching.
func (lr *MatchingLocalRatio) Unwind() []int {
	used := make([]bool, lr.g.N)
	var match []int
	for i := len(lr.stack) - 1; i >= 0; i-- {
		id := lr.stack[i]
		e := lr.g.Edges[id]
		if !used[e.U] && !used[e.V] {
			used[e.U] = true
			used[e.V] = true
			match = append(match, id)
		}
	}
	return match
}

// LocalRatioMatching runs the sequential local ratio algorithm for maximum
// weight matching, processing edges in index order, and returns a matching
// of weight at least half the optimum (Theorem 5.1).
func LocalRatioMatching(g *graph.Graph) []int {
	lr := NewMatchingLocalRatio(g)
	for id := range g.Edges {
		if lr.Alive(id) {
			lr.Push(id)
		}
	}
	return lr.Unwind()
}

// GreedyMatching sorts edges by decreasing weight and adds each edge whose
// endpoints are free. This is the classic sequential 2-approximation.
func GreedyMatching(g *graph.Graph) []int {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edges[order[a]], g.Edges[order[b]]
		if ea.W != eb.W {
			return ea.W > eb.W
		}
		return order[a] < order[b]
	})
	return MaximalMatching(g, order, make([]bool, g.N), nil)
}

// MaximalMatching extends match over the edge ids, in the given order:
// an edge joins whenever both its endpoints are unmatched in the bitmap
// matched, which it then updates. Over every edge id with a fresh bitmap it
// returns an (unweighted) maximal matching. It is the Lattanzi et al.
// filtering baseline's central-machine subroutine, run once per iteration
// on the sorted sample.
func MaximalMatching(g *graph.Graph, ids []int, matched []bool, match []int) []int {
	for _, id := range ids {
		e := g.Edges[id]
		if !matched[e.U] && !matched[e.V] {
			matched[e.U] = true
			matched[e.V] = true
			match = append(match, id)
		}
	}
	return match
}
