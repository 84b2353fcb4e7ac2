package seq

import (
	"repro/internal/graph"
)

// BMatchingLocalRatio is the incremental state of the ε-adjusted local ratio
// algorithm for maximum weight b-matching (Appendix D). As in the matching
// case the state keeps a potential ϕ(v) per vertex, but a selection of edge
// e = {u,v} with current weight ψ increases ϕ(u) by ψ/b(u) and ϕ(v) by
// ψ/b(v) (the selected edge itself is reduced to zero and stacked).
//
// The ε-adjustment changes the kill rule: an edge is discarded as soon as
//
//	w(e) <= (1+ε) · (ϕ(u) + ϕ(v)),
//
// i.e. when its weight has been reduced by at least a 1/(1+ε) fraction.
// Without this (ε = 0, b >= 2) a vertex would need to select all b of its
// incident unit-weight edges before any of them died, defeating the
// sampling argument; with it the approximation becomes 3 − 2/b + 2ε.
type BMatchingLocalRatio struct {
	g     *graph.Graph
	b     func(v int) int
	eps   float64
	phi   []float64
	stack []int
	onStk []bool
}

// NewBMatchingLocalRatio returns a fresh state. b(v) must be >= 1 for every
// vertex; eps must be >= 0.
func NewBMatchingLocalRatio(g *graph.Graph, b func(v int) int, eps float64) *BMatchingLocalRatio {
	if eps < 0 {
		panic("seq: negative eps")
	}
	return &BMatchingLocalRatio{
		g:     g,
		b:     b,
		eps:   eps,
		phi:   make([]float64, g.N),
		onStk: make([]bool, g.M()),
	}
}

// Reduced returns the current reduced weight of edge id, w − ϕ(u) − ϕ(v).
func (lr *BMatchingLocalRatio) Reduced(id int) float64 {
	e := lr.g.Edges[id]
	return e.W - lr.phi[e.U] - lr.phi[e.V]
}

// Alive reports whether edge id survives the ε-adjusted kill rule and is not
// stacked.
func (lr *BMatchingLocalRatio) Alive(id int) bool {
	if lr.onStk[id] {
		return false
	}
	e := lr.g.Edges[id]
	return e.W > (1+lr.eps)*(lr.phi[e.U]+lr.phi[e.V])
}

// Phi returns ϕ(v).
func (lr *BMatchingLocalRatio) Phi(v int) float64 { return lr.phi[v] }

// StackSize returns the number of stacked edges.
func (lr *BMatchingLocalRatio) StackSize() int { return len(lr.stack) }

// Push applies the b-matching weight reduction for edge id and stacks it.
// Pushing a dead or stacked edge is a no-op returning (0, false).
func (lr *BMatchingLocalRatio) Push(id int) (float64, bool) {
	if !lr.Alive(id) {
		return 0, false
	}
	e := lr.g.Edges[id]
	psi := e.W - lr.phi[e.U] - lr.phi[e.V]
	if psi <= 0 {
		return 0, false
	}
	lr.phi[e.U] += psi / float64(lr.b(e.U))
	lr.phi[e.V] += psi / float64(lr.b(e.V))
	lr.onStk[id] = true
	lr.stack = append(lr.stack, id)
	return psi, true
}

// Unwind pops the stack, adding each edge when both endpoints still have
// residual capacity. The result is a valid b-matching.
func (lr *BMatchingLocalRatio) Unwind() []int {
	load := make([]int, lr.g.N)
	var match []int
	for i := len(lr.stack) - 1; i >= 0; i-- {
		id := lr.stack[i]
		e := lr.g.Edges[id]
		if load[e.U] < lr.b(e.U) && load[e.V] < lr.b(e.V) {
			load[e.U]++
			load[e.V]++
			match = append(match, id)
		}
	}
	return match
}

// LocalRatioBMatching runs the sequential ε-adjusted local ratio algorithm
// for maximum weight b-matching, processing edges in index order, and
// returns a (3 − 2/max{2,b} + 2ε)-approximate b-matching (Theorem D.1 and
// the ε-adjustment discussion of Appendix D.2).
func LocalRatioBMatching(g *graph.Graph, b func(v int) int, eps float64) []int {
	lr := NewBMatchingLocalRatio(g, b, eps)
	for id := range g.Edges {
		lr.Push(id)
	}
	return lr.Unwind()
}
