package seq

import "repro/internal/graph"

// GreedyMIS scans vertices in the given order (or 0..n-1 when order is nil)
// and adds each vertex not adjacent to the set so far, producing a maximal
// independent set. This is the subroutine the paper's MIS algorithms run on
// the central machine once the residual graph fits in memory.
func GreedyMIS(g *graph.Graph, order []int) map[int]bool {
	if order == nil {
		order = make([]int, g.N)
		for v := range order {
			order[v] = v
		}
	}
	inSet := make([]bool, g.N)
	blocked := make([]bool, g.N)
	for _, v := range order {
		if blocked[v] {
			continue
		}
		inSet[v] = true
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return graph.VertexSet(inSet)
}

// GreedyMISSubset is GreedyMIS restricted to the induced subgraph on the
// vertices for which active(v) is true: the returned set is independent in g
// and maximal within the active set.
func GreedyMISSubset(g *graph.Graph, active func(v int) bool, order []int) map[int]bool {
	if order == nil {
		order = make([]int, g.N)
		for v := range order {
			order[v] = v
		}
	}
	inSet := make([]bool, g.N)
	blocked := make([]bool, g.N)
	for _, v := range order {
		if !active(v) || blocked[v] {
			continue
		}
		inSet[v] = true
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return graph.VertexSet(inSet)
}

// GreedyMaximalClique grows a clique from seed by scanning vertices in index
// order and adding any vertex adjacent to the whole current clique. Used as
// the centralized finish of the maximal clique algorithm and as a test
// oracle.
func GreedyMaximalClique(g *graph.Graph, seed []int) []int {
	clique := append([]int(nil), seed...)
	// joined[u] counts the clique members u is adjacent to and last[u] the
	// latest member that counted it (a parallel edge counts once), so a
	// vertex extends the clique exactly when joined[v] == size.
	joined := make([]int32, g.N)
	last := make([]int32, g.N)
	inClique := make([]bool, g.N)
	size := int32(0)
	join := func(v int) {
		inClique[v] = true
		size++
		for _, u := range g.Neighbors(v) {
			if last[u] != size {
				last[u] = size
				joined[u]++
			}
		}
	}
	for _, v := range seed {
		if !inClique[v] {
			join(v)
		}
	}
	for v := 0; v < g.N; v++ {
		if !inClique[v] && joined[v] == size {
			clique = append(clique, v)
			join(v)
		}
	}
	return clique
}
