package graph

import (
	"repro/internal/rng"
)

// RMAT generates a graph by the recursive-matrix (R-MAT) process of
// Chakrabarti, Zhan and Faloutsos, the standard synthetic model for the
// skewed, community-structured graphs of the paper's motivating workloads
// (Graph500 uses a = 0.57, b = c = 0.19, d = 0.05).
//
// The vertex count is 2^scale; m distinct edges are drawn by recursively
// descending into quadrants of the adjacency matrix with probabilities
// (a, b, c, d); self-loops and duplicates are rejected and re-drawn, so the
// returned graph is simple with exactly m edges (m must fit).
func RMAT(scale int, m int, a, b, c float64, r *rng.RNG) *Graph {
	if scale < 1 || scale > 30 {
		panic("graph: RMAT scale must be in [1,30]")
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic("graph: RMAT requires a>0, b,c>=0, a+b+c<1")
	}
	n := 1 << scale
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic("graph: RMAT m exceeds simple-graph capacity")
	}
	g := New(n)
	if m <= 0 {
		return g
	}
	g.Edges = make([]Edge, 0, m)
	seen := rng.NewSet(m)
	accept := func(u, v int) {
		if u != v && !seen.Add(pairKey(u, v)) {
			g.AddEdge(u, v, 1)
		}
	}
	// Every attempt consumes exactly `scale` Float64 draws (Float64 never
	// rejects internally), so the quadrant descents — the expensive part —
	// fan out across workers through the shared speculative driver.
	speculativeLoop(r, uint64(scale), func() int { return m - len(g.Edges) },
		func(rr *rng.RNG) [2]int32 {
			u, v := rmatDescend(rr, scale, a, b, c)
			return [2]int32{int32(u), int32(v)}
		},
		func(p [2]int32) { accept(int(p[0]), int(p[1])) })
	return g
}

// rmatDescend draws one R-MAT candidate pair by descending `scale` levels
// of the recursive quadrant matrix, consuming exactly scale Float64 draws.
func rmatDescend(r *rng.RNG, scale int, a, b, c float64) (int, int) {
	u, v := 0, 0
	for level := 0; level < scale; level++ {
		x := r.Float64()
		switch {
		case x < a:
			// top-left: no bits set
		case x < a+b:
			v |= 1 << level
		case x < a+b+c:
			u |= 1 << level
		default:
			u |= 1 << level
			v |= 1 << level
		}
	}
	return u, v
}

// RMATDefault generates an R-MAT graph with the Graph500 parameters.
func RMATDefault(scale, m int, r *rng.RNG) *Graph {
	return RMAT(scale, m, 0.57, 0.19, 0.19, r)
}
