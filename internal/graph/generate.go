package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// GNM returns an Erdős–Rényi G(n, m) graph: m distinct edges chosen uniformly
// from all vertex pairs, with unit weights. It panics if m exceeds the number
// of available pairs. Large instances construct on the package's parallel
// workers (SetParallelism) with output bit-identical to the sequential path,
// including the final position of r.
func GNM(n, m int, r *rng.RNG) *Graph {
	if n > math.MaxInt32 {
		// Candidates travel as int32 (the CSR kernel's id width); reject
		// oversized universes up front rather than truncate silently.
		panic("graph: GNM limited to n below 2^31")
	}
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: GNM(%d, %d) exceeds %d possible edges", n, m, maxM))
	}
	g := New(n)
	if m <= 0 {
		return g
	}
	g.Edges = make([]Edge, 0, m)
	if m > maxM/2 {
		// Dense: enumerate pairs and sample without replacement. The
		// sampling is inherently sequential; the triangular pair decode (a
		// sqrt plus correction loop per index) is not, so it fans out.
		idx := r.SampleWithoutReplacement(maxM, m)
		pairs := decodePairs(idx)
		for _, p := range pairs {
			g.AddEdge(int(p[0]), int(p[1]), 1)
		}
		return g
	}
	// Sparse: rejection sampling with a seen-set. The candidate draws fan
	// out across workers; the accept loop replays them in attempt order.
	seen := rng.NewSet(m)
	generatePairs(r, n, n, func() int { return m - len(g.Edges) }, func(u, v int) {
		if u != v && !seen.Add(pairKey(u, v)) {
			g.AddEdge(u, v, 1)
		}
	})
	return g
}

// pairKey packs an unordered pair of distinct vertices below 2^32 into the
// non-zero key rng.Set wants: min<<32 | max, and max is at least 1.
func pairKey(u, v int) uint64 {
	u, v = minmax(u, v)
	return uint64(u)<<32 | uint64(v)
}

// decodePairs maps triangular pair indices to (u,v) endpoint pairs,
// in parallel when the batch is large.
func decodePairs(idx []int) [][2]int32 {
	pairs := make([][2]int32, len(idx))
	decode := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := pairFromIndex(idx[i])
			pairs[i] = [2]int32{int32(u), int32(v)}
		}
	}
	if workers := parallelism(); workers > 1 && len(idx) >= genParallelMin {
		runChunks(chunkRanges(len(idx), workers), func(_, lo, hi int) { decode(lo, hi) })
	} else {
		decode(0, len(idx))
	}
	return pairs
}

// generatePairs runs the generator attempt loop
//
//	for remaining() > 0 { accept(r.Intn(boundA), r.Intn(boundB)) }
//
// through the shared speculative driver: each attempt consumes exactly two
// raw draws (modulo Intn's internal rejection, which the driver detects).
func generatePairs(r *rng.RNG, boundA, boundB int, remaining func() int, accept func(a, b int)) {
	speculativeLoop(r, 2, remaining,
		func(rr *rng.RNG) [2]int32 {
			return [2]int32{int32(rr.Intn(boundA)), int32(rr.Intn(boundB))}
		},
		func(p [2]int32) { accept(int(p[0]), int(p[1])) })
}

// pairFromIndex maps k in [0, n(n-1)/2) to the k-th pair (u,v), u < v, in the
// triangular enumeration (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),...
func pairFromIndex(k int) (int, int) {
	// v is the largest integer with v(v-1)/2 <= k.
	v := int((1 + math.Sqrt(1+8*float64(k))) / 2)
	for v*(v-1)/2 > k {
		v--
	}
	for (v+1)*v/2 <= k {
		v++
	}
	u := k - v*(v-1)/2
	return u, v
}

// Density returns a graph with n vertices and floor(n^{1+c}) edges (capped at
// the complete graph) sampled as G(n,m). This is the paper's standard
// workload: m = n^{1+c}.
func Density(n int, c float64, r *rng.RNG) *Graph {
	m := int(math.Floor(math.Pow(float64(n), 1+c)))
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	return GNM(n, m, r)
}

// PreferentialAttachment returns a power-law graph built by preferential
// attachment: vertices arrive one at a time and attach k edges to existing
// vertices chosen proportionally to their current degree (plus one). This
// mirrors the heavy-tailed degree distributions of the social-network
// workloads that motivate the paper.
func PreferentialAttachment(n, k int, r *rng.RNG) *Graph {
	if k < 1 {
		panic("graph: PreferentialAttachment requires k >= 1")
	}
	g := New(n)
	if n < 2 {
		return g
	}
	// targets is a multiset of endpoints; each edge contributes both ends, so
	// sampling uniformly from it is degree-proportional sampling.
	targets := make([]int, 0, 2*k*n)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		attach := k
		if v < k {
			attach = v
		}
		first := len(g.Edges) // v's edges so far are g.Edges[first:], each {v, t}
		for len(g.Edges) < first+attach {
			var t int
			// Mix degree-proportional with uniform to guarantee progress on
			// small target sets.
			if len(targets) > 0 && r.Bernoulli(0.9) {
				t = targets[r.Intn(len(targets))]
			} else {
				t = r.Intn(v)
			}
			if t == v || attached(g.Edges[first:], t) {
				continue
			}
			g.AddEdge(v, t, 1)
			targets = append(targets, v, t)
		}
	}
	return g
}

// attached reports whether one of the edges a vertex has just attached ends
// at t.
func attached(edges []Edge, t int) bool {
	for _, e := range edges {
		if e.V == t {
			return true
		}
	}
	return false
}

// RandomBipartite returns a bipartite graph with left vertices 0..nl-1 and
// right vertices nl..nl+nr-1 and m distinct edges chosen uniformly.
func RandomBipartite(nl, nr, m int, r *rng.RNG) *Graph {
	if nl > math.MaxInt32 || nr > math.MaxInt32 {
		panic("graph: RandomBipartite limited to sides below 2^31")
	}
	maxM := nl * nr
	if m > maxM {
		panic(fmt.Sprintf("graph: RandomBipartite(%d,%d,%d) exceeds %d pairs", nl, nr, m, maxM))
	}
	g := New(nl + nr)
	if m <= 0 {
		return g
	}
	g.Edges = make([]Edge, 0, m)
	if m > maxM/2 {
		idx := r.SampleWithoutReplacement(maxM, m)
		for _, k := range idx {
			g.AddEdge(k/nr, nl+k%nr, 1)
		}
		return g
	}
	seen := rng.NewSet(m)
	generatePairs(r, nl, nr, func() int { return m - len(g.Edges) }, func(l, rt int) {
		if !seen.Add(uint64(l*nr + rt + 1)) {
			g.AddEdge(l, nl+rt, 1)
		}
	})
	return g
}

// Star returns a star on n vertices centred at vertex 0.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v, 1)
	}
	return g
}

// Path returns a path 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, 1)
	}
	return g
}

// Cycle returns a cycle on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	g := Path(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v, 1)
		}
	}
	return g
}

// PlantClique adds a clique on k uniformly chosen vertices to g (skipping
// pairs already joined) and returns the planted vertex set. Used by the
// maximal-clique experiments.
func PlantClique(g *Graph, k int, r *rng.RNG) []int {
	if k > g.N {
		panic("graph: PlantClique k > n")
	}
	vs := r.SampleWithoutReplacement(g.N, k)
	// The adjacency as it is before planting: AddEdge below only marks it
	// stale, and no planted pair is looked up twice.
	g.Build()
	start, nbr := g.adjStart, g.adjNbr
	joined := make([]int32, g.N) // joined[w] == i+1: w is a neighbour of vs[i]
	for i, u := range vs {
		for _, w := range nbr[start[u]:start[u+1]] {
			joined[w] = int32(i + 1)
		}
		for _, v := range vs[i+1:] {
			if joined[v] != int32(i+1) {
				lo, hi := minmax(u, v)
				g.AddEdge(lo, hi, 1)
			}
		}
	}
	return vs
}

// Grid returns an r-by-c grid graph (4-neighbour).
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				g.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < rows {
				g.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}
