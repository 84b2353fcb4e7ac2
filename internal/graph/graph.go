// Package graph provides the graph representation, generators, and solution
// validators used throughout the reproduction.
//
// The MapReduce algorithms of Harvey, Liaw and Liu are parameterized by the
// number of vertices n, the edge density exponent c (the graph has m = n^{1+c}
// edges), and the per-machine space exponent µ. The generators in this
// package produce graphs with a prescribed (n, m), which lets the benchmark
// harness sweep exactly the parameters of the paper's Figure 1.
//
// # The CSR-native kernel
//
// Every algorithm in this repository is, per machine, dominated by one
// primitive: scan the neighbours of a vertex and test or accumulate their
// state. Build therefore lays the adjacency out as parallel CSR slabs
// indexed by the same offsets — neighbour vertex ids (int32) and edge
// indices (int32), with edge weights (float64) a third slab filled only on
// first NeighborsW use — so the hot form of that primitive,
// Neighbors(v), is a contiguous int32 slice with no per-edge indirection,
// no Other() branch, and half the memory per endpoint of an int-based
// layout. IncidentEdges(v) remains for the call sites that need edge
// identity (matching and b-matching pair records); its slice is positional
// with Neighbors(v), so `nbrs[i]` is the other endpoint of edge `ids[i]`.
//
// Build itself is parallel on large graphs: per-chunk degree histograms are
// merged in fixed chunk order, so the slab layout is bit-identical for
// every worker count (see SetParallelism).
package graph

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/rng"
)

// Edge is an undirected weighted edge between vertices U and V.
// For unweighted problems the weight is 1.
type Edge struct {
	U, V int
	W    float64
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e. Hot loops should prefer the positional Neighbors slice
// over calling Other per edge.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge (%d,%d)", v, e.U, e.V))
}

// Graph is an undirected weighted multigraph on vertices 0..N-1 stored as an
// edge list with a CSR adjacency index over parallel slabs (neighbour ids
// and edge indices, built by Build; weights, filled by NeighborsW).
// Self-loops are rejected by AddEdge; parallel edges are permitted by the
// representation but the generators never produce them.
type Graph struct {
	N     int
	Edges []Edge

	// CSR adjacency: for vertex v the half-open slab range is
	// adjStart[v]:adjStart[v+1]. The slabs are positional: entry k of the
	// range describes one incident edge — adjNbr[k] is the other endpoint,
	// adjEdge[k] its index into Edges, adjW[k] its weight; a range lists its
	// edges by ascending index. Build fills adjStart, adjNbr and adjEdge.
	// The weight slab is filled on first NeighborsW use, which none of the
	// repository's algorithms make (they read Edges[id].W), so a built heap
	// graph does not hold its 16 B an edge; a container load views or
	// copies the stored adjW section instead.
	adjStart []int32   // len N+1
	adjNbr   []int32   // len 2*len(Edges); neighbour vertex ids
	adjW     []float64 // len 2*len(Edges) once filled; edge weights
	adjEdge  []int32   // len 2*len(Edges); edge indices
	built    bool
	wBuilt   bool

	// backing, when non-nil, is the read-only mmap the slabs (and on
	// matching hosts the edge list) alias. It pins the mapping for the
	// graph's lifetime; see OpenMapped in mmap.go. Mapped graphs are
	// immutable: the in-place mutators panic instead of faulting.
	backing *mapping
}

// Mapped reports whether g's storage aliases a read-only file mapping
// (OpenMapped). Mapped graphs must not be mutated in place.
func (g *Graph) Mapped() bool { return g.backing != nil }

// ResidentBytes returns the heap bytes g's edge list and CSR slabs hold:
// each one's capacity times its element size. A slab or edge list that
// views g's file mapping counts 0 — the page cache holds it, not the heap —
// and the weight slab counts only once something filled it.
func (g *Graph) ResidentBytes() int64 {
	return heapBytes(g, g.Edges) + heapBytes(g, g.adjStart) + heapBytes(g, g.adjNbr) +
		heapBytes(g, g.adjW) + heapBytes(g, g.adjEdge)
}

// heapBytes is one slice's share of ResidentBytes.
func heapBytes[T any](g *Graph, s []T) int64 {
	if g.backing.holds(unsafe.Pointer(unsafe.SliceData(s))) {
		return 0
	}
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// Close releases g's file mapping, if any. After Close every accessor on a
// mapped graph is invalid; callers that share g concurrently must not call
// Close while readers remain (the instance cache instead drops its
// reference and lets the finalizer unmap). Heap graphs ignore Close.
func (g *Graph) Close() error {
	if g.backing == nil {
		return nil
	}
	b := g.backing
	g.backing = nil
	return b.close()
}

// ensureMutable panics when an in-place mutator runs on a mapped graph —
// a clear error instead of a segfault on the read-only pages.
func (g *Graph) ensureMutable() {
	if g.backing != nil {
		panic("graph: cannot mutate a mapped graph (OpenMapped instances are read-only; Clone first)")
	}
}

// checkCSRBounds rejects dimensions whose CSR slab offsets overflow the
// int32 kernel: the half-edge slabs are indexed by int32, so both n and 2m
// must stay below 2^31. Build panics with this error; the decoding paths
// (Decode, ReadContainer, BuildExternal) return it before allocating.
func checkCSRBounds(n, m int) error { return csrBounds(uint64(n), uint64(m)) }

// csrBounds is checkCSRBounds for dimensions read from input, which need not
// fit an int on a 32-bit host. A negative int converts to a value past the
// bounds, so it is refused too (every caller refuses it first).
func csrBounds(n, m uint64) error {
	if n > math.MaxInt32 || m > math.MaxInt32/2 {
		return fmt.Errorf("graph: n=%d m=%d exceeds the int32 CSR kernel (need n <= %d and 2m <= %d)",
			n, m, math.MaxInt32, math.MaxInt32)
	}
	return nil
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{N: n}
}

// AddEdge appends an undirected edge {u,v} with weight w.
// It panics on out-of-range endpoints or self-loops.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.ensureMutable()
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, g.N))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
	g.built = false
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Invalidate marks the CSR index stale, forcing the next accessor to
// rebuild it. Callers that mutate g.Edges directly (endpoints or weights)
// must call it; AddEdge, SortEdges and the Assign*Weights helpers do so
// themselves.
func (g *Graph) Invalidate() { g.built = false }

// Build constructs the CSR adjacency slabs. It is idempotent and called
// automatically by the accessors that need it. It writes g, so callers that
// share g across goroutines call it once before fanning out; after that
// every accessor but NeighborsW only reads. On graphs with at least 2^14
// edges and m ≥ n (the per-chunk histograms cost Θ(chunks·n)) it runs on
// the package's parallel workers (SetParallelism) with a layout
// bit-identical to the sequential pass.
func (g *Graph) Build() {
	if g.built {
		return
	}
	m := len(g.Edges)
	if err := checkCSRBounds(g.N, m); err != nil {
		panic(err)
	}
	workers := parallelism()
	// The parallel path spends Θ(chunks·N) on per-chunk histograms, so it
	// only pays off when the edge count dominates the vertex count; a
	// sparse N ≫ m graph builds faster (and far smaller) sequentially.
	if workers > 1 && m >= buildParallelMin && m >= g.N {
		g.buildParallel(workers)
	} else {
		g.buildSequential()
	}
	g.built = true
	g.wBuilt = false
}

// buildWeights fills the positional weight slab from the edge-index slab.
// NeighborsW is its only caller; like Build it must not race with
// concurrent accessors. The container writer gathers the same bytes from
// the edge list without it.
func (g *Graph) buildWeights() {
	if g.wBuilt {
		return
	}
	if cap(g.adjW) < len(g.adjEdge) {
		g.adjW = make([]float64, len(g.adjEdge))
	} else {
		g.adjW = g.adjW[:len(g.adjEdge)]
	}
	fill := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g.adjW[k] = g.Edges[g.adjEdge[k]].W
		}
	}
	if workers := parallelism(); workers > 1 && len(g.adjEdge) >= buildParallelMin {
		runChunks(chunkRanges(len(g.adjEdge), workers), func(_, lo, hi int) { fill(lo, hi) })
	} else {
		fill(0, len(g.adjEdge))
	}
	g.wBuilt = true
}

func (g *Graph) buildSequential() {
	m := len(g.Edges)
	start := make([]int32, g.N+1)
	for i := range g.Edges {
		e := &g.Edges[i]
		start[e.U+1]++
		start[e.V+1]++
	}
	for v := 0; v < g.N; v++ {
		start[v+1] += start[v]
	}
	g.adjStart = start
	g.adjNbr = make([]int32, 2*m)
	g.adjEdge = make([]int32, 2*m)
	fill := make([]int32, g.N)
	copy(fill, start[:g.N])
	for i := range g.Edges {
		e := &g.Edges[i]
		ku := fill[e.U]
		g.adjNbr[ku] = int32(e.V)
		g.adjEdge[ku] = int32(i)
		fill[e.U] = ku + 1
		kv := fill[e.V]
		g.adjNbr[kv] = int32(e.U)
		g.adjEdge[kv] = int32(i)
		fill[e.V] = kv + 1
	}
}

// buildParallel fills the same slabs as buildSequential using per-chunk
// degree histograms: pass 1 counts each chunk's endpoints per vertex, the
// prefix-sum merge assigns every (chunk, vertex) pair its write base in
// fixed chunk order, and pass 2 lets each chunk scan its own edges again,
// writing into disjoint slots. Within a vertex the slab order is (chunk
// ascending, then in-chunk edge ascending) = global edge index ascending —
// exactly the sequential layout.
func (g *Graph) buildParallel(workers int) {
	m := len(g.Edges)
	bounds := chunkRanges(m, workers)
	chunks := len(bounds) - 1
	counts := make([][]int32, chunks)
	runChunks(bounds, func(chunk, lo, hi int) {
		cnt := make([]int32, g.N)
		for i := lo; i < hi; i++ {
			e := &g.Edges[i]
			cnt[e.U]++
			cnt[e.V]++
		}
		counts[chunk] = cnt
	})
	// Merge: per vertex, convert the chunk counts into chunk write bases and
	// the global adjStart prefix sums.
	start := make([]int32, g.N+1)
	total := int32(0)
	for v := 0; v < g.N; v++ {
		start[v] = total
		for c := 0; c < chunks; c++ {
			base := total
			total += counts[c][v]
			counts[c][v] = base
		}
	}
	start[g.N] = total
	g.adjStart = start
	g.adjNbr = make([]int32, 2*m)
	g.adjEdge = make([]int32, 2*m)
	runChunks(bounds, func(chunk, lo, hi int) {
		fill := counts[chunk]
		for i := lo; i < hi; i++ {
			e := &g.Edges[i]
			ku := fill[e.U]
			g.adjNbr[ku] = int32(e.V)
			g.adjEdge[ku] = int32(i)
			fill[e.U] = ku + 1
			kv := fill[e.V]
			g.adjNbr[kv] = int32(e.U)
			g.adjEdge[kv] = int32(i)
			fill[e.V] = kv + 1
		}
	})
}

// IncidentEdges returns the indices (into g.Edges) of edges incident to v,
// ascending. The returned slice aliases internal storage and must not be
// modified. It is positional with Neighbors(v): entry i of both slices
// describes the same incident edge.
func (g *Graph) IncidentEdges(v int) []int32 {
	g.Build()
	return g.adjEdge[g.adjStart[v]:g.adjStart[v+1]]
}

// Neighbors returns the neighbours of v (with multiplicity for parallel
// edges) as a contiguous slice of vertex ids. The slice aliases internal
// storage and must not be modified. This is the hot neighbour-scan form:
// no edge-id indirection, no Other() branch.
func (g *Graph) Neighbors(v int) []int32 {
	g.Build()
	return g.adjNbr[g.adjStart[v]:g.adjStart[v+1]]
}

// NeighborsW returns the neighbours of v and, positionally, the weights of
// the connecting edges. Both slices alias internal storage and must not be
// modified. The weight slab is filled on first use, which costs 16 B an
// edge and writes g. It is not part of a shared instance: the service
// builds instances without it, and the algorithms read Edges[id].W. A
// caller that owns g and shares it across goroutines calls NeighborsW once
// before fanning out, the same contract as Build.
func (g *Graph) NeighborsW(v int) ([]int32, []float64) {
	g.Build()
	g.buildWeights()
	lo, hi := g.adjStart[v], g.adjStart[v+1]
	return g.adjNbr[lo:hi], g.adjW[lo:hi]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.Build()
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Degrees returns the degree sequence.
func (g *Graph) Degrees() []int {
	g.Build()
	d := make([]int, g.N)
	for v := range d {
		d[v] = int(g.adjStart[v+1] - g.adjStart[v])
	}
	return d
}

// MaxDegree returns the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	g.Build()
	max := 0
	for v := 0; v < g.N; v++ {
		if d := int(g.adjStart[v+1] - g.adjStart[v]); d > max {
			max = d
		}
	}
	return max
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, e := range g.Edges {
		s += e.W
	}
	return s
}

// DensityExponent returns c such that m = n^{1+c}, the paper's density
// parameter. Returns 0 for graphs with fewer than 2 vertices or no edges.
func (g *Graph) DensityExponent() float64 {
	if g.N < 2 || len(g.Edges) == 0 {
		return 0
	}
	return math.Log(float64(len(g.Edges)))/math.Log(float64(g.N)) - 1
}

// Clone returns a deep copy of g (without the adjacency index).
func (g *Graph) Clone() *Graph {
	h := New(g.N)
	h.Edges = append([]Edge(nil), g.Edges...)
	return h
}

// SortEdges sorts the edge list lexicographically by (min endpoint, max
// endpoint, weight). Used to make serialized graphs deterministic.
func (g *Graph) SortEdges() {
	g.ensureMutable()
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		au, av := minmax(a.U, a.V)
		bu, bv := minmax(b.U, b.V)
		if au != bu {
			return au < bu
		}
		if av != bv {
			return av < bv
		}
		return a.W < b.W
	})
	g.built = false
}

func minmax(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

// VertexSet converts a []bool membership bitmap into the map[int]bool shape
// the validators and public results use. The map is pre-sized to the exact
// member count, so assembly does a single allocation and no rehash growth.
func VertexSet(bits []bool) map[int]bool {
	count := 0
	for _, b := range bits {
		if b {
			count++
		}
	}
	set := make(map[int]bool, count)
	for v, b := range bits {
		if b {
			set[v] = true
		}
	}
	return set
}

// AssignUniformWeights overwrites every edge weight with a uniform draw from
// [lo, hi) and invalidates the CSR weight slab (endpoints are untouched, so
// the adjacency slabs stay valid).
func (g *Graph) AssignUniformWeights(r *rng.RNG, lo, hi float64) {
	g.ensureMutable()
	for i := range g.Edges {
		g.Edges[i].W = r.UniformWeight(lo, hi)
	}
	g.wBuilt = false
}

// AssignUnitWeights sets every edge weight to 1 and invalidates the CSR
// weight slab (endpoints are untouched, so the adjacency slabs stay valid).
func (g *Graph) AssignUnitWeights() {
	g.ensureMutable()
	for i := range g.Edges {
		g.Edges[i].W = 1
	}
	g.wBuilt = false
}
