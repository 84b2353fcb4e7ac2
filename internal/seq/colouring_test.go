package seq

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestGreedyVertexColouringProper(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(30)
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		g := graph.GNM(n, m, r)
		col := GreedyVertexColouring(g, nil)
		if !graph.IsProperVertexColouring(g, col) {
			t.Fatalf("trial %d: improper colouring", trial)
		}
		if nc := graph.NumColours(col); nc > g.MaxDegree()+1 {
			t.Fatalf("trial %d: %d colours > delta+1 = %d", trial, nc, g.MaxDegree()+1)
		}
	}
}

func TestGreedyVertexColouringCustomOrder(t *testing.T) {
	g := graph.Cycle(4)
	col := GreedyVertexColouring(g, []int{3, 2, 1, 0})
	if !graph.IsProperVertexColouring(g, col) {
		t.Fatal("improper")
	}
	if graph.NumColours(col) > 2 {
		t.Fatalf("C4 should 2-colour greedily in this order: %v", col)
	}
}

// TestGreedyVertexColouringOfMatchesInduced checks GreedyVertexColouringOf
// against the copy it replaces. Each graph holds parallel edges and a
// self-loop. Its vertices are split into κ random groups, and the groups
// are coloured one after another into one shared slice, as colourGroups
// colours them, in ascending or shuffled order; a group's entries hold 0
// before its call, as colourGroups' fresh slice does. Each group's colours
// must equal GreedyVertexColouring run on the induced copy in the same
// order, the returned degree must be the copy's maximum degree, and entries
// of groups not yet coloured keep a sentinel.
func TestGreedyVertexColouringOfMatchesInduced(t *testing.T) {
	const sentinel = -7
	r := rng.New(53)
	for i := 0; i < 4; i++ {
		n := 30 + 30*i
		g := graph.Density(n, 0.4, r.Split())
		for k := 0; k < 10; k++ {
			e := g.Edges[r.Intn(g.M())]
			g.AddEdge(e.V, e.U, e.W)
		}
		v := r.Intn(n)
		g.Edges = append(g.Edges, graph.Edge{U: v, V: v, W: 1})
		g.Invalidate()
		for _, kappa := range []int{1, 2, 5} {
			for _, shuffled := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/kappa=%d/shuffled=%v", n, kappa, shuffled)
				group := make([]int, n)
				members := make([][]int, kappa)
				for v := range group {
					group[v] = r.Intn(kappa)
					members[group[v]] = append(members[group[v]], v)
				}
				colour := make([]int, n)
				for v := range colour {
					colour[v] = sentinel
				}
				for grp, vs := range members {
					var ids []int
					for id, e := range g.Edges {
						if group[e.U] == grp && group[e.V] == grp {
							ids = append(ids, id)
						}
					}
					sub, toLocal := induced(g, vs, ids)
					order := append([]int(nil), vs...)
					if shuffled {
						r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					}
					localOrder := make([]int, len(order))
					for k, v := range order {
						localOrder[k] = int(toLocal[v])
						colour[v] = 0
					}
					want := GreedyVertexColouring(sub, localOrder)
					maxDeg := GreedyVertexColouringOf(g, order, group, grp, colour)
					if maxDeg != sub.MaxDegree() {
						t.Fatalf("%s group %d: degree %d, copy's %d", name, grp, maxDeg, sub.MaxDegree())
					}
					for v, c := range colour {
						switch {
						case group[v] == grp && c != want[toLocal[v]]:
							t.Fatalf("%s group %d: vertex %d coloured %d, copy %d", name, grp, v, c, want[toLocal[v]])
						case group[v] > grp && c != sentinel:
							t.Fatalf("%s group %d: vertex %d outside the order written (%d)", name, grp, v, c)
						}
					}
				}
			}
		}
	}
}

// induced builds the subgraph of g induced by members (ascending vertex
// ids) from the edges ids among them, with compacted vertex ids. It returns
// the subgraph and the old→new vertex id map, -1 for a vertex outside
// members.
func induced(g *graph.Graph, members, ids []int) (*graph.Graph, []int32) {
	toLocal := make([]int32, g.N)
	for v := range toLocal {
		toLocal[v] = -1
	}
	for local, v := range members {
		toLocal[v] = int32(local)
	}
	sub := graph.New(len(members))
	sub.Edges = make([]graph.Edge, len(ids))
	for k, id := range ids {
		e := g.Edges[id]
		sub.Edges[k] = graph.Edge{U: int(toLocal[e.U]), V: int(toLocal[e.V]), W: e.W}
	}
	return sub, toLocal
}

func TestMisraGriesSmallKnown(t *testing.T) {
	// A triangle has delta=2 and chromatic index 3 = delta+1.
	g := graph.Cycle(3)
	col := MisraGries(g)
	if !graph.IsProperEdgeColouring(g, col) {
		t.Fatal("triangle: improper")
	}
	if nc := graph.NumColours(col); nc != 3 {
		t.Fatalf("triangle needs exactly 3 colours, used %d", nc)
	}
}

func TestMisraGriesStar(t *testing.T) {
	// A star's edges all share the centre: needs exactly delta colours.
	g := graph.Star(6)
	col := MisraGries(g)
	if !graph.IsProperEdgeColouring(g, col) {
		t.Fatal("star: improper")
	}
	if nc := graph.NumColours(col); nc != 5 {
		t.Fatalf("star K1,5 needs 5 colours, used %d", nc)
	}
}

func TestMisraGriesSkewedUsesSparseIndex(t *testing.T) {
	// A large hub makes the flat (vertex, colour) slab Θ(n·∆) = Θ(n²), so
	// MisraGries must take the sparse per-vertex-map index path and still
	// produce a proper ≤ ∆+1 colouring.
	g := skewedHub()
	col := MisraGries(g)
	if !graph.IsProperEdgeColouring(g, col) {
		t.Fatal("skewed: improper colouring")
	}
	if nc := graph.NumColours(col); nc > g.MaxDegree()+1 {
		t.Fatalf("skewed: %d colours exceeds ∆+1 = %d", nc, g.MaxDegree()+1)
	}
}

// skewedHub is a star with a ring of extra edges: one hub makes the flat
// (vertex, colour) slab Θ(n·∆) = Θ(n²), so MisraGries must take the sparse
// per-vertex-map index path.
func skewedHub() *graph.Graph {
	g := graph.Star(400) // n=400, ∆=399: 400·400 slots >> 8·(n+2m)
	for v := 1; v+1 < g.N; v += 2 {
		g.AddEdge(v, v+1, 1) // so ∆+1 is not forced tight
	}
	return g
}

// TestMisraGriesOfMatchesSubgraph checks MisraGriesOf against the copy it
// replaces. The id lists are one random group of the edges, listed as
// colourGroups collects them (machine by machine, each machine's edges as
// its stride, so not ascending) or shuffled. The colours must equal
// MisraGries run on a graph on g's vertices that holds copies of those
// edges (TestPinnedResults pins those colours); entries outside the list keep a sentinel;
// the returned degree is the copy's maximum degree. The hub graph's groups
// take the sparse index, the dense graphs' the flat one.
func TestMisraGriesOfMatchesSubgraph(t *testing.T) {
	const sentinel = -7
	for _, cell := range misraGriesOfCells() {
		name, g, ids := cell.name, cell.g, cell.ids
		sub := graph.New(g.N)
		for _, id := range ids {
			e := g.Edges[id]
			sub.AddEdge(e.U, e.V, e.W)
		}
		want := MisraGries(sub)
		colour := make([]int, g.M())
		for id := range colour {
			colour[id] = sentinel
		}
		maxDeg := MisraGriesOf(g, ids, colour)
		if maxDeg != sub.MaxDegree() {
			t.Fatalf("%s: degree %d, copy's %d", name, maxDeg, sub.MaxDegree())
		}
		sparse := g.N*(maxDeg+3) > 8*(g.N+2*len(ids))+1024
		if sparse != strings.HasPrefix(name, "hub/") {
			t.Fatalf("%s: sparse index %v", name, sparse)
		}
		in := make([]bool, g.M())
		for k, id := range ids {
			in[id] = true
			if colour[id] != want[k] {
				t.Fatalf("%s: edge %d coloured %d, copy %d", name, id, colour[id], want[k])
			}
		}
		for id, c := range colour {
			if !in[id] && c != sentinel {
				t.Fatalf("%s: edge %d outside the list written (%d)", name, id, c)
			}
		}
	}
}

// regular returns a d-regular circulant graph on n vertices (d even).
func regular(n, d int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for k := 1; k <= d/2; k++ {
			g.AddEdge(v, (v+k)%n, 1)
		}
	}
	return g
}

func TestMisraGriesAllocsBounded(t *testing.T) {
	// The result and MisraGriesOf's two slabs are allocated once per call
	// (3 allocations today), so ten times the edges at equal ∆ must stay
	// under the same small constant.
	const limit = 8
	for _, n := range []int{200, 2000} {
		g := regular(n, 20) // m = 10n
		g.Build()
		if allocs := testing.AllocsPerRun(10, func() { MisraGries(g) }); allocs > limit {
			t.Errorf("m=%d: %v allocations per call, want <= %d", g.M(), allocs, limit)
		}
	}
}

func TestMisraGriesEmptyAndSingle(t *testing.T) {
	if col := MisraGries(graph.New(3)); len(col) != 0 {
		t.Fatal("empty graph")
	}
	g := graph.Path(2)
	col := MisraGries(g)
	if len(col) != 1 {
		t.Fatal("single edge")
	}
}

func TestMisraGriesVizingBoundRandom(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(25)
		maxM := n * (n - 1) / 2
		m := r.Intn(maxM + 1)
		g := graph.GNM(n, m, r)
		col := MisraGries(g)
		if !graph.IsProperEdgeColouring(g, col) {
			t.Fatalf("trial %d (n=%d m=%d): improper edge colouring", trial, n, m)
		}
		if nc := graph.NumColours(col); nc > g.MaxDegree()+1 {
			t.Fatalf("trial %d: %d colours > delta+1 = %d", trial, nc, g.MaxDegree()+1)
		}
	}
}

func TestMisraGriesDenseAndStructured(t *testing.T) {
	cases := []*graph.Graph{
		graph.Complete(6),
		graph.Complete(7),
		graph.Grid(4, 5),
		graph.Cycle(9),
		graph.PreferentialAttachment(40, 3, rng.New(34)),
	}
	for i, g := range cases {
		col := MisraGries(g)
		if !graph.IsProperEdgeColouring(g, col) {
			t.Fatalf("case %d: improper", i)
		}
		if nc := graph.NumColours(col); nc > g.MaxDegree()+1 {
			t.Fatalf("case %d: %d > delta+1", i, nc)
		}
	}
}

func TestGreedyMISProperties(t *testing.T) {
	r := rng.New(35)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(25)
		m := min(r.Intn(n*2), n*(n-1)/2)
		g := graph.GNM(n, m, r)
		set := GreedyMIS(g, nil)
		if !graph.IsMaximalIndependentSet(g, set) {
			t.Fatalf("trial %d: not an MIS", trial)
		}
		// Random order variant.
		set2 := GreedyMIS(g, r.Perm(g.N))
		if !graph.IsMaximalIndependentSet(g, set2) {
			t.Fatalf("trial %d: random order not an MIS", trial)
		}
	}
}

func TestGreedyMISSubset(t *testing.T) {
	g := graph.Path(6)
	active := func(v int) bool { return v >= 2 } // restrict to vertices 2..5
	set := GreedyMISSubset(g, active, nil)
	if !graph.IsIndependentSet(g, set) {
		t.Fatal("not independent")
	}
	for v := range set {
		if v < 2 {
			t.Fatal("inactive vertex selected")
		}
	}
	// Maximal within active: every active vertex is in set or adjacent to it.
	for v := 2; v < 6; v++ {
		if set[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if set[int(u)] {
				dominated = true
			}
		}
		if !dominated {
			t.Fatalf("active vertex %d not dominated", v)
		}
	}
}

func TestGreedyMaximalClique(t *testing.T) {
	r := rng.New(36)
	for trial := 0; trial < 30; trial++ {
		g := graph.GNM(12, 30, r)
		cl := GreedyMaximalClique(g, nil)
		if !graph.IsMaximalClique(g, cl) {
			t.Fatalf("trial %d: not a maximal clique: %v", trial, cl)
		}
	}
	// With a seed.
	g := graph.Complete(5)
	cl := GreedyMaximalClique(g, []int{2})
	if len(cl) != 5 {
		t.Fatalf("K5 maximal clique from seed: %v", cl)
	}
	// A parallel edge must not count as two clique members: vertex 3 is
	// joined to 0 twice and to 1, but not to 2. A repeated seed vertex is one
	// member.
	mg := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {0, 2}, {3, 0}, {3, 0}, {3, 1}} {
		mg.AddEdge(e[0], e[1], 1)
	}
	if cl := GreedyMaximalClique(mg, []int{1, 1}); len(cl) != 4 || cl[2] != 0 || cl[3] != 2 {
		t.Fatalf("multigraph clique from seed {1,1}: %v, want [1 1 0 2]", cl)
	}
}
