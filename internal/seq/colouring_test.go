package seq

import (
	"fmt"
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

func TestMisraGriesMatchesClassic(t *testing.T) {
	cases := map[string]*graph.Graph{
		"star":   graph.Star(40),
		"skewed": skewedHub(),
		"grid":   graph.Grid(7, 9),
		"pa":     graph.PreferentialAttachment(120, 4, rng.New(40)),
	}
	// A dense near-clique: K_40 minus a perfect matching's worth of edges.
	near := graph.New(40)
	for u := 0; u < near.N; u++ {
		for v := u + 1; v < near.N; v++ {
			if u/2 != v/2 {
				near.AddEdge(u, v, 1)
			}
		}
	}
	cases["near-clique"] = near
	r := rng.New(41)
	for i := 0; i < 36; i++ {
		n := 30 + 40*(i%6)
		c := 0.15 + 0.1*float64(i%5)
		cases[fmt.Sprintf("density-%d(n=%d,c=%.2f)", i, n, c)] = graph.Density(n, c, r.Split())
	}
	for name, g := range cases {
		want := misraGriesClassic(g)
		got := MisraGries(g)
		if len(got) != len(want) {
			t.Fatalf("%s: %d colours for %d edges", name, len(got), len(want))
		}
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("%s: edge %d coloured %d, classic %d", name, id, got[id], want[id])
			}
		}
		if !graph.IsProperEdgeColouring(g, got) {
			t.Fatalf("%s: improper", name)
		}
	}
}

// TestMisraGriesOfMatchesSubgraph checks MisraGriesOf against the copy it
// replaces. The id lists are one random group of the edges, listed as
// colourGroups collects them (machine by machine, each machine's edges as
// its stride, so not ascending) or shuffled. The colours must equal
// MisraGries, and the classic oracle, run on a graph on g's vertices that
// holds copies of those edges; entries outside the list keep a sentinel;
// the returned degree is the copy's maximum degree. The hub graph's groups
// take the sparse index, the dense graphs' the flat one.
func TestMisraGriesOfMatchesSubgraph(t *testing.T) {
	const sentinel = -7
	r := rng.New(47)
	// skewedHub's shape at 150 vertices: every group still takes the sparse
	// index, at a tenth of the cost under the race detector.
	hub := graph.Star(150)
	for v := 1; v+1 < hub.N; v += 2 {
		hub.AddEdge(v, v+1, 1)
	}
	cases := map[string]*graph.Graph{"hub": hub}
	for i := 0; i < 4; i++ {
		n := 40 + 30*i
		cases[fmt.Sprintf("density-%d(n=%d)", i, n)] = graph.Density(n, 0.4, r.Split())
	}
	for name, g := range cases {
		for trial := 0; trial < 4; trial++ {
			kappa, machines := 2-trial%2, 2+r.Intn(6)
			group := make([]int, g.M())
			for id := range group {
				group[id] = r.Intn(kappa)
			}
			var ids []int
			for machine := 1; machine < machines; machine++ {
				for id := machine - 1; id < g.M(); id += machines - 1 {
					if group[id] == 0 {
						ids = append(ids, id)
					}
				}
			}
			if trial >= 2 {
				r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			sub := graph.New(g.N)
			for _, id := range ids {
				e := g.Edges[id]
				sub.AddEdge(e.U, e.V, e.W)
			}
			want, classic := MisraGries(sub), misraGriesClassic(sub)
			colour := make([]int, g.M())
			for id := range colour {
				colour[id] = sentinel
			}
			maxDeg := MisraGriesOf(g, ids, colour)
			if maxDeg != sub.MaxDegree() {
				t.Fatalf("%s trial %d: degree %d, copy's %d", name, trial, maxDeg, sub.MaxDegree())
			}
			sparse := g.N*(maxDeg+3) > 8*(g.N+2*len(ids))+1024
			if sparse != (name == "hub") {
				t.Fatalf("%s trial %d: sparse index %v", name, trial, sparse)
			}
			in := make([]bool, g.M())
			for k, id := range ids {
				in[id] = true
				if colour[id] != want[k] || colour[id] != classic[k] {
					t.Fatalf("%s trial %d: edge %d coloured %d, copy %d, classic %d",
						name, trial, id, colour[id], want[k], classic[k])
				}
			}
			for id, c := range colour {
				if !in[id] && c != sentinel {
					t.Fatalf("%s trial %d: edge %d outside the list written (%d)", name, trial, id, c)
				}
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
		m := r.Intn(n * 2)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
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

// misraGriesClassic is the MisraGries body as it stood before the
// allocation-free rewrite, kept verbatim as the oracle: closures over a
// (vertex, colour) index, a map per fan, fresh slices per path and rotation.
// The production function must return the same colour for every edge.
func misraGriesClassic(g *graph.Graph) []int {
	g.Build()
	maxC := g.MaxDegree() + 1
	if g.M() == 0 {
		return []int{}
	}
	colour := make([]int, g.M()) // 0 = uncoloured; valid colours 1..maxC
	// The (vertex, colour) index stores edge id + 1 for the edge coloured c
	// at v, 0 when the colour is free. On near-regular graphs it is a flat
	// slab (at[v*stride+c]) — direct indexing, no hashing. A flat slab is
	// Θ(n·∆) though, which a skewed degree sequence (one hub) can blow up
	// to Θ(n²), so when the slab would exceed a constant factor of the
	// graph's own size the index falls back to lazy per-vertex maps. Both
	// layouts answer identical queries, so the colouring is the same.
	stride := maxC + 1
	var flat []int32
	var sparse []map[int]int32
	if g.N*stride <= 8*(g.N+2*g.M())+1024 {
		flat = make([]int32, g.N*stride)
	} else {
		sparse = make([]map[int]int32, g.N)
	}
	atGet := func(v, c int) int32 {
		if flat != nil {
			return flat[v*stride+c]
		}
		return sparse[v][c] // nil map reads as 0
	}
	atPut := func(v, c int, id int32) {
		if flat != nil {
			flat[v*stride+c] = id
			return
		}
		if id == 0 {
			delete(sparse[v], c)
			return
		}
		if sparse[v] == nil {
			sparse[v] = make(map[int]int32)
		}
		sparse[v][c] = id
	}

	isFree := func(v, c int) bool { return atGet(v, c) == 0 }
	edgeAt := func(v, c int) (int, bool) {
		id := atGet(v, c)
		return int(id) - 1, id != 0
	}
	freeColour := func(v int) int {
		for c := 1; c <= maxC; c++ {
			if atGet(v, c) == 0 {
				return c
			}
		}
		panic("seq: no free colour; degree exceeds maxC-1")
	}
	setColour := func(id, c int) {
		e := g.Edges[id]
		if old := colour[id]; old != 0 {
			atPut(e.U, old, 0)
			atPut(e.V, old, 0)
		}
		colour[id] = c
		if c != 0 {
			atPut(e.U, c, int32(id)+1)
			atPut(e.V, c, int32(id)+1)
		}
	}

	// makeFan builds a maximal fan of u starting at v: a sequence of distinct
	// neighbours F[0]=v, F[1], ... such that edge (u,F[i+1]) is coloured with
	// a colour free on F[i].
	makeFan := func(u, v int) []int {
		fan := []int{v}
		inFan := map[int]bool{v: true}
		ids := g.IncidentEdges(u)
		nbrs := g.Neighbors(u)
		for {
			last := fan[len(fan)-1]
			extended := false
			for i, id := range ids {
				w := int(nbrs[i])
				if inFan[w] || colour[id] == 0 {
					continue
				}
				if isFree(last, colour[id]) {
					fan = append(fan, w)
					inFan[w] = true
					extended = true
					break
				}
			}
			if !extended {
				return fan
			}
		}
	}

	// invertPath walks the cd-path from u (u has d used, c free) and swaps
	// the two colours along it.
	invertPath := func(u, c, d int) {
		var path []int
		cur, col := u, d
		for {
			id, ok := edgeAt(cur, col)
			if !ok {
				break
			}
			path = append(path, id)
			cur = g.Edges[id].Other(cur)
			if col == d {
				col = c
			} else {
				col = d
			}
		}
		// Two phases: uncolour the whole path first, then apply the swapped
		// colours. Doing it in one pass would transiently register two edges
		// under the same (vertex, colour) key and corrupt the index.
		swapped := make([]int, len(path))
		for i, id := range path {
			if colour[id] == c {
				swapped[i] = d
			} else {
				swapped[i] = c
			}
			setColour(id, 0)
		}
		for i, id := range path {
			setColour(id, swapped[i])
		}
	}

	// rotateFan shifts colours along the fan prefix F[0..w] and colours the
	// last edge d.
	rotateFan := func(u int, fan []int, w, d int) {
		nbrs := g.Neighbors(u)
		edgeTo := func(x int) int {
			for i, nb := range nbrs {
				if int(nb) == x {
					// Prefer the edge currently carrying the fan colour; for
					// simple graphs any incident edge to x is unique.
					return int(g.IncidentEdges(u)[i])
				}
			}
			panic("seq: fan vertex not adjacent")
		}
		// Collect the shift first, uncolour, then assign: assigning in place
		// would transiently give two edges at u the same colour and corrupt
		// the (vertex, colour) index.
		ids := make([]int, w+1)
		for i := 0; i <= w; i++ {
			ids[i] = edgeTo(fan[i])
		}
		newCol := make([]int, w+1)
		for i := 0; i < w; i++ {
			newCol[i] = colour[ids[i+1]]
		}
		newCol[w] = d
		for _, id := range ids {
			setColour(id, 0)
		}
		for i, id := range ids {
			if newCol[i] != 0 {
				setColour(id, newCol[i])
			}
		}
	}

	for id := range g.Edges {
		if colour[id] != 0 {
			continue
		}
		u, v := g.Edges[id].U, g.Edges[id].V
		for attempt := 0; ; attempt++ {
			if attempt > 2*g.N+10 {
				panic(fmt.Sprintf("seq: MisraGries failed to colour edge %d", id))
			}
			fan := makeFan(u, v)
			c := freeColour(u)
			d := freeColour(fan[len(fan)-1])
			if c != d && !isFree(u, d) {
				invertPath(u, c, d)
			}
			// After the inversion d is free on u. Find a prefix F[0..w] that
			// is still a fan (colours may have changed) with d free on F[w].
			w := -1
			for i := range fan {
				if i > 0 {
					// Prefix validity: colour of (u, fan[i]) must be free on
					// fan[i-1].
					ci := 0
					uIDs := g.IncidentEdges(u)
					for k, nb := range g.Neighbors(u) {
						if int(nb) == fan[i] {
							ci = colour[uIDs[k]]
							break
						}
					}
					if ci == 0 || !isFree(fan[i-1], ci) {
						break
					}
				}
				if isFree(fan[i], d) {
					w = i
					break
				}
			}
			if w < 0 {
				// The inversion disturbed the fan; rebuild and retry (the
				// Misra–Gries invariants guarantee progress).
				continue
			}
			rotateFan(u, fan, w, d)
			break
		}
	}

	out := make([]int, g.M())
	for id, c := range colour {
		if c == 0 {
			panic("seq: MisraGries left an edge uncoloured")
		}
		out[id] = c - 1
	}
	return out
}
