package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// normPair orders a vertex pair as (min, max) for the duplicate checks in
// this package's tests.
func normPair(u, v int) [2]int {
	u, v = minmax(u, v)
	return [2]int{u, v}
}

func TestNewAndAddEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 1.0)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.Edges[0].W != 2.5 {
		t.Fatalf("weight = %v", g.Edges[0].W)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"self-loop", func() { New(3).AddEdge(1, 1, 1) }},
		{"out of range", func() { New(3).AddEdge(0, 3, 1) }},
		{"negative", func() { New(3).AddEdge(-1, 0, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-endpoint")
		}
	}()
	e.Other(5)
}

func TestAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	if d := g.Degree(0); d != 2 {
		t.Fatalf("deg(0) = %d", d)
	}
	if d := g.Degree(3); d != 1 {
		t.Fatalf("deg(3) = %d", d)
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
	set := map[int32]bool{nb[0]: true, nb[1]: true}
	if !set[1] || !set[2] {
		t.Fatalf("neighbors(0) = %v, want {1,2}", nb)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("maxdeg = %d", g.MaxDegree())
	}
}

func TestAdjacencyRebuildAfterAdd(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if g.Degree(0) != 1 {
		t.Fatal("deg before")
	}
	g.AddEdge(0, 2, 1)
	if g.Degree(0) != 2 {
		t.Fatal("adjacency not rebuilt after AddEdge")
	}
}

func TestDegreeSumEqualsTwiceM(t *testing.T) {
	r := rng.New(1)
	g := GNM(50, 200, r)
	sum := 0
	for _, d := range g.Degrees() {
		sum += d
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m %d", sum, 2*g.M())
	}
}

func TestGNMProperties(t *testing.T) {
	r := rng.New(2)
	for _, tc := range []struct{ n, m int }{{10, 0}, {10, 45}, {10, 20}, {100, 1000}, {5, 10}} {
		g := GNM(tc.n, tc.m, r)
		if g.N != tc.n || g.M() != tc.m {
			t.Fatalf("GNM(%d,%d): got n=%d m=%d", tc.n, tc.m, g.N, g.M())
		}
		seen := make(map[[2]int]bool)
		for _, e := range g.Edges {
			if e.U == e.V {
				t.Fatal("self loop")
			}
			p := normPair(e.U, e.V)
			if seen[p] {
				t.Fatalf("duplicate edge %v", p)
			}
			seen[p] = true
		}
	}
}

func TestGNMPanicsOnTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GNM(4, 7, rng.New(1))
}

func TestPairFromIndex(t *testing.T) {
	// Enumerate all pairs for small n and verify bijection.
	n := 20
	seen := make(map[[2]int]bool)
	for k := 0; k < n*(n-1)/2; k++ {
		u, v := pairFromIndex(k)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("pairFromIndex(%d) = (%d,%d)", k, u, v)
		}
		p := [2]int{u, v}
		if seen[p] {
			t.Fatalf("duplicate pair %v at k=%d", p, k)
		}
		seen[p] = true
	}
}

func TestDensityExponent(t *testing.T) {
	r := rng.New(3)
	n, c := 100, 0.3
	g := Density(n, c, r)
	got := g.DensityExponent()
	if math.Abs(got-c) > 0.05 {
		t.Fatalf("density exponent %v, want ~%v", got, c)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	r := rng.New(4)
	g := PreferentialAttachment(200, 3, r)
	if g.N != 200 {
		t.Fatal("n wrong")
	}
	// Every vertex v >= 3 attaches exactly 3 edges; v in {1,2} attach v.
	want := 0
	for v := 1; v < 200; v++ {
		k := 3
		if v < 3 {
			k = v
		}
		want += k
	}
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatal("self loop")
		}
	}
	// Heavy tail: max degree should exceed average by a lot.
	avg := 2 * float64(g.M()) / float64(g.N)
	if float64(g.MaxDegree()) < 2*avg {
		t.Fatalf("max degree %d not heavy-tailed vs avg %v", g.MaxDegree(), avg)
	}
}

func TestRandomBipartite(t *testing.T) {
	r := rng.New(5)
	g := RandomBipartite(10, 15, 60, r)
	if g.N != 25 || g.M() != 60 {
		t.Fatalf("n=%d m=%d", g.N, g.M())
	}
	for _, e := range g.Edges {
		l, rt := e.U, e.V
		if l > rt {
			l, rt = rt, l
		}
		if l >= 10 || rt < 10 {
			t.Fatalf("edge (%d,%d) not bipartite", e.U, e.V)
		}
	}
	// Dense branch.
	g2 := RandomBipartite(4, 4, 15, r)
	if g2.M() != 15 {
		t.Fatal("dense bipartite wrong m")
	}
}

func TestFixedFamilies(t *testing.T) {
	if g := Star(5); g.M() != 4 || g.Degree(0) != 4 {
		t.Fatal("star")
	}
	if g := Path(5); g.M() != 4 || g.MaxDegree() != 2 {
		t.Fatal("path")
	}
	if g := Cycle(5); g.M() != 5 || g.MaxDegree() != 2 {
		t.Fatal("cycle")
	}
	if g := Complete(5); g.M() != 10 || g.MaxDegree() != 4 {
		t.Fatal("complete")
	}
	if g := Grid(3, 4); g.N != 12 || g.M() != 3*3+2*4 {
		t.Fatalf("grid m=%d", Grid(3, 4).M())
	}
}

func TestPlantClique(t *testing.T) {
	r := rng.New(6)
	g := GNM(50, 100, r)
	vs := PlantClique(g, 8, r)
	if len(vs) != 8 {
		t.Fatal("planted size")
	}
	if !IsClique(g, vs) {
		t.Fatal("planted set is not a clique")
	}
	// No duplicate edges introduced.
	seen := make(map[[2]int]bool)
	for _, e := range g.Edges {
		p := normPair(e.U, e.V)
		if seen[p] {
			t.Fatalf("duplicate edge %v", p)
		}
		seen[p] = true
	}
}

func TestWeights(t *testing.T) {
	r := rng.New(7)
	g := GNM(20, 50, r)
	g.AssignUniformWeights(r, 2, 5)
	for _, e := range g.Edges {
		if e.W < 2 || e.W >= 5 {
			t.Fatalf("weight %v out of range", e.W)
		}
	}
	g.AssignUnitWeights()
	if g.TotalWeight() != 50 {
		t.Fatal("unit weights")
	}
}

func TestClone(t *testing.T) {
	g := Path(4)
	h := g.Clone()
	h.AddEdge(0, 3, 1)
	if g.M() == h.M() {
		t.Fatal("clone shares edge slice")
	}
}

func TestSortEdgesDeterministic(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 0, 1)
	g.SortEdges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	for i, e := range g.Edges {
		if got := normPair(e.U, e.V); got != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got, want[i])
		}
	}
}

func TestValidatorsMatching(t *testing.T) {
	g := Path(4) // edges 0:(0,1) 1:(1,2) 2:(2,3)
	if !IsMatching(g, []int{0, 2}) {
		t.Fatal("0,2 should match")
	}
	if IsMatching(g, []int{0, 1}) {
		t.Fatal("0,1 share vertex 1")
	}
	if IsMatching(g, []int{0, 0}) {
		t.Fatal("duplicate edge")
	}
	if IsMatching(g, []int{5}) {
		t.Fatal("out of range")
	}
	if !IsMaximalMatching(g, []int{1}) {
		t.Fatal("{(1,2)} is maximal in P4")
	}
	if IsMaximalMatching(g, []int{0}) {
		t.Fatal("{(0,1)} is not maximal: (2,3) free")
	}
	if w := MatchingWeight(g, []int{0, 2}); w != 2 {
		t.Fatalf("weight %v", w)
	}
}

func TestValidatorsBMatching(t *testing.T) {
	g := Star(4) // edges 0:(0,1) 1:(0,2) 2:(0,3)
	b2 := func(v int) int { return 2 }
	if !IsBMatching(g, []int{0, 1}, b2) {
		t.Fatal("2 edges at centre allowed with b=2")
	}
	if IsBMatching(g, []int{0, 1, 2}, b2) {
		t.Fatal("3 edges at centre violates b=2")
	}
	b1 := func(v int) int { return 1 }
	if IsBMatching(g, []int{0, 1}, b1) {
		t.Fatal("b=1 must reduce to matching")
	}
}

func TestValidatorsVertexCover(t *testing.T) {
	g := Path(4)
	if !IsVertexCover(g, map[int]bool{1: true, 2: true}) {
		t.Fatal("{1,2} covers P4")
	}
	if IsVertexCover(g, map[int]bool{0: true, 3: true}) {
		t.Fatal("{0,3} misses edge (1,2)")
	}
	w := []float64{1, 2, 3, 4}
	if cw := CoverWeight(map[int]bool{1: true, 3: true}, w); cw != 6 {
		t.Fatalf("cover weight %v", cw)
	}
}

func TestValidatorsMIS(t *testing.T) {
	g := Path(4)
	if !IsIndependentSet(g, map[int]bool{0: true, 2: true}) {
		t.Fatal("{0,2} independent")
	}
	if IsIndependentSet(g, map[int]bool{0: true, 1: true}) {
		t.Fatal("{0,1} not independent")
	}
	if !IsMaximalIndependentSet(g, map[int]bool{0: true, 2: true}) {
		t.Fatal("{0,2} maximal? vertex 3 adjacent to 2: yes")
	}
	if IsMaximalIndependentSet(g, map[int]bool{0: true}) {
		t.Fatal("{0} not maximal (2 or 3 free)")
	}
	if !IsMaximalIndependentSet(g, map[int]bool{1: true, 3: true}) {
		t.Fatal("{1,3} is an MIS")
	}
}

func TestValidatorsClique(t *testing.T) {
	g := Complete(4)
	if !IsMaximalClique(g, []int{0, 1, 2, 3}) {
		t.Fatal("K4 full set")
	}
	if IsMaximalClique(g, []int{0, 1}) {
		t.Fatal("{0,1} extendable in K4")
	}
	p := Path(3)
	if !IsMaximalClique(p, []int{0, 1}) {
		t.Fatal("edge is a maximal clique in P3")
	}
	if IsClique(p, []int{0, 2}) {
		t.Fatal("{0,2} not adjacent in P3")
	}
	if IsClique(p, []int{0, 0}) {
		t.Fatal("duplicate vertex")
	}
}

// TestCliqueValidatorsMatchMatrix checks IsClique and IsMaximalClique, which
// count joined members through the neighbour lists, against the definition
// read off an adjacency matrix — on multigraphs too (a parallel edge must
// not count twice), with repeated and out-of-range vertices in the set.
func TestCliqueValidatorsMatchMatrix(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(9)
		g := New(n)
		adj := make([][]bool, n)
		for v := range adj {
			adj[v] = make([]bool, n)
		}
		for i := r.Intn(3 * n); i > 0 && n > 1; i-- {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1) // repeats make parallel edges
				adj[u][v], adj[v][u] = true, true
			}
		}
		set := r.SampleWithoutReplacement(n, r.Intn(n+1))
		switch r.Intn(8) {
		case 0:
			set = append(set, n+r.Intn(2)) // not a vertex
		case 1:
			if len(set) > 0 {
				set = append(set, set[0])
			}
		}
		clique := true
		in := make([]bool, n+2)
		for i, u := range set {
			clique = clique && u < n && !in[u]
			in[u] = true
			for _, v := range set[:i] {
				clique = clique && u < n && v < n && adj[u][v]
			}
		}
		maximal := clique
		for v := 0; v < n && maximal; v++ {
			extends := !in[v]
			for _, u := range set {
				extends = extends && adj[u][v]
			}
			maximal = !extends
		}
		if got := IsClique(g, set); got != clique {
			t.Fatalf("trial %d: IsClique(%v) = %v on %v, want %v", trial, set, got, g.Edges, clique)
		}
		if got := IsMaximalClique(g, set); got != maximal {
			t.Fatalf("trial %d: IsMaximalClique(%v) = %v on %v, want %v", trial, set, got, g.Edges, maximal)
		}
	}
}

func TestValidatorsColouring(t *testing.T) {
	g := Cycle(4)
	if !IsProperVertexColouring(g, []int{0, 1, 0, 1}) {
		t.Fatal("2-colouring of C4")
	}
	if IsProperVertexColouring(g, []int{0, 0, 1, 1}) {
		t.Fatal("monochromatic edge")
	}
	if IsProperVertexColouring(g, []int{0, 1}) {
		t.Fatal("wrong length")
	}
	if NumColours([]int{0, 1, 0, 1}) != 2 {
		t.Fatal("NumColours")
	}
	// Edge colouring of a path: alternate.
	p := Path(3)
	if !IsProperEdgeColouring(p, []int{0, 1}) {
		t.Fatal("P3 edge colouring")
	}
	if IsProperEdgeColouring(p, []int{0, 0}) {
		t.Fatal("shared vertex, same colour")
	}
}

// isProperEdgeColouringRef is the map-based validator IsProperEdgeColouring
// replaced, kept as the reference the hash-free pass must agree with.
func isProperEdgeColouringRef(g *Graph, colour []int) bool {
	if len(colour) != len(g.Edges) {
		return false
	}
	seen := make(map[[2]int]bool) // (vertex, colour)
	for id, e := range g.Edges {
		c := colour[id]
		ku := [2]int{e.U, c}
		kv := [2]int{e.V, c}
		if seen[ku] || seen[kv] {
			return false
		}
		seen[ku] = true
		seen[kv] = true
	}
	return true
}

// greedyEdgeColouring gives every edge the smallest colour unused at both
// endpoints: proper by construction, independent of internal/seq.
func greedyEdgeColouring(g *Graph) []int {
	used := make([]map[int]bool, g.N)
	for v := range used {
		used[v] = make(map[int]bool)
	}
	colour := make([]int, g.M())
	for id, e := range g.Edges {
		c := 0
		for used[e.U][c] || used[e.V][c] {
			c++
		}
		colour[id] = c
		used[e.U][c], used[e.V][c] = true, true
	}
	return colour
}

func TestIsProperEdgeColouringMatchesReference(t *testing.T) {
	// Injective relabellings: a proper colouring stays proper under each,
	// whatever the sign or size of the labels.
	relabel := map[string]func(c int) int{
		"identity": func(c int) int { return c },
		"negative": func(c int) int { return -1 - 3*c },
		"near-max": func(c int) int { return math.MaxInt - c },
		"near-min": func(c int) int { return math.MinInt + c },
		"mixed": func(c int) int {
			if c%2 == 0 {
				return math.MaxInt - c
			}
			return math.MinInt + c
		},
	}
	check := func(name string, g *Graph, colour []int, want bool) {
		t.Helper()
		got, ref := IsProperEdgeColouring(g, colour), isProperEdgeColouringRef(g, colour)
		if got != ref || got != want {
			t.Fatalf("%s: got %v, reference %v, want %v", name, got, ref, want)
		}
	}
	r := rng.New(13)
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(40)
		g := GNM(n, n+r.Intn(n*(n-1)/2-n+1), r)
		base := greedyEdgeColouring(g)
		for name, f := range relabel {
			colour := make([]int, len(base))
			for id, c := range base {
				colour[id] = f(c)
			}
			check(name, g, colour, true)
			check(name+"/short", g, colour[:len(colour)-1], false)
			check(name+"/long", g, append(colour[:len(colour):len(colour)], 0), false)

			// Recolour one edge to clash with a neighbouring edge at its U
			// endpoint, then at its V endpoint.
			for _, atU := range []bool{true, false} {
				id := r.Intn(g.M())
				end := g.Edges[id].V
				if atU {
					end = g.Edges[id].U
				}
				for _, other := range g.IncidentEdges(end) {
					if int(other) != id {
						clash := append([]int(nil), colour...)
						clash[id] = colour[other]
						check(name+"/clash", g, clash, false)
						break
					}
				}
			}
		}
	}

	// Edge lists written directly may hold what AddEdge refuses. A lone
	// self-loop is one edge at its vertex, not a clash with itself; parallel
	// edges clash unless coloured apart.
	loop := New(3)
	loop.Edges = []Edge{{U: 1, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 1, W: 1}}
	check("self-loop", loop, []int{0, 1, 2}, true)
	check("self-loop/clash", loop, []int{0, 1, 0}, false)
	multi := New(2)
	multi.Edges = []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}}
	check("parallel", multi, []int{4, 5}, true)
	check("parallel/clash", multi, []int{4, 4}, false)
	check("empty", New(3), nil, true)
}

// TestEdgeColouringValidatorPaths holds both paths of IsProperEdgeColouring
// to the map reference on one table: proper colourings, every single-edge
// mutation of them, parallel edges, self-loops, and palettes shifted
// negative or spread wide. properByStamp runs on every row whose span fits
// (max − min < m); the rest must take properByClass.
func TestEdgeColouringValidatorPaths(t *testing.T) {
	type row struct {
		name   string
		g      *Graph
		colour []int
	}
	var rows []row
	add := func(name string, g *Graph, colour []int) {
		rows = append(rows, row{name, g, colour})
	}
	r := rng.New(29)
	for trial := 0; trial < 12; trial++ {
		n := 6 + r.Intn(30)
		g := GNM(n, n+r.Intn(n*(n-1)/2-n+1), r)
		base := greedyEdgeColouring(g)
		for _, pal := range []struct {
			name string
			f    func(c int) int
		}{
			{"greedy", func(c int) int { return c }},
			{"negative", func(c int) int { return c - 1000 }},
			{"huge", func(c int) int { return math.MinInt + c*(math.MaxInt>>10) }},
		} {
			colour := make([]int, len(base))
			for id, c := range base {
				colour[id] = pal.f(c)
			}
			name := fmt.Sprintf("%s-%d", pal.name, trial)
			add(name, g, colour)
			// Each edge takes its successor's colour, then a fresh one.
			for id := range colour {
				for _, c := range []int{colour[(id+1)%len(colour)], pal.f(len(colour))} {
					mutant := append([]int(nil), colour...)
					mutant[id] = c
					add(fmt.Sprintf("%s/edge-%d=%d", name, id, c), g, mutant)
				}
			}
		}
	}
	// Edge lists written directly may hold what AddEdge refuses.
	multi := New(3)
	multi.Edges = []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}, {U: 1, V: 2, W: 1}}
	add("parallel", multi, []int{3, 4, 5})
	add("parallel/shared", multi, []int{3, 3, 4})
	loop := New(3)
	loop.Edges = []Edge{{U: 1, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}}
	add("self-loop", loop, []int{0, 1, 2, 0})
	add("self-loop/clash", loop, []int{0, 1, 0, 3})
	loops := New(2)
	loops.Edges = []Edge{{U: 1, V: 1, W: 1}, {U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 1}}
	add("two-loops", loops, []int{-2, -1, 0})
	add("two-loops/shared", loops, []int{-2, -1, -2})

	stamped, proper := 0, 0
	for _, tc := range rows {
		want := isProperEdgeColouringRef(tc.g, tc.colour)
		if got := IsProperEdgeColouring(tc.g, tc.colour); got != want {
			t.Fatalf("%s: IsProperEdgeColouring %v, reference %v", tc.name, got, want)
		}
		if got := properByClass(tc.g, tc.colour); got != want {
			t.Fatalf("%s: properByClass %v, reference %v", tc.name, got, want)
		}
		if lo, span := colourSpan(tc.colour); span < uint(len(tc.colour)) {
			if got := properByStamp(tc.g, tc.colour, lo, span); got != want {
				t.Fatalf("%s: properByStamp %v, reference %v", tc.name, got, want)
			}
			stamped++
		}
		if want {
			proper++
		}
	}
	if stamped == 0 || stamped == len(rows) || proper == 0 || proper == len(rows) {
		t.Fatalf("%d rows: %d on the stamp path, %d proper; want both paths and both answers", len(rows), stamped, proper)
	}
}

func TestNumColours(t *testing.T) {
	for _, tc := range []struct {
		colour []int
		want   int
	}{
		{nil, 0},
		{[]int{}, 0},
		{[]int{7}, 1},
		{[]int{3, 3, 3, 3}, 1},
		{[]int{0, 1, 0, 1}, 2},
		{[]int{5, 4, 3, 2, 1, 0}, 6},
		{[]int{-1, -1, 0, -2, math.MinInt, math.MaxInt, math.MaxInt}, 5},
	} {
		in := append([]int(nil), tc.colour...)
		if got := NumColours(tc.colour); got != tc.want {
			t.Errorf("NumColours(%v) = %d, want %d", tc.colour, got, tc.want)
		}
		for i := range in {
			if tc.colour[i] != in[i] {
				t.Fatalf("NumColours reordered its input: %v, was %v", tc.colour, in)
			}
		}
	}
}

// TestNumColoursPaths checks NumColours' two counters against each other
// and against a map: the bitmap over [min, max], taken when max − min <
// len, and the radix order, taken otherwise. Every input whose span fits a
// small bitmap runs through both; the MinInt/MaxInt mixes, whose span
// overflows int, can only be counted through the radix order, so NumColours
// must take it there.
func TestNumColoursPaths(t *testing.T) {
	inputs := [][]int{
		{},
		{0},
		{-5},
		{math.MinInt},
		{math.MaxInt},
		{4, 4, 4, 4},
		{-3, -3, -3},
		{-1, -7, -3, -7, -1},
		{math.MinInt, math.MaxInt},
		{math.MaxInt, 0, math.MinInt, math.MaxInt, math.MinInt},
		{math.MinInt, -1, 0, math.MinInt + 1},
		{math.MaxInt - 1, math.MaxInt, math.MaxInt},
		{math.MinInt + 1, math.MinInt, math.MinInt},
		{10, 11, 12, 13},    // span len−1
		{10, 12, 13, 14},    // span len
		{-2, 1, -2, -1},     // span len−1, negative
		{-2, 2, -2, -1},     // span len, negative
		{0, 64, 63, 1},      // a bitmap word boundary, span > len
		{0, 127, 64, 63, 1}, // two words
	}
	r := rng.New(17)
	for i := 0; i < 300; i++ {
		k := 1 + r.Intn(80)
		lo := r.Intn(2001) - 1000
		span := r.Intn(2 * k) // about half the spans are below k
		if i%3 == 0 {
			span = k - 1 + i%2 // exactly len−1 or len
		}
		colour := make([]int, k)
		for j := range colour {
			colour[j] = lo + r.Intn(span+1)
		}
		colour[r.Intn(k)] = lo + span // the span is exact
		colour[r.Intn(k)] = lo
		inputs = append(inputs, colour)
	}
	for _, colour := range inputs {
		distinct := map[int]bool{}
		for _, c := range colour {
			distinct[c] = true
		}
		want := len(distinct)
		if got := NumColours(colour); got != want {
			t.Errorf("NumColours(%v) = %d, want %d", colour, got, want)
		}
		if got := numColoursSorted(colour); got != want {
			t.Errorf("numColoursSorted(%v) = %d, want %d", colour, got, want)
		}
		if len(colour) == 0 {
			continue
		}
		lo, hi := slices.Min(colour), slices.Max(colour)
		if span := uint(hi) - uint(lo); span < 1<<16 {
			if got := numColoursBitmap(colour, lo, span); got != want {
				t.Errorf("numColoursBitmap(%v) = %d, want %d", colour, got, want)
			}
		}
	}
}

func TestQuickGNMNoDupes(t *testing.T) {
	r := rng.New(11)
	f := func(a, b uint8) bool {
		n := int(a%30) + 2
		maxM := n * (n - 1) / 2
		m := int(b) % (maxM + 1)
		g := GNM(n, m, r)
		if g.M() != m {
			return false
		}
		seen := make(map[[2]int]bool)
		for _, e := range g.Edges {
			p := normPair(e.U, e.V)
			if seen[p] || e.U == e.V {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSum(t *testing.T) {
	r := rng.New(12)
	f := func(a uint8) bool {
		n := int(a%40) + 2
		m := n // sparse
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := GNM(n, m, r)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
