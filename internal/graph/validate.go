package graph

// This file contains solution validators: pure functions that check whether a
// proposed solution is feasible for its problem. Every MapReduce algorithm in
// internal/core is tested against these, so they are written for clarity and
// independence from the solvers (no shared helper logic that could hide a
// common bug).

// IsMatching reports whether the edge indices in sel form a matching in g:
// no two selected edges share an endpoint, and every index is valid and
// distinct.
func IsMatching(g *Graph, sel []int) bool {
	used := make([]bool, g.N)
	seen := make([]bool, len(g.Edges))
	for _, id := range sel {
		if id < 0 || id >= len(g.Edges) || seen[id] {
			return false
		}
		seen[id] = true
		e := g.Edges[id]
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true
}

// IsMaximalMatching reports whether sel is a matching that cannot be extended
// by any edge of g.
func IsMaximalMatching(g *Graph, sel []int) bool {
	if !IsMatching(g, sel) {
		return false
	}
	used := make([]bool, g.N)
	for _, id := range sel {
		used[g.Edges[id].U] = true
		used[g.Edges[id].V] = true
	}
	for _, e := range g.Edges {
		if !used[e.U] && !used[e.V] {
			return false
		}
	}
	return true
}

// MatchingWeight returns the total weight of the selected edges.
func MatchingWeight(g *Graph, sel []int) float64 {
	w := 0.0
	for _, id := range sel {
		w += g.Edges[id].W
	}
	return w
}

// IsBMatching reports whether sel is a b-matching: each vertex v is covered
// by at most b(v) selected edges.
func IsBMatching(g *Graph, sel []int, b func(v int) int) bool {
	load := make([]int, g.N)
	seen := make([]bool, len(g.Edges))
	for _, id := range sel {
		if id < 0 || id >= len(g.Edges) || seen[id] {
			return false
		}
		seen[id] = true
		e := g.Edges[id]
		load[e.U]++
		load[e.V]++
		if load[e.U] > b(e.U) || load[e.V] > b(e.V) {
			return false
		}
	}
	return true
}

// IsVertexCover reports whether the vertex set covers every edge of g.
func IsVertexCover(g *Graph, cover map[int]bool) bool {
	for _, e := range g.Edges {
		if !cover[e.U] && !cover[e.V] {
			return false
		}
	}
	return true
}

// CoverWeight returns the total weight of a vertex set under w.
func CoverWeight(cover map[int]bool, w []float64) float64 {
	s := 0.0
	for v, in := range cover {
		if in {
			s += w[v]
		}
	}
	return s
}

// IsIndependentSet reports whether no edge of g has both endpoints in set.
func IsIndependentSet(g *Graph, set map[int]bool) bool {
	for _, e := range g.Edges {
		if set[e.U] && set[e.V] {
			return false
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is independent and every vertex
// outside it has a neighbour inside it. The map is converted to a bitmap
// once up front so the per-edge and per-neighbour tests are slice loads,
// not map lookups.
func IsMaximalIndependentSet(g *Graph, set map[int]bool) bool {
	in := make([]bool, g.N)
	for v, ok := range set {
		if ok && v >= 0 && v < g.N {
			in[v] = true
		}
	}
	for _, e := range g.Edges {
		if in[e.U] && in[e.V] {
			return false
		}
	}
	g.Build()
	for v := 0; v < g.N; v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsClique reports whether every pair of vertices in set is joined in g.
func IsClique(g *Graph, set []int) bool {
	joined, _ := joinedMembers(g, set)
	if joined == nil {
		return false
	}
	for _, v := range set {
		if int(joined[v]) != len(set)-1 {
			return false
		}
	}
	return true
}

// IsMaximalClique reports whether set is a clique and no vertex outside set
// is adjacent to all of set.
func IsMaximalClique(g *Graph, set []int) bool {
	joined, in := joinedMembers(g, set)
	if joined == nil {
		return false
	}
	for v, c := range joined {
		if in[v] && int(c) != len(set)-1 || !in[v] && int(c) == len(set) {
			return false
		}
	}
	return true
}

// joinedMembers counts, for every vertex of g, the members of set it is
// joined to, by scanning the members' neighbour lists — O(Σ deg) over the
// set instead of a table of all edges. last[u] names the latest member that
// counted u, so a parallel edge counts once. in marks the members; both
// results are nil when set repeats a vertex or names one that g lacks.
func joinedMembers(g *Graph, set []int) (joined []int32, in []bool) {
	in = make([]bool, g.N)
	for _, v := range set {
		if v < 0 || v >= g.N || in[v] {
			return nil, nil
		}
		in[v] = true
	}
	joined = make([]int32, g.N)
	last := make([]int32, g.N)
	for i, v := range set {
		for _, u := range g.Neighbors(v) {
			if last[u] != int32(i+1) {
				last[u] = int32(i + 1)
				joined[u]++
			}
		}
	}
	return joined, in
}

// IsProperVertexColouring reports whether colour assigns every vertex a
// colour and no edge is monochromatic.
func IsProperVertexColouring(g *Graph, colour []int) bool {
	if len(colour) != g.N {
		return false
	}
	for _, e := range g.Edges {
		if colour[e.U] == colour[e.V] {
			return false
		}
	}
	return true
}

// IsProperEdgeColouring reports whether colour assigns every edge a colour
// and no two edges sharing a vertex have the same colour: every colour class
// must be a matching. A palette whose span max − min is below len(colour)
// (NumColours' guard) is checked vertex by vertex, by properByStamp; a
// wider one, class by class, by properByClass.
func IsProperEdgeColouring(g *Graph, colour []int) bool {
	if len(colour) != len(g.Edges) {
		return false
	}
	if len(colour) == 0 {
		return true
	}
	lo, span := colourSpan(colour)
	if span >= uint(len(colour)) {
		return properByClass(g, colour)
	}
	return properByStamp(g, colour, lo, span)
}

// properByStamp checks a palette lying in [lo, lo+span] over g's incidence
// lists: seenAt[c − lo] holds v + 1 once colour c is met at v. A self-loop
// holds its colour at its vertex once, so its second incidence entry, which
// follows the first, is skipped.
func properByStamp(g *Graph, colour []int, lo int, span uint) bool {
	seenAt := make([]int32, span+1)
	g.Build()
	for v := 0; v < g.N; v++ {
		ids, stamp := g.IncidentEdges(v), int32(v+1)
		for k, id := range ids {
			if k > 0 && id == ids[k-1] {
				continue
			}
			c := uint(colour[id]) - uint(lo)
			if seenAt[c] == stamp {
				return false
			}
			seenAt[c] = stamp
		}
	}
	return true
}

// properByClass is IsProperEdgeColouring for any palette: the classes are
// taken one at a time from groupByColour, and seenAt[v] names the last class
// met at v, so any int is a colour and nothing is hashed.
func properByClass(g *Graph, colour []int) bool {
	seenAt := make([]int, g.N)
	class, last := 0, 0
	for _, id := range groupByColour(colour) {
		if c := colour[id]; class == 0 || c != last {
			class, last = class+1, c
		}
		e := &g.Edges[id]
		if seenAt[e.U] == class || seenAt[e.V] == class {
			return false
		}
		seenAt[e.U], seenAt[e.V] = class, class
	}
	return true
}

// NumColours returns the number of distinct colours used. A palette whose
// span max − min is below len(colour) is counted in a bitmap over
// [min, max]; a wider one, through groupByColour.
func NumColours(colour []int) int {
	if len(colour) == 0 {
		return 0
	}
	if lo, span := colourSpan(colour); span < uint(len(colour)) {
		return numColoursBitmap(colour, lo, span)
	}
	return numColoursSorted(colour)
}

// colourSpan returns the smallest colour of a non-empty palette and the
// span max − min, as a uint: the span can exceed MaxInt, which an int would
// read as negative.
func colourSpan(colour []int) (lo int, span uint) {
	lo, hi := colour[0], colour[0]
	for _, c := range colour {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, uint(hi) - uint(lo)
}

// numColoursBitmap counts the distinct colours of a palette lying in
// [lo, lo+span] with one bit per colour of the span.
func numColoursBitmap(colour []int, lo int, span uint) int {
	seen := make([]uint64, span/64+1)
	distinct := 0
	for _, c := range colour {
		b := uint(c) - uint(lo)
		if w, bit := b/64, uint64(1)<<(b%64); seen[w]&bit == 0 {
			seen[w] |= bit
			distinct++
		}
	}
	return distinct
}

// numColoursSorted counts the distinct colours of any palette by walking
// groupByColour's order.
func numColoursSorted(colour []int) int {
	distinct, last := 0, 0
	for _, pos := range groupByColour(colour) {
		if c := colour[pos]; distinct == 0 || c != last {
			distinct, last = distinct+1, c
		}
	}
	return distinct
}

// groupByColour returns the positions of colour ordered so that equal
// colours are adjacent and, within a colour, positions ascend. It is a
// byte-wise LSD radix sort that skips the bytes all colours agree on: two
// passes for a palette below 65536, eight when negative and huge colours
// mix, and no comparison or hash of a colour either way.
func groupByColour(colour []int) []int {
	cur := make([]int, len(colour))
	var differ uint64
	for pos, c := range colour {
		cur[pos] = pos
		differ |= uint64(c) ^ uint64(colour[0])
	}
	next := make([]int, len(colour))
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var start [257]int // start[b+1] counts byte b, then start[b] is where b goes
		for _, c := range colour {
			start[uint64(c)>>shift&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, pos := range cur {
			b := uint64(colour[pos]) >> shift & 0xff
			next[start[b]] = pos
			start[b]++
		}
		cur, next = next, cur
	}
	return cur
}
