package seq

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// GreedyVertexColouring colours vertices in the given order (or 0..n-1 when
// order is nil) with the smallest colour unused among coloured neighbours.
// It uses at most ∆+1 colours; colours are 0-based, and a vertex outside
// order keeps −1. This is the "standard (∆_i + 1)-vertex colouring
// algorithm" each central machine runs in Algorithm 5. It is
// GreedyVertexColouringOf with every neighbour counted.
func GreedyVertexColouring(g *graph.Graph, order []int) []int {
	colour := make([]int, g.N)
	for v := range colour {
		colour[v] = -1
	}
	if order == nil {
		order = make([]int, g.N)
		for v := range order {
			order[v] = v
		}
	}
	GreedyVertexColouringOf(g, order, nil, 0, colour)
	return colour
}

// GreedyVertexColouringOf colours the vertices of order, in that order,
// exactly as GreedyVertexColouring colours the subgraph of g they induce,
// reading g's own index. order lists the vertices x with group[x] == grp,
// and a neighbour u counts only if group[u] == grp; with group nil every
// neighbour counts, and colour must be negative outside order. It first
// sets colour[v] = −1 for every v in order, so a neighbour is coloured when
// colour[u] ≥ 0, and it writes nothing outside order: disjoint groups of a
// built g can be coloured concurrently. It returns the subgraph's maximum
// degree, counting the index entries that pass the filter, as the
// subgraph's MaxDegree counts parallel edges and self-loops.
func GreedyVertexColouringOf(g *graph.Graph, order, group []int, grp int, colour []int) (maxDeg int) {
	for _, v := range order {
		colour[v] = -1
	}
	// usedAt[c] == step marks colour c as used by the current vertex's
	// neighbours; the stamp replaces a per-vertex map. A vertex has at most
	// len(order)−1 distinct coloured neighbours in the subgraph, so the
	// greedy rule needs at most len(order)+1 palette slots.
	usedAt := make([]int32, len(order)+1)
	for i := range usedAt {
		usedAt[i] = -1
	}
	for step, v := range order {
		deg := 0
		for _, u := range g.Neighbors(v) {
			if group != nil && group[u] != grp {
				continue
			}
			deg++
			if cu := colour[u]; cu >= 0 {
				usedAt[cu] = int32(step)
			}
		}
		maxDeg = max(maxDeg, deg)
		c := 0
		for usedAt[c] == int32(step) {
			c++
		}
		colour[v] = c
	}
	return maxDeg
}

// MisraGries edge-colours the simple graph g with at most ∆+1 colours
// (Vizing's bound), following the constructive algorithm of Misra and Gries
// (1992), which is the subroutine Remark 6.5 uses to colour each edge group.
// Colours are 0-based in the returned slice (internally 1..∆+1). It runs in
// O(nm) time. It is MisraGriesOf over every edge of g, in id order.
func MisraGries(g *graph.Graph) []int {
	// The result doubles as the identity id list.
	colour := make([]int, g.M())
	for id := range colour {
		colour[id] = id
	}
	MisraGriesOf(g, colour, colour)
	return colour
}

// MisraGriesOf edge-colours the subgraph of g formed by the edges ids, in
// that order, exactly as MisraGries colours a graph on g's vertices that
// holds copies of those edges. It writes colour[id] for every id in ids and
// nothing else, so disjoint id lists can be coloured concurrently, and it
// never builds g's own index: endpoints are read from g.Edges once. It
// returns the subgraph's maximum degree. The colours are copied out in list
// order, each id read just before its colour is written, so colour may be
// ids itself when ids[j] = j.
//
// The working state is local and int32, carved from two allocations: the
// endpoints as pairs, an incidence index built by one counting pass in id
// list order (the layout Graph.Build gives the copy), one colour per listed
// edge, copied out at the end, and the (vertex, colour) index.
func MisraGriesOf(g *graph.Graph, ids, colour []int) (maxDeg int) {
	n, k := g.N, len(ids)
	if k == 0 {
		return 0
	}
	slab := make([]int32, 5*k+2*n+1)
	s := misraGries{
		ends:   slab[:2*k],
		adj:    slab[2*k : 4*k],
		colour: slab[4*k : 5*k], // 0 = uncoloured; valid colours 1..maxC
		inFan:  slab[5*k : 5*k+n],
		start:  slab[5*k+n:],
	}
	for j, id := range ids {
		e := &g.Edges[id]
		s.ends[2*j], s.ends[2*j+1] = int32(e.U), int32(e.V)
		s.start[e.U+1]++
		s.start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, int(s.start[v+1]))
		s.start[v+1] += s.start[v]
	}
	// inFan is zero until the first fan, so it serves as the fill cursor.
	fill := s.inFan
	for j := range k {
		u, v := s.ends[2*j], s.ends[2*j+1]
		s.adj[s.start[u]+fill[u]] = int32(j)
		fill[u]++
		s.adj[s.start[v]+fill[v]] = int32(j)
		fill[v]++
	}
	clear(fill)

	s.maxC = maxDeg + 1
	s.stride = s.maxC + 1
	// The (vertex, colour) index stores local edge id + 1 for the edge
	// coloured c at v, 0 when the colour is free. On near-regular graphs it
	// is a flat slab (flat[v*stride+c]) — direct indexing, no hashing. A flat
	// slab is Θ(n·∆) though, which a skewed degree sequence (one hub) can
	// blow up to Θ(n²), so when the slab would exceed a constant factor of
	// the subgraph's own size the index falls back to lazy per-vertex maps.
	// Both layouts answer identical queries, so the colouring is the same.
	flat := n*s.stride <= 8*(n+2*k)+1024
	index := 2 * s.maxC
	if flat {
		index += n * s.stride
	} else {
		s.sparse = make([]map[int]int32, n)
	}
	index32 := make([]int32, index)
	s.fan, s.fanEdge = index32[:0:s.maxC], index32[s.maxC:s.maxC:2*s.maxC]
	if flat {
		s.flat = index32[2*s.maxC:]
	}

	for j := range k {
		u, v := int(s.ends[2*j]), int(s.ends[2*j+1])
		for attempt := 0; ; attempt++ {
			if attempt > 2*n+10 {
				panic(fmt.Sprintf("seq: MisraGries failed to colour edge %d", ids[j]))
			}
			s.makeFan(u, v, j)
			c := s.freeColour(u)
			d := s.freeColour(int(s.fan[len(s.fan)-1]))
			if c != d && s.at(u, d) != 0 {
				s.invertPath(u, c, d)
			}
			// After the inversion d is free on u. Find a prefix F[0..w] that
			// is still a fan (colours may have changed) with d free on F[w].
			if w := s.fanPrefix(d); w >= 0 {
				s.rotateFan(u, w, d)
				break
			}
			// The inversion disturbed the fan; rebuild and retry (the
			// Misra–Gries invariants guarantee progress).
		}
	}

	for j, id := range ids {
		c := s.colour[j]
		if c == 0 {
			panic("seq: MisraGries left an edge uncoloured")
		}
		colour[id] = int(c) - 1
	}
	return maxDeg
}

// misraGries is the working state of one MisraGriesOf call. It is per call,
// never shared: edge groups are coloured concurrently under Cluster.Exec().
// Edges are local ids 0..k−1, positions in the call's id list.
type misraGries struct {
	// Local edge j joins ends[2j] and ends[2j+1]; the local edges at v are
	// adj[start[v]:start[v+1]], ascending.
	ends, start, adj []int32
	colour           []int32 // per local edge
	maxC             int

	// The (vertex, colour) → local edge id + 1 index: exactly one of flat
	// and sparse is non-nil.
	stride int
	flat   []int32
	sparse []map[int]int32

	// The current fan of u: vertices F[0], F[1], ... and, positionally, the
	// edges (u, F[i]). inFan[x] == epoch marks x as a member; bumping the
	// epoch empties the set without touching the array.
	fan, fanEdge []int32
	inFan        []int32
	epoch        int32
}

// at returns the id + 1 of the edge coloured c at v, 0 when c is free on v.
func (s *misraGries) at(v, c int) int32 {
	if s.flat != nil {
		return s.flat[v*s.stride+c]
	}
	return s.sparse[v][c] // nil map reads as 0
}

// put records edge id (as id + 1; 0 frees the slot) as the edge coloured c
// at v.
func (s *misraGries) put(v, c int, id int32) {
	if s.flat != nil {
		s.flat[v*s.stride+c] = id
		return
	}
	switch {
	case id == 0:
		delete(s.sparse[v], c)
	case s.sparse[v] == nil:
		s.sparse[v] = map[int]int32{c: id}
	default:
		s.sparse[v][c] = id
	}
}

func (s *misraGries) freeColour(v int) int {
	for c := 1; c <= s.maxC; c++ {
		if s.at(v, c) == 0 {
			return c
		}
	}
	panic("seq: no free colour; degree exceeds maxC-1")
}

// makeFan builds a maximal fan of u starting at v, the other endpoint of the
// uncoloured edge id: a sequence of distinct neighbours F[0]=v, F[1], ...
// such that edge (u,F[i+1]) is coloured with a colour free on F[i].
func (s *misraGries) makeFan(u, v, id int) {
	if s.epoch == math.MaxInt32 {
		clear(s.inFan)
		s.epoch = 0
	}
	s.epoch++
	s.fan = append(s.fan[:0], int32(v))
	s.fanEdge = append(s.fanEdge[:0], int32(id))
	s.inFan[v] = s.epoch
	adj, u32 := s.adj[s.start[u]:s.start[u+1]], int32(u)
	for last := v; ; {
		extended := false
		for _, e := range adj {
			// Read the far end only for a coloured edge: the later edges at
			// u are still uncoloured.
			ce := int(s.colour[e])
			if ce == 0 {
				continue
			}
			w := s.ends[2*e] ^ s.ends[2*e+1] ^ u32
			if s.inFan[w] == s.epoch {
				continue
			}
			if s.at(last, ce) == 0 {
				s.fan = append(s.fan, w)
				s.fanEdge = append(s.fanEdge, e)
				s.inFan[w] = s.epoch
				last, extended = int(w), true
				break
			}
		}
		if !extended {
			return
		}
	}
}

// fanPrefix returns the first w such that F[0..w] is still a fan — the
// colour of (u,F[i]) is free on F[i-1] for every 0 < i ≤ w — and d is free
// on F[w]; -1 if the fan breaks before any such w.
func (s *misraGries) fanPrefix(d int) int {
	for i, x := range s.fan {
		if i > 0 && s.at(int(s.fan[i-1]), int(s.colour[s.fanEdge[i]])) != 0 {
			return -1
		}
		if s.at(int(x), d) == 0 {
			return i
		}
	}
	return -1
}

// invertPath swaps colours c and d along the cd-path from u, which has d
// used and c free. The walk recolours as it goes: before an edge's new
// colour is written over its far endpoint's slot, the path's next edge is
// read out of that slot, so every interior vertex ends with its two slots
// exchanged and only the two ends of the path need a slot freed.
func (s *misraGries) invertPath(u, c, d int) {
	cur, col, other := u, d, c
	id := s.at(u, d)
	s.put(u, d, 0)
	for id != 0 {
		next := int(s.ends[2*id-2] ^ s.ends[2*id-1] ^ int32(cur))
		nextID := s.at(next, other)
		s.colour[id-1] = int32(other)
		s.put(cur, other, id)
		s.put(next, other, id)
		if nextID == 0 {
			s.put(next, col, 0)
		}
		cur, col, other, id = next, other, col, nextID
	}
}

// rotateFan shifts colours down the fan prefix F[0..w] — edge (u,F[i])
// takes the colour of (u,F[i+1]), which fanPrefix found free on F[i] — and
// colours the last edge d. The pass runs front to back so each colour is
// read before its edge is recoloured; u's slots need no freeing, since its
// colour set only gains d.
func (s *misraGries) rotateFan(u, w, d int) {
	for i := 0; i <= w; i++ {
		x, id := int(s.fan[i]), s.fanEdge[i]
		if old := int(s.colour[id]); old != 0 {
			s.put(x, old, 0)
		}
		nc := d
		if i < w {
			nc = int(s.colour[s.fanEdge[i+1]])
		}
		s.colour[id] = int32(nc)
		s.put(x, nc, id+1)
		s.put(u, nc, id+1)
	}
}
