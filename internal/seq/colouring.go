package seq

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// GreedyVertexColouring colours vertices in the given order (or 0..n-1 when
// order is nil) with the smallest colour unused among coloured neighbours.
// It uses at most ∆+1 colours; colours are 0-based. This is the "standard
// (∆_i + 1)-vertex colouring algorithm" each central machine runs in
// Algorithm 5.
func GreedyVertexColouring(g *graph.Graph, order []int) []int {
	if order == nil {
		order = make([]int, g.N)
		for v := range order {
			order[v] = v
		}
	}
	colour := make([]int, g.N)
	for i := range colour {
		colour[i] = -1
	}
	// usedAt[c] == step marks colour c as used by the current vertex's
	// neighbours; the stamp replaces a per-vertex map and the greedy rule
	// needs at most ∆+1 ≤ n palette slots.
	usedAt := make([]int, g.N+1)
	for i := range usedAt {
		usedAt[i] = -1
	}
	for step, v := range order {
		for _, u := range g.Neighbors(v) {
			if cu := colour[u]; cu >= 0 {
				usedAt[cu] = step
			}
		}
		c := 0
		for usedAt[c] == step {
			c++
		}
		colour[v] = c
	}
	return colour
}

// MisraGries edge-colours the simple graph g with at most ∆+1 colours
// (Vizing's bound), following the constructive algorithm of Misra and Gries
// (1992), which is the subroutine Remark 6.5 uses to colour each edge group.
// Colours are 0-based in the returned slice (internally 1..∆+1). It runs in
// O(nm) time and, on the flat index, allocates a constant number of times:
// the result, the index, and one fan scratch reused for every edge.
func MisraGries(g *graph.Graph) []int {
	g.Build()
	m := g.M()
	if m == 0 {
		return []int{}
	}
	maxC := g.MaxDegree() + 1
	s := misraGries{
		g:       g,
		colour:  make([]int, m), // 0 = uncoloured; valid colours 1..maxC
		maxC:    maxC,
		stride:  maxC + 1,
		inFan:   make([]int32, g.N),
		fan:     make([]int32, 0, maxC),
		fanEdge: make([]int32, 0, maxC),
	}
	// The (vertex, colour) index stores edge id + 1 for the edge coloured c
	// at v, 0 when the colour is free. On near-regular graphs it is a flat
	// slab (flat[v*stride+c]) — direct indexing, no hashing. A flat slab is
	// Θ(n·∆) though, which a skewed degree sequence (one hub) can blow up
	// to Θ(n²), so when the slab would exceed a constant factor of the
	// graph's own size the index falls back to lazy per-vertex maps. Both
	// layouts answer identical queries, so the colouring is the same.
	if g.N*s.stride <= 8*(g.N+2*m)+1024 {
		s.flat = make([]int32, g.N*s.stride)
	} else {
		s.sparse = make([]map[int]int32, g.N)
	}

	for id, e := range g.Edges {
		u, v := e.U, e.V
		for attempt := 0; ; attempt++ {
			if attempt > 2*g.N+10 {
				panic(fmt.Sprintf("seq: MisraGries failed to colour edge %d", id))
			}
			s.makeFan(u, v, id)
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

	for id, c := range s.colour {
		if c == 0 {
			panic("seq: MisraGries left an edge uncoloured")
		}
		s.colour[id] = c - 1
	}
	return s.colour
}

// misraGries is the working state of one MisraGries call. It is per call,
// never shared: edge groups are coloured concurrently under Cluster.Exec().
type misraGries struct {
	g      *graph.Graph
	colour []int // per edge; becomes the result
	maxC   int

	// The (vertex, colour) → edge id + 1 index: exactly one of flat and
	// sparse is non-nil.
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
	ids, nbrs := s.g.IncidentEdges(u), s.g.Neighbors(u)
	for last := v; ; {
		extended := false
		for i, e := range ids {
			w, ce := nbrs[i], s.colour[e]
			if ce == 0 || s.inFan[w] == s.epoch {
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
		if i > 0 && s.at(int(s.fan[i-1]), s.colour[s.fanEdge[i]]) != 0 {
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
		next := s.g.Edges[id-1].Other(cur)
		nextID := s.at(next, other)
		s.colour[id-1] = other
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
		if old := s.colour[id]; old != 0 {
			s.put(x, old, 0)
		}
		nc := d
		if i < w {
			nc = s.colour[s.fanEdge[i+1]]
		}
		s.colour[id] = nc
		s.put(x, nc, id+1)
		s.put(u, nc, id+1)
	}
}
