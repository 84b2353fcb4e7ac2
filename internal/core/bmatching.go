package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/seq"
)

// BMatchingOptions tunes BMatching.
type BMatchingOptions struct {
	// B gives each vertex's capacity; nil means b(v) = 2 everywhere.
	B func(v int) int
	// Eps is the ε of the ε-adjusted reductions (default 0.25): edges die
	// once reduced below a 1/(1+ε) fraction of their weight, giving the
	// (3 − 2/b + 2ε) approximation.
	Eps float64
}

// BMatching is Algorithm 7: the ε-adjusted randomized local ratio
// (3 − 2/max{2,b} + 2ε)-approximation for maximum weight b-matching
// (Appendix D, Theorem D.3).
//
// Unlike the matching algorithm (which samples every edge i.i.d.), each
// vertex here samples a fixed number b(v)·ln(1/δ)·n^µ of its alive incident
// edges, δ = ε/(1+ε), and the central machine pushes up to b(v)·ln(1/δ)
// heaviest sampled edges per vertex, applying ε-adjusted reductions. This is
// what makes all non-heavy edges at the vertex die despite the 1/b(v)
// dilution of each reduction.
func BMatching(g *graph.Graph, p Params, opt BMatchingOptions) (*MatchingResult, error) {
	n, m := g.N, g.M()
	b := opt.B
	if b == nil {
		b = func(int) int { return 2 }
	}
	eps := opt.Eps
	if eps <= 0 {
		eps = 0.25
	}
	if m == 0 {
		return &MatchingResult{}, nil
	}
	delta := eps / (1 + eps)
	lnInvDelta := math.Log(1 / delta)
	if lnInvDelta < 1 {
		lnInvDelta = 1
	}
	etaWords := eta(n, p.Mu, 8)
	nMu := math.Pow(float64(n), p.Mu)
	if nMu < 1 {
		nMu = 1
	}
	bMax := maxB(g, b)
	// want is the size of v's sample outside Line 7's small graphs.
	want := func(v int) int { return int(math.Ceil(float64(b(v)) * lnInvDelta * nMu)) }

	// Vertex-partitioned layout (Appendix D samples per vertex): owners
	// hold each vertex's incident edge ids with weights and alive bits.
	f := newFrame("BMatching", p, dataMachines(3*n+3*m, 4*etaWords), etaWords*bMax, n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	g.Build()
	resident := make([]int, M)
	maxDeg, wanted := 0, 0 // wanted bounds a sampled iteration's sample ids
	for v := 0; v < n; v++ {
		resident[f.owner(v)] += 2 + 2*g.Degree(v)
		maxDeg = max(maxDeg, g.Degree(v))
		wanted += min(g.Degree(v), want(v))
	}
	f.setResident(resident)
	cluster.SetResident(0, 2*n)

	lr := seq.NewBMatchingLocalRatio(g, b, eps)
	alive := make([]bool, m)
	aliveCount := int64(0)
	for id := range alive {
		if g.Edges[id].W > 0 {
			alive[id] = true
			aliveCount++
		}
	}

	// Scratch reused by every iteration.
	type span struct{ lo, hi int }
	var (
		sampled   []int                    // every vertex's sampled edge ids, back to back
		sampleOf  = make([]span, n)        // vertex -> its stretch of sampled; empty if it sent nothing
		aliveIDs  = make([]int, 0, maxDeg) // one vertex's alive incident edge ids
		drawTable []uint64                 // the sampler's duplicate table
		changed   = newMarkSet(n)
	)
	f.plan = make([]int, 0, n) // the plan holds each vertex at most once

	for aliveCount > 0 {
		if err := f.next(); err != nil {
			return nil, err
		}

		// Sampling round: vertex v samples b(v)·ln(1/δ)·n^µ alive incident
		// edges without replacement (all of them when |E_i| is small,
		// Line 7) and ships (edge id, weight) pairs to the central machine.
		smallGraph := float64(aliveCount) < 2*float64(bMax)*lnInvDelta*float64(etaWords)/nMu
		// Draw each vertex's edge sample into the frame's plan before the
		// round; the closures replay the per-machine plans concurrently. The
		// plan holds every vertex with alive incident edges — such a vertex
		// always ships its (possibly header-only) payload, which is what the
		// word accounting charges. The samples sit back to back in sampled;
		// sampleOf[v] is vertex v's stretch of it. sampled is sized before
		// the draw, so appends never regrow it: a vertex ships at most its
		// alive incident ids, 2|E_i| in all, and outside small graphs at most
		// want(v) of them.
		need := 2 * int(aliveCount)
		if !smallGraph {
			need = min(need, wanted)
		}
		sampled = slices.Grow(sampled[:0], need)
		clear(sampleOf)
		f.drawPlan(n, func(v int) bool {
			aliveIDs = aliveIDs[:0]
			for _, id := range g.IncidentEdges(v) {
				if alive[id] {
					aliveIDs = append(aliveIDs, int(id))
				}
			}
			if len(aliveIDs) == 0 {
				return false
			}
			lo := len(sampled)
			if k := want(v); !smallGraph && k < len(aliveIDs) {
				// Keep only the drawn edges, in draw order: draw positions
				// into sampled, then replace each by its edge id.
				sampled, drawTable = f.r.SampleAppend(sampled, drawTable, len(aliveIDs), k)
				for i := lo; i < len(sampled); i++ {
					sampled[i] = aliveIDs[sampled[i]]
				}
			} else {
				sampled = append(sampled, aliveIDs...)
			}
			sampleOf[v] = span{lo, len(sampled)}
			return true
		})
		// The central machine reads sampled and sampleOf, so each vertex's
		// (v, ids...) record is charged, not written.
		err := gatherRound(&f, sampleOf, func(f *frame, sampleOf []span, machine int) (recs, ints, floats int) {
			vs := f.planned(machine)
			ints = len(vs)
			for _, v := range vs {
				ints += sampleOf[v].hi - sampleOf[v].lo
			}
			return len(vs), ints, 0
		})
		if err != nil {
			return nil, err
		}

		// Central machine (Lines 11-17): per vertex, in vertex order, push up
		// to b(v)·ln(1/δ) heaviest sampled alive edges with ε-adjusted
		// reductions. Each vertex's sample is sorted in place: the round has
		// already shipped it.
		changed.clear()
		for v, sp := range sampleOf {
			if sp.lo == sp.hi {
				continue
			}
			budget := int(math.Ceil(float64(b(v)) * lnInvDelta))
			ids := sampled[sp.lo:sp.hi]
			slices.SortFunc(ids, func(a, c int) int {
				if wa, wc := lr.Reduced(a), lr.Reduced(c); wa != wc {
					return cmp.Compare(wc, wa)
				}
				return cmp.Compare(a, c)
			})
			for j := 0; j < budget && j < len(ids); j++ {
				// Re-pick the heaviest alive each time: reductions at v
				// subtract the same amount from every incident edge, so the
				// order within δ(v) is stable and a sorted scan suffices.
				if _, ok := lr.Push(ids[j]); ok {
					e := g.Edges[ids[j]]
					changed.add(e.U)
					changed.add(e.V)
				}
			}
		}
		cluster.SetResident(0, 2*n+2*lr.StackSize())

		// Dissemination: central routes the changed potentials ϕ(v) to the
		// vertex owners; owners re-evaluate the ε-adjusted kill rule for
		// their incident edges. The forwarding round runs off its delivered
		// records.
		if err := centralRound(&f, phiUpdate{lr: lr, changed: changed}, sendPhis); err != nil {
			return nil, err
		}
		// Owners receive the new potentials, records (v; ϕ(v)) read as runs,
		// and forward them along their alive incident edges to the other
		// endpoint's owner, one (id; ϕ(v)) record per edge. The delivery
		// round below discards them and the kill rule reads lr, so they are
		// charged, not written. IncidentEdges and Neighbors are positional:
		// slot i of both describes the same incident edge, so one scan yields
		// the edge id and the other endpoint with no Other() branch.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, v := range run.Ints {
					ids := g.IncidentEdges(int(v))
					nbrs := g.Neighbors(int(v))
					for i, id := range ids {
						if alive[id] {
							out.Charge(f.owner(int(nbrs[i])), 1, 1, 1)
						}
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		// Delivery round; then refresh aliveness from the kill rule.
		if err := cluster.Quiet(); err != nil {
			return nil, err
		}
		clear(f.counts)
		for id := 0; id < m; id++ {
			if alive[id] && !lr.Alive(id) {
				alive[id] = false
			}
			if alive[id] {
				e := g.Edges[id]
				f.counts[f.owner(e.U)]++ // counted once, by U's owner
			}
		}
		if aliveCount, err = f.sumCounts(); err != nil {
			return nil, err
		}
	}

	edges := lr.Unwind()
	return &MatchingResult{
		Edges:      edges,
		Weight:     graph.MatchingWeight(g, edges),
		Iterations: f.iterations,
		StackSize:  lr.StackSize(),
		Metrics:    cluster.Metrics(),
	}, nil
}

// maxB returns max_v b(v), used for space budgeting and Line 7's
// small-graph test.
func maxB(g *graph.Graph, b func(int) int) int {
	mb := 1
	for v := 0; v < g.N; v++ {
		if bv := b(v); bv > mb {
			mb = bv
		}
	}
	return mb
}
