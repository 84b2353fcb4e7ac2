package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/seq"
)

// MatchingResult is the output of RLRMatching and BMatching.
type MatchingResult struct {
	// Edges are the indices of the selected edges.
	Edges []int
	// Weight is the total weight of the selection.
	Weight float64
	// Iterations is the number of outer sampling iterations executed.
	Iterations int
	// StackSize is the number of edges the local ratio stack accumulated.
	StackSize int
	// History records the alive-edge count after each iteration: the decay
	// trajectory bounded by Lemmas 5.3/5.4 (factor n^{µ/4} per iteration)
	// and Lemma C.1 (constant factor when η = Θ(n)).
	History []int64
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// MatchingOptions tunes RLRMatching beyond the shared Params.
type MatchingOptions struct {
	// Eta overrides the per-machine sample budget η (default n^{1+µ}).
	// Appendix C's linear-space variant corresponds to Eta = n (or µ = 0).
	Eta int
}

// RLRMatching is Algorithm 4: the randomized local ratio 2-approximation for
// maximum weight matching in MapReduce (Theorems 5.5 and 5.6).
//
// Edges are distributed across machines; in each iteration every alive edge
// samples itself into E'_u and E'_v independently with probability
// p = min(η/|E_i|, 1) and sampled edges are sent to the central machine,
// which runs the Paz–Schwartzman local ratio step for each vertex (push the
// heaviest sampled alive edge). The central machine then routes the changed
// potentials ϕ(v) back through the vertex owners to the edges, which update
// their alive bits. When no positive-weight edge remains, the central
// machine unwinds the stack into a matching.
//
// With η = n^{1+µ}, µ constant, the loop terminates in O(c/µ) iterations
// w.h.p.; with η = Θ(n) (µ = 0) it terminates in O(log n) iterations
// (Appendix C).
func RLRMatching(g *graph.Graph, p Params, opt MatchingOptions) (*MatchingResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &MatchingResult{}, nil
	}
	etaWords := opt.Eta
	if etaWords <= 0 {
		etaWords = eta(n, p.Mu, 8)
	}
	// Machine 0 is the dedicated central machine; machines 1..M-1 hold the
	// edge and vertex partitions.
	f := newFrame("RLRMatching", p, dataMachines(4*m, 4*etaWords), etaWords, n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	// Resident state: each edge owner stores (u, v, w, alive) per edge and the
	// number of its edges still alive; each vertex owner stores ϕ(v) plus the
	// incident edge list used to forward potentials.
	g.Build()
	// alive[id] is edge id's side mask in a full iteration: 3 (bit0 = in
	// E'_u, bit1 = in E'_v) while the edge is alive, 0 once it is dead.
	alive := make([]int8, m)
	counts := f.counts // alive edges per owner, kept by the owner
	resident := make([]int, M)
	aliveCount := int64(0)
	for id := range g.Edges {
		owner := f.owner(id)
		resident[owner] += 4
		if g.Edges[id].W > 0 {
			alive[id] = 3
			counts[owner]++
			aliveCount++
		}
	}
	for v := 0; v < n; v++ {
		resident[f.owner(v)] += 2 + g.Degree(v)
	}
	f.setResident(resident)

	// Central machine state: the local ratio potentials and stack.
	lr := seq.NewMatchingLocalRatio(g)
	cluster.AddResident(0, 2*n) // ϕ plus stacked-bit bookkeeping

	// Scratch reused by every iteration. side and drawn exist only once an
	// iteration actually draws randomness: side[id] is the mask of sides
	// drawn for edge id, 0 for a dead or undrawn edge, and drawn[k] the
	// number of edges machine k sends.
	var (
		side    []int8
		drawn   []int64
		changed = newMarkSet(n)
		fanout  = make([][]int32, M) // round B's per-destination record counts
	)

	res := &MatchingResult{}
	for aliveCount > 0 {
		if err := f.next(); err != nil {
			return nil, err
		}

		// Sampling round: edge owners sample each alive edge into E'_u and
		// E'_v independently and ship sampled edges to the central machine.
		// Message layout: [edgeID, sideMask]. lists holds the iteration's
		// side masks: a full iteration puts every alive edge in both lists
		// and draws nothing, so its masks are alive itself; a sampled one
		// draws the two sides of each alive edge machine by machine before
		// the round. The closures send every edge with a non-zero mask.
		full := aliveCount < 4*int64(etaWords)
		sends, lists := counts, alive
		var sampledSides int64 // Σ|E'_v|, counted only when it is random
		if !full {
			if side == nil {
				side = make([]int8, m)
				drawn = make([]int64, M)
			} else {
				clear(side)
			}
			prob := math.Min(1, float64(etaWords)/float64(aliveCount))
			for machine := 1; machine < M; machine++ {
				k := int64(0)
				for id := machine - 1; id < m; id += M - 1 {
					if alive[id] == 0 {
						continue
					}
					var mask int8
					if f.r.Bernoulli(prob) {
						mask |= 1
					}
					if f.r.Bernoulli(prob) {
						mask |= 2
					}
					if mask != 0 {
						side[id] = mask
						k++
						sampledSides += int64(mask&1 + mask>>1)
					}
				}
				drawn[machine] = k
			}
			sends, lists = drawn, side
		}
		for machine := 1; machine < M; machine++ {
			if sends[machine] > 0 {
				cluster.Arm(machine)
			}
		}
		// The central machine reads lists, so the samples are charged, not
		// written: k records of two words from each owner.
		err := gatherRound(&f, sends, func(f *frame, sends []int64, machine int) (recs, ints, floats int) {
			k := int(sends[machine])
			return k, 2 * k, 0
		})
		if err != nil {
			return nil, err
		}

		// Line 10-11: if Σ|E'_v| > 8η the algorithm fails. This is a
		// w.h.p.-never event at the paper's constants.
		if sampledSides > 8*int64(etaWords) {
			return nil, fmt.Errorf("core: RLRMatching sampling overflow (%d > 8η=%d)", sampledSides, 8*etaWords)
		}

		// Central machine (Lines 12-14): push the heaviest alive edge of each
		// E'_v, vertices ascending; of equal maxima the first to arrive wins.
		// Samples arrive in the order they were sent: by owner (f.owner),
		// then by id. No iteration groups them: E'_v is v's incident edges
		// whose mask has v's bit (bit0 when v is the edge's U), which the
		// CSR lists by ascending id, so of equal maxima the one whose owner
		// sent first arrived first (best ≥ 0 on a tie, since an alive edge
		// has w > 0).
		changed.clear()
		top := lr.StackSize()
		for v := 0; v < n; v++ {
			best, bestW := -1, 0.0
			for _, id := range g.IncidentEdges(v) {
				mask := lists[id]
				if mask == 0 {
					continue // dead, or not drawn: most edges of a sampled iteration
				}
				if mask != 3 && (mask == 1) != (g.Edges[id].U == v) {
					continue // drawn for the other endpoint's list only
				}
				if w, ok := lr.AliveReduced(int(id)); ok && (w > bestW || w == bestW && f.owner(int(id)) < f.owner(best)) {
					best, bestW = int(id), w
				}
			}
			if best < 0 {
				continue
			}
			if _, ok := lr.Push(best); ok {
				e := &g.Edges[best]
				changed.add(e.U)
				changed.add(e.V)
			}
		}
		cluster.SetResident(0, 2*n+2*lr.StackSize())

		// Update round A: central sends the changed ϕ values to the vertex
		// owners and the ids pushed this iteration, the top of lr's stack, to
		// the edge owners (§5.3). Round B and the delivery round run off
		// their inboxes.
		if err := centralRound(&f, phiUpdate{lr, changed, lr.Stack()[top:]}, sendPhis); err != nil {
			return nil, err
		}

		// Update round B: vertex owners forward ϕ(v) to the machines owning
		// v's alive incident edges, one (id, v; ϕ(v)) record per edge. The
		// edge owners read lr in the delivery round, so the records are
		// counted per destination and charged, not written. Round A's column
		// to a machine holds the (v; ϕ(v)) records, read as runs of one
		// float, and the charged pushed ids, which no cursor yields.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if in.Len() == 0 {
				return
			}
			fan := fanout[machine]
			if fan == nil {
				fan = make([]int32, M)
				fanout[machine] = fan
			}
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, v := range run.Ints {
					for _, id := range g.IncidentEdges(int(v)) {
						if alive[id] != 0 {
							fan[f.owner(int(id))]++
						}
					}
				}
			}
			for to, k := range fan {
				out.Charge(to, int(k), 2*int(k), int(k))
				fan[to] = 0
			}
		})
		if err != nil {
			return nil, err
		}
		// Deliver round B's messages and apply them as the edge owners would:
		// stacked edges die, and an edge that received a potential recomputes
		// its reduced weight (the simulator reads lr, which holds exactly the
		// values the messages carry). An edge changes only if an endpoint's ϕ
		// changed, and every alive edge at a changed vertex was messaged — so
		// every owner with an edge to update has a non-empty inbox and is
		// invoked here, walks its own edges once, and recounts them; an owner
		// that is not invoked keeps its count because none of its edges moved.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine == 0 {
				return
			}
			left := int64(0)
			for id := machine - 1; id < m; id += M - 1 {
				if alive[id] == 0 {
					continue
				}
				if lr.Alive(id) {
					left++
				} else {
					alive[id] = 0
				}
			}
			counts[machine] = left
		})
		if err != nil {
			return nil, err
		}
		// Recompute the alive count with an aggregation over the tree.
		if aliveCount, err = f.sumCounts(); err != nil {
			return nil, err
		}
		res.History = append(res.History, aliveCount)
	}

	res.Edges = lr.Unwind()
	res.Weight = graph.MatchingWeight(g, res.Edges)
	res.Iterations = f.iterations
	res.StackSize = lr.StackSize()
	res.Metrics = cluster.Metrics()
	return res, nil
}

// phiUpdate is what the central machine of the local ratio matchings sends
// after its pushes: ϕ(v) of every vertex in changed and, in Algorithm 4, the
// edge ids pushed this iteration.
type phiUpdate struct {
	lr      interface{ Phi(v int) float64 }
	changed *markSet
	pushed  []int
}

// sendPhis is the central send of a phiUpdate: a (v; ϕ(v)) record to v's
// owner for every changed v in ascending order, each owner's column reserved
// from its count, then each pushed id to its owner. The edge owners read lr,
// not the pushed ids, so those are charged, not written.
func sendPhis(f *frame, u phiUpdate, out *mpc.Outbox) {
	if f.perOwner == nil {
		f.perOwner = make([]int, f.M)
	}
	per := f.perOwner
	for v := range u.changed.mark {
		if u.changed.has(v) {
			per[f.owner(v)]++
		}
	}
	for to, k := range per {
		out.Reserve(to, k, k, k)
		per[to] = 0
	}
	for v := range u.changed.mark {
		if u.changed.has(v) {
			out.Begin(f.owner(v))
			out.Int(int64(v))
			out.Float(u.lr.Phi(v))
			out.End()
		}
	}
	for _, id := range u.pushed {
		out.Charge(f.owner(id), 1, 1, 0)
	}
}
