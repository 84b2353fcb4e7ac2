package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// CliqueResult is the output of MaximalClique.
type CliqueResult struct {
	// Clique is the maximal clique found.
	Clique []int
	// Iterations is the number of hungry-greedy batches executed.
	Iterations int
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// MaximalClique is the Appendix B algorithm: maximal clique via the
// hungry-greedy MIS algorithm (Algorithm 2) run on the complement graph,
// made feasible in sublinear space by the relabeling scheme. The complement
// graph can have Ω(n²) edges and is never materialized: the driver runs the
// MIS state in its complement view, where each iteration only ever computes
// the complement neighbourhoods of the sampled vertices, the O(n^{1+µ})-word
// quantity the paper bounds.
//
// The view keeps Appendix B's invariants: the alive set is the active set A
// (vertices adjacent to every clique member; the paper's relabeled [k]), dI
// is the active degree deg_A(v), and degree is the complement degree
// d̄(v) = |A| − 1 − deg_A(v). Adding v to the clique replaces A by A ∩ N(v),
// which the central machine performs using v's complement list — exactly
// what the relabeling scheme lets a machine send. What Appendix B adds to
// Algorithm 2 is here: the direct heavy count, the relabeling rounds, the
// |A| bookkeeping and the final gather.
func MaximalClique(g *graph.Graph, p Params) (*CliqueResult, error) {
	n := g.N
	if n == 0 {
		return &CliqueResult{}, nil
	}
	s := newMISState("MaximalClique", g, p)
	defer s.cluster.Close()
	s.complement, s.size, s.marks = true, n, make([][]bool, s.M)
	var clique []int

	// relabelRounds charges the relabeling traffic of Appendix B: the
	// central machine sends each active vertex its new label (one routed
	// round) and every active vertex forwards its label to its neighbours
	// (a second round). The simulator keeps vertex ids; the words charged
	// are those of the real label exchange, which is what lets a vertex
	// compute its complement list [k] \ σ(N_A(v)) in sublinear space.
	relabelRounds := func() error {
		s.cluster.Arm(0) // only the central machine acts on an empty inbox
		err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for v := 0; v < n; v++ {
				if s.aliveVertex(v) {
					out.SendInts(s.owner(v), int64(v))
				}
			}
		})
		if err != nil {
			return err
		}
		// Every record is one word (v), so a run's Ints are the vertices.
		return s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, v := range run.Ints {
					for _, u := range g.Neighbors(int(v)) {
						out.SendInts(s.owner(int(u)), int64(u), v)
					}
				}
			}
		})
	}

	alpha := p.Mu / 2
	if alpha <= 0 {
		alpha = 0.05
	}
	phases := int(math.Ceil(1 / alpha))
	nf := float64(n)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))

	for i := 1; i <= phases && s.size > 0; i++ {
		threshold := int(math.Ceil(math.Pow(nf, 1-float64(i)*alpha)))
		if threshold < 1 {
			threshold = 1
		}
		heavyMin := math.Pow(nf, float64(i)*alpha)
		heavySet := func(v int) bool { return s.aliveVertex(v) && s.degree(v) >= threshold }
		// Every complement-heavy vertex self-samples at the iteration's rate.
		prob := 0.0
		rate := func(v int) float64 {
			if heavySet(v) {
				return prob
			}
			return 0
		}
		for s.size > 0 {
			// Count complement-heavy vertices (direct aggregation).
			heavy, err := directAllReduce(s.cluster, 0, func(machine int) int64 {
				c := int64(0)
				for v := machine - 1; machine > 0 && v < n; v += s.M - 1 {
					if heavySet(v) {
						c++
					}
				}
				return c
			})
			if err != nil {
				return nil, err
			}
			if heavy == 0 {
				break
			}
			if err := s.next(); err != nil {
				return nil, err
			}
			if err := relabelRounds(); err != nil {
				return nil, err
			}
			gatherAll := float64(heavy) < heavyMin
			prob = 1
			if !gatherAll {
				prob = math.Min(1, heavyMin*float64(groupSize)/float64(heavy))
			}
			sample, err := s.sampleToCentral(rate)
			if err != nil {
				return nil, err
			}
			// One addition per group, threshold on the current complement
			// degree; a gathered phase end is the central greedy.
			s.beginBatch()
			if gatherAll {
				s.centralProcessGroups(s.singletonGroups(sample), 0)
			} else {
				s.centralProcessGroups(s.chopGroups(sample, groupSize), threshold)
			}
			clique = append(clique, s.batch.added...)
			s.size -= len(s.batch.added) + len(s.batch.newDominated)
			if err := s.disseminate(); err != nil {
				return nil, err
			}
			if gatherAll {
				break
			}
		}
	}

	// After the last phase every active vertex has complement degree 0, so
	// on a simple graph A is a clique all of whose members are adjacent to
	// every clique member: gather and add them all (one round of ids). A
	// parallel edge inflates deg_A, so there a leftover can still have an
	// active non-neighbour; shipping the lists would change the output.
	leftovers := s.drawPlan(n, s.aliveVertex)
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, v := range s.planned(machine) {
			out.SendInts(0, int64(v))
		}
	})
	if err != nil {
		return nil, err
	}
	clique = append(clique, leftovers...)
	sort.Ints(clique)

	return &CliqueResult{
		Clique:     clique,
		Iterations: s.iterations,
		Metrics:    s.cluster.Metrics(),
	}, nil
}
