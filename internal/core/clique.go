package core

import (
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
// Algorithm 2 are the view's branches, listed at misState, and the final
// gather here.
func MaximalClique(g *graph.Graph, p Params) (*CliqueResult, error) {
	n := g.N
	if n == 0 {
		return &CliqueResult{}, nil
	}
	s := newMISState("MaximalClique", g, p)
	defer s.cluster.Close()
	s.complement, s.size, s.marks = true, n, make([][]bool, s.M)
	if _, err := s.hungryGreedy(p.Mu); err != nil {
		return nil, err
	}

	// After the last phase every active vertex has complement degree 0, so
	// on a simple graph A is a clique all of whose members are adjacent to
	// every clique member: gather and add them all (one round of ids, which
	// the driver holds in the plan, so they are charged). A parallel edge
	// inflates deg_A, so there a leftover can still have an active
	// non-neighbour; shipping the lists would change the output.
	leftovers := s.drawPlan(n, s.aliveVertex)
	if err := gatherRound(&s.frame, struct{}{}, plannedIDs); err != nil {
		return nil, err
	}
	clique := append(s.clique, leftovers...)
	sort.Ints(clique)

	return &CliqueResult{
		Clique:     clique,
		Iterations: s.iterations,
		Metrics:    s.cluster.Metrics(),
	}, nil
}
