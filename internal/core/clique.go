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
// hungry-greedy MIS algorithm run on the complement graph, made feasible in
// sublinear space by the relabeling scheme. The complement graph can have
// Ω(n²) edges and is never materialized; instead each iteration only ever
// computes the complement neighbourhoods of the sampled vertices, which is
// the O(n^{1+µ})-word quantity the paper bounds.
//
// The distributed state follows Appendix B's invariants: an active set A
// (vertices adjacent to every clique member; the paper's relabeled [k]),
// per-vertex active-degree deg_A(v), and hence the complement degree
// d̄(v) = |A| − 1 − deg_A(v). Adding v to the clique replaces A by A ∩ N(v),
// which the central machine performs using v's complement list — exactly
// what the relabeling scheme lets a machine send.
func MaximalClique(g *graph.Graph, p Params) (*CliqueResult, error) {
	n := g.N
	if n == 0 {
		return &CliqueResult{}, nil
	}
	g.Build()
	etaWords := eta(n, p.Mu, 8)
	f := newFrame("MaximalClique", p, dataMachines(3*n+2*g.M(), 4*etaWords), etaWords, n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	inA := make([]bool, n)
	degA := make([]int, n)
	nbrMark := make([]bool, n) // activeComplement scratch, reused per call
	for v := 0; v < n; v++ {
		inA[v] = true
		degA[v] = g.Degree(v)
	}
	resident := make([]int, M)
	for v := 0; v < n; v++ {
		resident[f.owner(v)] += 3 + g.Degree(v)
	}
	f.setResident(resident)
	cluster.SetResident(0, n) // central: the active-set bitmap (the labels)

	sizeA := int64(n)
	var clique []int

	// relabelRounds charges the relabeling traffic of Appendix B: the
	// central machine sends each active vertex its new label (one routed
	// round) and every active vertex forwards its label to its neighbours
	// (a second round). The simulator keeps vertex ids; the words charged
	// are those of the real label exchange, which is what lets a vertex
	// compute its complement list [k] \ σ(N_A(v)) in sublinear space.
	relabelRounds := func() error {
		cluster.Arm(0) // only the central machine acts on an empty inbox
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for v := 0; v < n; v++ {
				if inA[v] {
					out.SendInts(f.owner(v), int64(v))
				}
			}
		})
		if err != nil {
			return err
		}
		// Every record is one word (v), so a run's Ints are the vertices.
		return cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, v := range run.Ints {
					for _, u := range g.Neighbors(int(v)) {
						out.SendInts(f.owner(int(u)), int64(u), v)
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

	type cliqueCand struct {
		v    int
		comp []int64 // active non-neighbours at sampling time
	}

	compDeg := func(v int) int {
		if !inA[v] {
			return 0
		}
		return int(sizeA) - 1 - degA[v]
	}

	// removeFromA applies a batch of removals: central notifies owners, and
	// owners notify the removed vertices' neighbours so deg_A stays correct.
	// The entries of removed are distinct and active, so the |A| update is
	// applied once up front rather than from inside the concurrent round.
	removeFromA := func(removed []int) error {
		cluster.Arm(0) // rounds 2 and 3 run off their delivered records
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for _, v := range removed {
				out.SendInts(f.owner(v), int64(v))
			}
		})
		if err != nil {
			return err
		}
		sizeA -= int64(len(removed))
		// Rounds 2 and 3 read one-word records: a run's Ints are vertices.
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, v := range run.Ints {
					if inA[v] {
						inA[v] = false
						for _, u := range g.Neighbors(int(v)) {
							out.SendInts(f.owner(int(u)), int64(u))
						}
					}
				}
			}
		})
		if err != nil {
			return err
		}
		return cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for _, u := range run.Ints {
					if degA[u] > 0 {
						degA[u]--
					}
				}
			}
		})
	}

	// processBatch adds candidates to the clique hungry-greedy style: one
	// addition per group, threshold on the current complement degree.
	removedSet := newMarkSet(n) // the batch's removals, cleared per batch
	processBatch := func(groups [][]cliqueCand, threshold int) error {
		removedSet.clear()
		var removed []int
		activeNow := func(u int) bool { return inA[u] && !removedSet.has(u) }
		for _, group := range groups {
			for _, cand := range group {
				if !activeNow(cand.v) {
					continue
				}
				// Current complement degree: entries of the sampled
				// complement list still active, plus nothing new can have
				// joined (A only shrinks).
				cur := 0
				for _, u := range cand.comp {
					if activeNow(int(u)) {
						cur++
					}
				}
				if threshold > 0 && cur < threshold {
					continue
				}
				// Add cand.v to the clique: remove v and its active
				// non-neighbours from A.
				clique = append(clique, cand.v)
				if !removedSet.has(cand.v) {
					removedSet.add(cand.v)
					removed = append(removed, cand.v)
				}
				for _, u := range cand.comp {
					if activeNow(int(u)) {
						removedSet.add(int(u))
						removed = append(removed, int(u))
					}
				}
				break
			}
		}
		return removeFromA(removed)
	}

	for i := 1; i <= phases && sizeA > 0; i++ {
		threshold := int(math.Ceil(math.Pow(nf, 1-float64(i)*alpha)))
		if threshold < 1 {
			threshold = 1
		}
		heavyMin := math.Pow(nf, float64(i)*alpha)
		for sizeA > 0 {
			// Count complement-heavy vertices (direct aggregation).
			heavy, err := directAllReduce(cluster, 0, func(machine int) int64 {
				c := int64(0)
				for v := machine - 1; machine > 0 && v < n; v += M - 1 {
					if inA[v] && compDeg(v) >= threshold {
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
			if err := f.next(); err != nil {
				return nil, err
			}
			if err := relabelRounds(); err != nil {
				return nil, err
			}
			prob := 1.0
			gatherAll := float64(heavy) < heavyMin
			if !gatherAll {
				prob = math.Min(1, heavyMin*float64(groupSize)/float64(heavy))
			}
			// Draw the sample machine by machine before the round; the
			// closures replay each machine's plan concurrently.
			var sample []cliqueCand
			plan := make([][]cliqueCand, M)
			for machine := 1; machine < M; machine++ {
				for v := machine - 1; v < n; v += M - 1 {
					if !inA[v] || compDeg(v) < threshold || !f.r.Bernoulli(prob) {
						continue
					}
					cand := cliqueCand{v: v, comp: activeComplement(g, inA, v, nbrMark)}
					plan[machine] = append(plan[machine], cand)
					sample = append(sample, cand)
				}
			}
			armPlanned(cluster, plan)
			err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
				for _, cand := range plan[machine] {
					out.Begin(0)
					out.Int(int64(cand.v))
					out.Ints(cand.comp...)
					out.End()
				}
			})
			if err != nil {
				return nil, err
			}
			var groups [][]cliqueCand
			if gatherAll {
				sort.Slice(sample, func(a, b int) bool { return sample[a].v < sample[b].v })
				for k := range sample {
					groups = append(groups, sample[k:k+1])
				}
				if err := processBatch(groups, 0); err != nil {
					return nil, err
				}
				break
			}
			f.r.Shuffle(len(sample), func(a, b int) { sample[a], sample[b] = sample[b], sample[a] })
			for k := 0; k < len(sample); k += groupSize {
				end := k + groupSize
				if end > len(sample) {
					end = len(sample)
				}
				groups = append(groups, sample[k:end])
			}
			if err := processBatch(groups, threshold); err != nil {
				return nil, err
			}
		}
	}

	// After the last phase every active vertex has complement degree 0, so
	// A is a clique all of whose members are adjacent to every clique
	// member: gather and add them all (one round of ids).
	var leftovers []int
	leftoverPlan := make([][]int64, M)
	for machine := 1; machine < M; machine++ {
		for v := machine - 1; v < n; v += M - 1 {
			if inA[v] {
				leftoverPlan[machine] = append(leftoverPlan[machine], int64(v))
				leftovers = append(leftovers, v)
			}
		}
	}
	armPlanned(cluster, leftoverPlan)
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, v := range leftoverPlan[machine] {
			out.SendInts(0, v)
		}
	})
	if err != nil {
		return nil, err
	}
	clique = append(clique, leftovers...)
	sort.Ints(clique)

	return &CliqueResult{
		Clique:     clique,
		Iterations: f.iterations,
		Metrics:    cluster.Metrics(),
	}, nil
}

// activeComplement returns the active non-neighbours of v, excluding v.
// nbrMark is a caller-owned all-false scratch bitmap of size g.N; it is
// marked from the contiguous neighbour slice and cleared again before
// returning, replacing a per-call map build.
func activeComplement(g *graph.Graph, inA []bool, v int, nbrMark []bool) []int64 {
	nbrs := g.Neighbors(v)
	for _, u := range nbrs {
		nbrMark[u] = true
	}
	var out []int64
	for u := 0; u < g.N; u++ {
		if u != v && inA[u] && !nbrMark[u] {
			out = append(out, int64(u))
		}
	}
	for _, u := range nbrs {
		nbrMark[u] = false
	}
	return out
}
