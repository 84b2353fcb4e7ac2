package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mpc"
	"repro/internal/seq"
	"repro/internal/setcover"
)

// CoverResult is the output of RLRSetCover and HGSetCover.
type CoverResult struct {
	// Cover are the indices of the selected sets.
	Cover []int
	// Weight is the total weight of the cover.
	Weight float64
	// LowerBound is a certified lower bound on OPT (the local ratio
	// reduction total; zero for HGSetCover, which certifies differently).
	LowerBound float64
	// Iterations is the number of outer sampling iterations executed.
	Iterations int
	// History records the alive-element count |U_r| after each iteration:
	// the decay trajectory of Lemma 2.2 (|U_{r+1}| ≤ 2|U_r|/n^µ w.h.p.).
	History []int64
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// CoverOptions tunes RLRSetCover.
type CoverOptions struct {
	// Eta overrides the per-round sample budget η (default n^{1+µ} where n
	// is the number of sets).
	Eta int
	// VertexCoverMode enables the f = 2 fast path of Theorem 2.4: instead
	// of broadcasting the new cover sets to every machine through the
	// O(log_{n^µ} M)-depth tree, the central machine notifies each new
	// cover set's owner, which forwards one bit per covered element. This
	// turns the O((c/µ)²) round bound into O(c/µ).
	VertexCoverMode bool
}

// RLRSetCover is Algorithm 1: the randomized local ratio f-approximation for
// minimum weight set cover in MapReduce (Theorems 2.3 and 2.4).
//
// Elements are distributed across machines in the dual representation: the
// owner of element j stores T_j = {i : j ∈ S_i} and an alive bit (alive
// means no set containing j is in the cover yet). Each iteration samples
// alive elements with probability p = min(1, 2η/|U_r|), ships the sampled
// T_j's to the central machine, which runs the sequential local ratio
// algorithm of Bar-Yehuda and Even on them against its persistent residual
// weights, and disseminates the newly zero-weight sets so the machines can
// kill newly covered elements.
func RLRSetCover(inst *setcover.Instance, p Params, opt CoverOptions) (*CoverResult, error) {
	n := inst.NumSets()
	m := inst.NumElements
	if m == 0 {
		return &CoverResult{}, nil
	}
	etaWords := opt.Eta
	if etaWords <= 0 {
		etaWords = eta(n, p.Mu, 8)
	}
	dual := inst.Dual()
	inputWords := 0
	for _, t := range dual {
		inputWords += len(t) + 2
	}
	// Machine 0 is the dedicated central machine; machines 1..M-1 hold the
	// element (and, in vertex-cover mode, set) partitions.
	f := newFrame("RLRSetCover", p, dataMachines(inputWords, 4*etaWords), etaWords*(1+inst.MaxFrequency()), n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	// Resident: element owners hold T_j + alive bit; in vertex-cover mode
	// set owners additionally hold their element lists for bit forwarding;
	// everyone keeps an n-bit view of the cover in general mode.
	resident := make([]int, M)
	for j := 0; j < m; j++ {
		resident[f.owner(j)] += len(dual[j]) + 2
	}
	if opt.VertexCoverMode {
		for i, s := range inst.Sets {
			resident[f.owner(i)] += len(s) + 1
		}
	} else {
		for machine := 1; machine < M; machine++ {
			resident[machine] += n // local copy of the cover bitmap
		}
	}
	f.setResident(resident)

	// Central machine: residual weights and the cover.
	lr := seq.NewCoverLocalRatio(inst)
	cluster.AddResident(0, 2*n)

	alive := make([]bool, m)
	aliveCount := int64(0)
	for j := range alive {
		if len(dual[j]) == 0 {
			return nil, fmt.Errorf("core: element %d is uncoverable", j)
		}
		alive[j] = true
		aliveCount++
	}

	res := &CoverResult{}
	var payload []int64 // general f: the new cover sets, broadcast each iteration
	// The plan is sized once: Line 6 fails any sample larger than 6η, and
	// with p = 1 (|U_r| ≤ 2η) the plan is every alive element.
	f.plan = make([]int, 0, min(m, 6*etaWords))
	for aliveCount > 0 {
		if err := f.next(); err != nil {
			return nil, err
		}

		// Sampling round (Line 5): each alive element joins U' with
		// probability p = min(1, 2η/|U_r|) and ships (j, T_j) to central.
		// The driver holds both, so the records are charged.
		prob := math.Min(1, 2*float64(etaWords)/float64(aliveCount))
		sampled := f.drawPlan(m, func(j int) bool { return alive[j] && f.r.Bernoulli(prob) })
		err := gatherRound(&f, dual, func(f *frame, dual [][]int, machine int) (recs, ints, floats int) {
			plan := f.planned(machine)
			ints = len(plan)
			for _, j := range plan {
				ints += len(dual[j])
			}
			return len(plan), ints, 0
		})
		if err != nil {
			return nil, err
		}
		// Line 6: |U'| > 6η is a failure.
		if prob < 1 && len(sampled) > 6*etaWords {
			return nil, fmt.Errorf("core: RLRSetCover sampling overflow (%d > 6η=%d)", len(sampled), 6*etaWords)
		}

		// Central machine (Lines 7-8): run local ratio on the sample in
		// ascending element order (the round has shipped the plan, so it
		// sorts in place); record newly zeroed sets.
		sort.Ints(sampled)
		coverBefore := len(lr.Cover())
		for _, j := range sampled {
			if !lr.Covered(j) {
				lr.Process(j)
			}
		}
		newSets := lr.Cover()[coverBefore:]

		// Dissemination (Line 9): tell the element owners which sets joined
		// the cover so they can kill covered elements.
		if opt.VertexCoverMode {
			// f = 2 fast path: central → set owner → element owner, two
			// routed rounds, O(1) additional rounds per iteration. Only the
			// central machine starts from an empty inbox.
			if err := centralRound(&f, newSets, sendToOwners); err != nil {
				return nil, err
			}
			err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
				for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
					for _, i := range run.Ints { // one-word records: set ids
						for _, j := range inst.Sets[i] {
							if alive[j] {
								out.SendInts(f.owner(j), int64(j))
							}
						}
					}
				}
			})
			if err != nil {
				return nil, err
			}
			// Delivery round: element owners mark covered elements dead.
			err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
				for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
					for _, j := range run.Ints { // one-word records: element ids
						alive[j] = false
					}
				}
			})
			if err != nil {
				return nil, err
			}
		} else {
			// General f: broadcast the new cover sets down the degree-n^µ
			// tree (§2.2); every machine then kills its covered elements
			// locally using its T_j lists, below.
			payload = payload[:0]
			for _, i := range newSets {
				payload = append(payload, int64(i))
			}
			if err := f.tree.Broadcast(cluster, payload, nil); err != nil {
				return nil, err
			}
		}
		// In general mode this kills the covered elements. In vertex-cover
		// mode the forwarding already killed exactly the elements of the new
		// sets; elements covered earlier stay dead, and lr.Covered is the
		// ground truth either way.
		clear(f.counts)
		for j := 0; j < m; j++ {
			if alive[j] && lr.Covered(j) {
				alive[j] = false
			}
			if alive[j] {
				f.counts[f.owner(j)]++
			}
		}
		if opt.VertexCoverMode {
			// Theorem 2.4 (f = 2): per-machine counts go straight to the
			// central machine, which replies with |U_{r+1}| — two rounds,
			// independent of the tree depth.
			aliveCount, err = f.directAllReduce(sumInt64)
		} else {
			aliveCount, err = f.sumCounts()
		}
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, aliveCount)
	}

	res.Cover = append([]int(nil), lr.Cover()...)
	res.Weight = inst.Weight(res.Cover)
	res.LowerBound = lr.SumEps
	res.Iterations = f.iterations
	res.Metrics = cluster.Metrics()
	return res, nil
}
