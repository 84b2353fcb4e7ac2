// Package core implements the MapReduce algorithms of Harvey, Liaw and Liu,
// "Greedy and Local Ratio Algorithms in the MapReduce Model" (SPAA 2018), on
// the cluster simulator of internal/mpc:
//
//   - Algorithm 1: randomized local ratio f-approximation for weighted set
//     cover (Theorems 2.3/2.4), including the f = 2 vertex-cover fast path;
//   - Algorithm 2: hungry-greedy maximal independent set in O(1/µ²) rounds
//     (Theorem 3.3);
//   - Algorithm 6: improved maximal independent set in O(c/µ) rounds
//     (Theorem A.3);
//   - Appendix B: maximal clique via the active-set/relabeling scheme
//     (Corollary B.1);
//   - Algorithm 3: hungry-greedy (1+ε)·H_∆ approximation for weighted set
//     cover (Theorems 4.5/4.6);
//   - Algorithm 4: randomized local ratio 2-approximation for maximum weight
//     matching (Theorems 5.5/5.6), including the µ = 0 linear-space variant
//     (Appendix C);
//   - Algorithm 7: ε-adjusted local ratio (3−2/b+2ε)-approximation for
//     maximum weight b-matching (Appendix D);
//   - Algorithm 5: (1+o(1))∆ vertex colouring and edge colouring in O(1)
//     rounds (Theorems 6.4/6.6);
//
// plus the prior-work baselines used in the Figure 1 comparisons: the
// filtering technique of Lattanzi et al. for maximal matching and its
// layered 8-approximation for weighted matching (one filtering loop drives
// both), and Luby's MIS.
//
// Every algorithm runs its communication for real on an mpc.Cluster, so the
// returned metrics (rounds, words, per-machine space high-water) are
// measured quantities, directly comparable to the bounds in Figure 1.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Params are the model parameters shared by all algorithms.
type Params struct {
	// Mu is the space exponent µ: each machine has ~n^{1+µ} words (graph
	// problems) or ~m^{1+µ} words (the m ≪ n set cover regime).
	Mu float64
	// Seed drives all randomness; runs are deterministic given Seed.
	Seed uint64
	// Strict makes the cluster fail hard when a machine exceeds its space
	// cap, mirroring the "fail" lines of Algorithms 1, 3 and 4. When false,
	// violations are recorded in the metrics but execution continues.
	Strict bool
	// Workers selects the simulator's round executor: 0 or 1 executes the
	// machines of each round sequentially, > 1 runs them concurrently on a
	// pool of that many goroutines, < 0 uses one per CPU. Results and
	// metrics are identical for every setting; only wall-clock changes.
	Workers int
	// Ctx, when non-nil, cancels the run between rounds: once canceled,
	// every cluster's next Round returns the context's error, so an
	// abandoned job stops burning rounds instead of running to completion.
	Ctx context.Context
	// Sink, when non-nil, streams a wall-clock phase-timed span per
	// simulator round to the observability layer (mpc.Config.Sink).
	// Timing is segregated from the deterministic results and metrics:
	// attaching a sink never changes what a run computes.
	Sink obs.TraceSink
	// TraceLabel annotates the run's trace spans (e.g. a job id).
	TraceLabel string
}

// maxIterations bounds every algorithm's main loop as a safety net against
// non-termination (frame.next).
const maxIterations = 10000

// eta returns the per-machine space target base^{1+mu}, at least minimum.
func eta(base int, mu float64, minimum int) int {
	e := int(math.Ceil(math.Pow(float64(base), 1+mu)))
	if e < minimum {
		e = minimum
	}
	return e
}

// treeDegree returns the broadcast tree degree n^µ (at least 2), the degree
// the paper uses in §2.2 and §4.1.
func treeDegree(base int, mu float64) int {
	d := int(math.Pow(float64(base), mu))
	if d < 2 {
		d = 2
	}
	return d
}

// newCluster builds a cluster with machines sized by cap and a slack factor:
// the paper's caps are O(·), so the enforced cap is slack*cap words. The
// cluster inherits the Params' strictness and round executor, and runs only
// the machines the algorithm arms or sends to (mpc.Config.Sparse): every
// algorithm arms each machine that must act on an empty inbox.
func newCluster(machines, cap int, p Params, slack float64) *mpc.Cluster {
	enforced := 0
	if cap > 0 {
		enforced = int(float64(cap) * slack)
	}
	return mpc.NewCluster(mpc.Config{
		Machines:   machines,
		SpaceCap:   enforced,
		Strict:     p.Strict,
		Workers:    p.Workers,
		Sparse:     true,
		Ctx:        p.Ctx,
		Sink:       p.Sink,
		TraceLabel: p.TraceLabel,
	})
}

// capSlack is the constant-factor slack applied to enforced space caps. The
// theorems bound space as O(n^{1+µ}); the explicit constants in the paper
// (6η samples in Algorithm 1, 8η in Algorithm 4, 13n^{1+µ} edges per group
// in Algorithm 5) motivate a default slack of 32 "words per O(1) items".
const capSlack = 32

// partitionByOwner returns, for each of machines, the ids among 0..count−1
// that owner assigns to it in ascending order: sub-slices of one slab,
// sized by a counting pass. It serves partitions keyed by something other
// than the id, such as an item's group; an item keyed by its own id is on
// machine f.owner(id), whose ids are a stride (frame.owner).
func partitionByOwner(count, machines int, owner func(id int) int) [][]int {
	size := make([]int, machines)
	for id := 0; id < count; id++ {
		size[owner(id)]++
	}
	slab, start := make([]int, count), 0
	out := make([][]int, machines)
	for k, n := range size {
		out[k], start = slab[start:start:start+n], start+n
	}
	for id := 0; id < count; id++ {
		out[owner(id)] = append(out[owner(id)], id)
	}
	return out
}

// markSet is a set of vertices that empties in O(1): a member carries the
// current epoch. The drivers keep one across iterations — the local ratio
// ones for "the vertices whose potential changed", the hungry-greedy ones for
// "the vertices the central machine removed this batch" — instead of
// building a map each time.
type markSet struct {
	mark  []int32
	epoch int32
}

func newMarkSet(n int) *markSet { return &markSet{mark: make([]int32, n), epoch: 1} }

func (s *markSet) clear() { s.epoch++ }

func (s *markSet) add(v int) { s.mark[v] = s.epoch }

func (s *markSet) has(v int) bool { return s.mark[v] == s.epoch }

// dataMachines returns the cluster size for a layout with a dedicated
// central machine (machine 0) plus ceil(inputWords / capWords) data machines,
// at least one. The paper's blue-line computations run on a single
// distinguished machine; giving it no data partition keeps its space budget
// for the samples it receives.
func dataMachines(inputWords, capWords int) int {
	if capWords <= 0 || inputWords <= 0 {
		return 2
	}
	return 1 + (inputWords+capWords-1)/capWords
}

// frame is the MapReduce layout every driver shares: machine 0 is the
// central machine, data machine 1 + id mod (M−1) owns item id, broadcasts
// and aggregates go over the degree-n^µ tree of §2.2/§4.1 rooted at machine
// 0, and the driver draws from one RNG seeded by Params.Seed (the
// colourings draw their groups from that seed before colourGroups builds
// its frame). It also counts the driver's main-loop iterations against
// maxIterations. Its steps are the ones every driver would otherwise write
// out: a plan of per-machine items drawn before a round (drawPlan, or
// endPlan after each machine's part; planned in the round), a round in
// which only the central machine sends (centralRound), and the one-word
// all-reduces of counts, direct with a combine (directAllReduce) or over the
// tree (sumCounts).
type frame struct {
	name       string // the driver, for the iteration guard's error
	M          int
	cluster    *mpc.Cluster
	tree       *mpc.Tree
	r          *rng.RNG
	iterations int
	counts     []int64 // per-machine words of sumCounts and directAllReduce
	plan       []int   // drawPlan's ids, machine by machine
	planEnd    []int   // data machine k's ids are plan[planEnd[k-1]:planEnd[k]]
}

// newFrame sets up M machines under an enforced cap of capSlack·capWords
// words and the tree of degree treeDegree(base, µ); the caller closes
// f.cluster.
func newFrame(name string, p Params, M, capWords, base int) frame {
	cluster := newCluster(M, capWords, p, capSlack)
	return frame{
		name:    name,
		M:       M,
		cluster: cluster,
		tree:    mpc.NewTree(cluster, 0, treeDegree(base, p.Mu)),
		r:       rng.New(p.Seed),
		counts:  make([]int64, M),
		planEnd: make([]int, M),
	}
}

// owner is the data machine that owns item id (a vertex, edge, element or
// set): never the central machine. Data machine k's items among 0..n−1 are
// the ascending stride for id := k − 1; id < n; id += M − 1, which every
// driver walks in place of a list.
func (f *frame) owner(id int) int { return 1 + id%(f.M-1) }

// ownedCount is the length of data machine k's stride among the items
// 0..n−1: ⌈(n − (k−1)) / (M−1)⌉, and 0 when n ≤ k−1.
func (f *frame) ownedCount(k, n int) int { return (n - k + f.M - 1) / (f.M - 1) }

// next is the iteration guard: it counts one more iteration of the driver's
// main loop, or fails once maxIterations have run.
func (f *frame) next() error {
	if f.iterations >= maxIterations {
		return fmt.Errorf("core: %s exceeded %d iterations", f.name, maxIterations)
	}
	f.iterations++
	return nil
}

// drawPlan refills the plan with the items among 0..n−1 that pick takes,
// asking in machine order, then stride order — the order the machines would
// draw in — and arms every machine that took one, so a round's closures can
// replay their parts (planned) concurrently. It returns the whole plan, one
// slab that the next pass refills.
func (f *frame) drawPlan(n int, pick func(id int) bool) []int {
	f.plan = f.plan[:0]
	for machine := 1; machine < f.M; machine++ {
		for id := machine - 1; id < n; id += f.M - 1 {
			if pick(id) {
				f.plan = append(f.plan, id)
			}
		}
		f.endPlan(machine)
	}
	return f.plan
}

// endPlan closes data machine's part of a plan filled in machine order,
// arming the machine if its part is non-empty.
func (f *frame) endPlan(machine int) {
	f.planEnd[machine] = len(f.plan)
	if f.planEnd[machine] > f.planEnd[machine-1] {
		f.cluster.Arm(machine)
	}
}

// planned is machine's part of the plan: nothing for the central machine.
func (f *frame) planned(machine int) []int {
	if machine == 0 {
		return nil
	}
	return f.plan[f.planEnd[machine-1]:f.planEnd[machine]]
}

// setResident declares resident[machine] words on every machine.
func (f *frame) setResident(resident []int) {
	for machine, words := range resident {
		f.cluster.SetResident(machine, words)
	}
}

// sumCounts sums f.counts, one word per machine, over the tree.
func (f *frame) sumCounts() (int64, error) {
	total, err := f.tree.AllReduceSum(f.cluster, 1, func(machine int) []int64 {
		return f.counts[machine : machine+1]
	})
	if err != nil {
		return 0, err
	}
	return total[0], nil
}

// directAllReduce folds f.counts, one word per machine, with combine, using
// the 2-round direct scheme of Theorem 2.4's f = 2 case: every machine sends
// its word straight to the central machine, which folds them in machine
// order starting from 0 and replies with the result to every other machine —
// 2M − 1 one-word records. 0 must be combine's identity on the words (a sum,
// or the max of non-negative words). This beats the broadcast tree when M is
// small relative to the space cap (the tree exists because a direct send of
// a large payload could exceed the cap; a single word per machine cannot).
func (f *frame) directAllReduce(combine func(a, b int64) int64) (int64, error) {
	c, counts := f.cluster, f.counts
	c.ArmAll() // every machine contributes a word, empty inbox or not
	err := c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		out.SendInts(0, counts[machine])
	})
	if err != nil {
		return 0, err
	}
	total := int64(0)
	err = c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		if machine != 0 {
			return
		}
		for msg, ok := in.Next(); ok; msg, ok = in.Next() {
			total = combine(total, msg.Ints[0])
		}
		for to := 1; to < c.M(); to++ {
			out.SendInts(to, total)
		}
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// sumInt64 and maxInt64 are directAllReduce's combines.
func sumInt64(a, b int64) int64 { return a + b }

func maxInt64(a, b int64) int64 { return max(a, b) }

// centralRound runs a round in which only the central machine has work: it
// arms machine 0, which calls send(f, s, out); a machine that runs only to
// read a delivered inbox does nothing. send receives its state as s instead
// of capturing it, so the round allocates one closure, as a round written
// out by hand does.
func centralRound[S any](f *frame, s S, send func(f *frame, s S, out *mpc.Outbox)) error {
	f.cluster.Arm(0)
	return f.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		if machine == 0 {
			send(f, s, out)
		}
	})
}

// sendToOwners is a central send: each id to its owner as a one-word record.
func sendToOwners(f *frame, ids []int, out *mpc.Outbox) {
	for _, id := range ids {
		out.SendInts(f.owner(id), int64(id))
	}
}
