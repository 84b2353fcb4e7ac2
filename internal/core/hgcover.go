package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mpc"
	"repro/internal/setcover"
)

// HGCoverOptions tunes HGSetCover.
type HGCoverOptions struct {
	// Eps is the ε of the ε-greedy rule: selected sets have cost ratio at
	// least 1/(1+ε) of the maximum, giving a (1+ε)·H_∆ approximation.
	// Defaults to 0.2.
	Eps float64
	// Preprocess enables the weight clamping of Remark 4.7: with
	// γ = max_j min_{S∋j} w(S) (a lower bound on OPT), every set of weight
	// at most γε/n is added to the cover upfront (total extra cost ≤ ε·OPT)
	// and every set of weight above m·γ is discarded (OPT ≤ m·γ). The
	// surviving weight spread is at most mn/ε, which bounds the number of
	// L-levels independent of the input weights.
	Preprocess bool
}

// HGSetCover is Algorithm 3: the hungry-greedy (1+ε)·H_∆ approximation for
// minimum weight set cover (Theorems 4.5 and 4.6).
//
// The algorithm maintains a cost-ratio level L (initially max |S_ℓ|/w_ℓ) and
// repeatedly exhausts the "bucket" of sets with |S_ℓ \ C|/w_ℓ ≥ L/(1+ε).
// Within an iteration the bucket-eligible sets are bucketed by uncovered
// size into 1/α classes (α = µ/8); from class i the algorithm samples
// ~2·m^{(i+1)α} groups of ~m^{µ/2} sets, and the central machine adds, per
// group, the first set that still has at least m^{1-(i+1)α}/2 uncovered
// elements. Lemma 4.3 shows the potential Φ = Σ_{eligible} |S_ℓ \ C| drops
// by a factor m^{µ/8} per iteration, so each bucket empties in
// O(log Φ / (µ log m)) iterations.
//
// When the bucket empties, L drops. The paper lowers L by exactly (1+ε);
// this implementation jumps L directly to the current maximum ratio (which
// the bucket-emptiness check computes anyway). That skips only empty
// buckets — in which the paper's algorithm would select nothing — so the
// solution is unchanged and the round count is only reduced.
func HGSetCover(inst *setcover.Instance, p Params, opt HGCoverOptions) (*CoverResult, error) {
	n := inst.NumSets()
	m := inst.NumElements
	if m == 0 {
		return &CoverResult{}, nil
	}
	eps := opt.Eps
	if eps <= 0 {
		eps = 0.2
	}
	// Space is m^{1+µ} words in the ground set size: the paper's m ≪ n regime.
	etaWords := eta(m, p.Mu, 8)
	inputWords := inst.TotalSize() + 2*n
	f := newFrame("HGSetCover", p, dataMachines(inputWords, 4*etaWords), etaWords, m)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster
	f.plan = make([]int, 0, n) // a pass plans each set at most once

	// Residents: set owners hold (elements, weight, uncovered count);
	// central holds the covered bitmap and the solution.
	resident := make([]int, M)
	for i, s := range inst.Sets {
		resident[f.owner(i)] += len(s) + 3
	}
	f.setResident(resident)
	cluster.SetResident(0, m+n)

	covered := make([]bool, m)
	coveredCount := 0
	dual := inst.Dual()
	uncov := make([]int, n)
	for i, s := range inst.Sets {
		uncov[i] = len(s)
	}
	var solution []int
	inSolution := make([]bool, n)
	excluded := make([]bool, n)

	if opt.Preprocess {
		// Remark 4.7. γ is computed with one aggregation up the tree (each
		// machine contributes per-element minima over its sets) and one
		// broadcast down; the simulator charges those rounds.
		gamma, err := remark47Gamma(&f, inst)
		if err != nil {
			return nil, err
		}
		cheap := gamma * eps / float64(n)
		expensive := float64(m) * gamma
		for i := 0; i < n; i++ {
			switch {
			case inst.Weights[i] <= cheap:
				inSolution[i] = true
				solution = append(solution, i)
				for _, e := range inst.Sets[i] {
					if !covered[e] {
						covered[e] = true
						coveredCount++
						for _, j := range dual[e] {
							uncov[j]--
						}
					}
				}
			case inst.Weights[i] > expensive:
				excluded[i] = true
			}
		}
	}

	alpha := p.Mu / 8
	if alpha <= 0 {
		alpha = 0.0125
	}
	classes := int(math.Ceil(1 / alpha))
	mf := float64(m)
	groupSample := math.Pow(mf, p.Mu/2)
	// Class i has numGroups[i] = ⌈2·m^{(i+1)α}⌉ groups, which depends on m
	// and α only; its group g is global group gbase[i]+g.
	numGroups := make([]int, classes+1)
	gbase := make([]int, classes+2)
	for i := 1; i <= classes; i++ {
		numGroups[i] = int(math.Ceil(2 * math.Pow(mf, float64(i+1)*alpha)))
		gbase[i+1] = gbase[i] + numGroups[i]
	}

	// maxRatio aggregates the maximum eligible cost ratio to the central
	// machine and back (the direct all-reduce of the f = 2 case). Weights
	// are positive, so a ratio is > 0, and on non-negative float64s the bits
	// order as int64s do: each machine's best and the max over them are
	// exact in bits.
	maxRatio := func() (float64, error) {
		clear(f.counts)
		for i := 0; i < n; i++ {
			if inSolution[i] || excluded[i] || uncov[i] == 0 {
				continue
			}
			ratio := int64(math.Float64bits(float64(uncov[i]) / inst.Weights[i]))
			f.counts[f.owner(i)] = max(f.counts[f.owner(i)], ratio)
		}
		best, err := f.directAllReduce(maxInt64)
		return math.Float64frombits(uint64(best)), err
	}

	classOf := func(sz int) int {
		if sz <= 0 {
			return -1
		}
		i := int(math.Ceil((1 - math.Log(float64(sz))/math.Log(mf)) / alpha))
		if i < 1 {
			i = 1
		}
		if i > classes {
			i = classes
		}
		return i
	}

	L, err := maxRatio()
	if err != nil {
		return nil, err
	}

	// Per-iteration scratch, allocated once. A sampled set becomes one entry
	// whose payload [set, k, k group ids, uncovered elements] is a range of
	// slab; the central machine reads the elements from the same range. The
	// frame's plan lists the entries' indices, machine j's part those of its
	// sets (draw order: machine, then set). members lists (global group,
	// entry) pairs in draw order; a stable counting sort lays them out as
	// byGroup, group g holding byGroup[gstart[g]:gstart[g+1]] in draw order.
	// A set's group ids are drawn into gids over the duplicate table
	// drawTable.
	type sampleEntry struct{ set, payload, elems, end int }
	type membership struct{ group, entry int32 }
	var (
		slab      []int64
		entries   []sampleEntry
		members   []membership
		byGroup   []int32
		deltaC    []int64
		gids      []int
		drawTable []uint64
	)
	gstart := make([]int32, gbase[classes+1]+2)
	width := classes + 1
	machineClass := make([]int64, M*width)
	setClass := make([]int32, n)
	maxGroup := int(math.Ceil(4 * groupSample))

	for coveredCount < m {
		if err := f.next(); err != nil {
			return nil, err
		}
		cur, err := maxRatio()
		if err != nil {
			return nil, err
		}
		if cur <= 0 {
			return nil, fmt.Errorf("core: HGSetCover stalled with %d/%d covered", coveredCount, m)
		}
		if cur < L/(1+eps) {
			// Bucket empty: drop L. (Jumping straight to the max ratio
			// skips the empty buckets; see the doc comment.)
			L = cur
		}

		// Aggregate class sizes |S_{k,i}| over the tree. setClass[i] is the
		// class of an eligible set (uncovered ratio at least L/(1+ε)), 0 for
		// any other.
		clear(machineClass)
		for i := 0; i < n; i++ {
			setClass[i] = 0
			if !inSolution[i] && !excluded[i] && uncov[i] > 0 &&
				float64(uncov[i])/inst.Weights[i] >= L/(1+eps) {
				setClass[i] = int32(classOf(uncov[i]))
				machineClass[f.owner(i)*width+int(setClass[i])]++
			}
		}
		classCounts, err := f.tree.AllReduceSum(cluster, width, func(machine int) []int64 {
			return machineClass[machine*width : (machine+1)*width]
		})
		if err != nil {
			return nil, err
		}

		// Sampling round: each eligible set joins each of its class's
		// 2·m^{(i+1)α} groups independently with probability
		// min(1, m^{µ/2}/|S_{k,i}|); the set ships its uncovered elements
		// plus its group list to the central machine. Each machine's
		// memberships are drawn before the round (machine order, then set
		// order); the closures replay the per-machine payloads concurrently.
		slab, entries, members, f.plan = slab[:0], entries[:0], members[:0], f.plan[:0]
		for machine := 1; machine < M; machine++ {
			for i := machine - 1; i < n; i += M - 1 {
				cls := int(setClass[i])
				if cls == 0 || classCounts[cls] == 0 {
					continue
				}
				prob := math.Min(1, groupSample/float64(classCounts[cls]))
				k := f.r.Binomial(numGroups[cls], prob)
				if k == 0 {
					continue
				}
				gids, drawTable = f.r.SampleAppend(gids[:0], drawTable, numGroups[cls], k)
				slab = growDoubling(slab, 2+k+len(inst.Sets[i]))
				members = growDoubling(members, k)
				entry := sampleEntry{set: i, payload: len(slab)}
				slab = append(slab, int64(i), int64(k))
				for _, gid := range gids {
					slab = append(slab, int64(gid))
					members = append(members, membership{int32(gbase[cls] + gid), int32(len(entries))})
				}
				entry.elems = len(slab)
				for _, e := range inst.Sets[i] {
					if !covered[e] {
						slab = append(slab, int64(e))
					}
				}
				entry.end = len(slab)
				f.plan = append(f.plan, len(entries))
				entries = append(entries, entry)
			}
			f.endPlan(machine)
		}
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, ei := range f.planned(machine) {
				e := entries[ei]
				out.Send(0, slab[e.payload:e.end], nil)
			}
		})
		if err != nil {
			return nil, err
		}

		// Bucket the memberships by group (counts in gstart[g+2], so that
		// after the prefix sums and the placement gstart[g] is group g's
		// start). Claim 4.1 check: any group larger than 4·m^{µ/2} fails this
		// iteration (Lines 15-17: skip to the next iteration).
		clear(gstart)
		overflow := false
		for _, mb := range members {
			gstart[mb.group+2]++
			if int(gstart[mb.group+2]) > maxGroup {
				overflow = true
			}
		}
		if overflow {
			continue
		}
		for g := 1; g < len(gstart); g++ {
			gstart[g] += gstart[g-1]
		}
		byGroup = growDoubling(byGroup[:0], len(members))[:len(members)]
		for _, mb := range members {
			byGroup[gstart[mb.group+1]] = mb.entry
			gstart[mb.group+1]++
		}

		// Central machine (Lines 18-22): per class, per group, add the
		// first set that still has ≥ m^{1-(i+1)α}/2 uncovered elements.
		deltaC = deltaC[:0]
		for i := 1; i <= classes; i++ {
			threshold := math.Pow(mf, 1-float64(i+1)*alpha) / 2
			for g := gbase[i]; g < gbase[i+1]; g++ {
				for _, ei := range byGroup[gstart[g]:gstart[g+1]] {
					entry := entries[ei]
					if inSolution[entry.set] {
						continue
					}
					elems := slab[entry.elems:entry.end]
					curUncov := 0
					for _, e := range elems {
						if !covered[e] {
							curUncov++
						}
					}
					if float64(curUncov) < threshold {
						continue
					}
					inSolution[entry.set] = true
					solution = append(solution, entry.set)
					for _, e := range elems {
						if !covered[e] {
							covered[e] = true
							coveredCount++
							deltaC = append(deltaC, e)
						}
					}
					break
				}
			}
		}

		// Broadcast ΔC down the tree; owners refresh their uncovered
		// counts. Only the sets containing a newly covered element change,
		// so the refresh walks ΔC's dual lists: O(total size) over the whole
		// run. uncov counts occurrences, and the dual holds one entry per
		// occurrence, so it stays exact for sets that repeat an element.
		if err := f.tree.Broadcast(cluster, deltaC, nil); err != nil {
			return nil, err
		}
		for _, e := range deltaC {
			for _, i := range dual[e] {
				uncov[i]--
			}
		}
	}

	return &CoverResult{
		Cover:      append([]int(nil), solution...),
		Weight:     inst.Weight(solution),
		Iterations: f.iterations,
		Metrics:    cluster.Metrics(),
	}, nil
}

// growDoubling returns s with room for need more elements, at least doubling
// its capacity when it has to grow. append grows a large slice by about a
// quarter at a time, so a slice that grows to its size by appends
// reallocates about five times that size; doubling keeps it to about twice.
func growDoubling[T any](s []T, need int) []T {
	if cap(s)-len(s) >= need {
		return s
	}
	return slices.Grow(s, max(need, 2*cap(s)-len(s)))
}

// remark47Gamma computes γ = max_j min_{S∋j} w(S), the preprocessing pivot
// of Remark 4.7, charging one aggregation and one broadcast. Machines hold
// sets, so each machine first derives per-element minima over its own sets;
// the elementwise minima are combined up the tree (simulated here as a
// direct aggregation of each machine's (element, weight) pairs, whose total
// volume is at most the input size).
func remark47Gamma(f *frame, inst *setcover.Instance) (float64, error) {
	// The elementwise minima are computed up front (elements are shared
	// across machines, so they cannot be folded inside the concurrent
	// round); the round ships each machine's pairs, the elements of its
	// planned sets and then their weights, to the central machine as one
	// record.
	minW := make([]float64, inst.NumElements)
	for j := range minW {
		minW[j] = math.Inf(1)
	}
	for i, s := range inst.Sets {
		for _, e := range s {
			if inst.Weights[i] < minW[e] {
				minW[e] = inst.Weights[i]
			}
		}
	}
	f.drawPlan(len(inst.Sets), func(i int) bool { return len(inst.Sets[i]) > 0 })
	err := f.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		plan := f.planned(machine)
		if len(plan) == 0 {
			return
		}
		out.Begin(0)
		for _, i := range plan {
			for _, e := range inst.Sets[i] {
				out.Int(int64(e))
			}
		}
		for _, i := range plan {
			for range inst.Sets[i] {
				out.Float(inst.Weights[i])
			}
		}
		out.End()
	})
	if err != nil {
		return 0, err
	}
	gamma := 0.0
	for _, w := range minW {
		if !math.IsInf(w, 1) && w > gamma {
			gamma = w
		}
	}
	// Broadcast γ so machines can apply the clamps locally.
	if err := f.tree.Broadcast(f.cluster, nil, []float64{gamma}); err != nil {
		return 0, err
	}
	return gamma, nil
}
