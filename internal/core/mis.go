package core

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// MISResult is the output of the maximal independent set algorithms.
type MISResult struct {
	// Set is the maximal independent set.
	Set map[int]bool
	// Iterations is the number of hungry-greedy batches executed.
	Iterations int
	// Phases is the number of degree-threshold phases executed.
	Phases int
	// History records the alive-edge count measured before each iteration
	// of MISFast: the decay trajectory of Lemma A.2 (factor n^{µ/8} per
	// iteration). Unused by the other MIS variants.
	History []int64
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// misState is the shared distributed state of Algorithms 2 and 6 and of
// Appendix B's clique: vertices (with adjacency lists) partitioned over data
// machines, per-vertex status and alive-degree, and the central machine's
// record of the independent set.
//
// In the complement view (Appendix B) the state runs the same hungry-greedy
// machinery on the complement graph, which is never materialized. The alive
// set is the clique's active set A, the central machine's additions join the
// clique, and every vertex that leaves A is marked dominated. dI still
// counts alive neighbours in g. The view differs in these places, each a
// branch on complement:
//   - degree is the complement degree |A| − 1 − dI;
//   - a sampled vertex ships its alive non-neighbours (writeNonNeighbours);
//   - disseminate keeps the batch's additions in clique and |A| in size, and
//     its records carry no joined bit;
//   - countHeavy sums with the direct all-reduce instead of the tree;
//   - hungryGreedy runs the relabeling rounds (relabel) before each sampling
//     pass, and stops once A is empty.
//
// The per-vertex arrays are owner-partitioned: during a round, machine k's
// RoundFunc invocation only ever writes entries of vertices it owns, so the
// rounds are race-free under a parallel executor. Random sampling decisions
// are drawn before the round starts (in machine order, then vertex order —
// the order the machines would draw in), and the round's closures read the
// resulting per-machine plans.
//
// Everything below the status arrays is driver scratch the state owns and
// resets per pass, so an iteration allocates nothing that grows with the
// graph: a sampling pass refills the frame's plan and the candidates (views
// of the central machine's inbox), the central machine's batch-local "left
// the alive set" marks clear by epoch, and a machine's complement marks are
// cleared by the record that set them.
type misState struct {
	frame
	g *graph.Graph

	inI       []bool // v ∈ I
	dominated []bool // v ∈ N+(I) \ I
	dI        []int  // alive degree: |N(v) \ N+(I)|, 0 if v ∈ N+(I)

	complement bool     // Appendix B's view: the hungry-greedy MIS of the complement graph
	size       int      // the complement view's |A|
	clique     []int    // the complement view's additions so far
	marks      [][]bool // the complement view's per-machine neighbour marks, made on first use

	sample []candidate   // the central machine's view of the pass, in submission order
	groups [][]candidate // chopGroups' result buffer
	batch  centralBatch  // the central machine's additions of the current iteration
	left   *markSet      // vertices the central machine removed from the alive set this batch
}

func (s *misState) aliveVertex(v int) bool { return !s.inI[v] && !s.dominated[v] }

// degree is an alive vertex's degree in the view's graph: dI, or its
// complement degree |A| − 1 − dI.
func (s *misState) degree(v int) int {
	if s.complement {
		return s.size - 1 - s.dI[v]
	}
	return s.dI[v]
}

// newMISState lays g's vertices out with their adjacency lists over the
// data machines under a budget of η = n^{1+µ} words; the caller closes the
// cluster.
func newMISState(name string, g *graph.Graph, p Params) *misState {
	g.Build()
	etaWords := eta(g.N, p.Mu, 8)
	s := &misState{
		frame:     newFrame(name, p, dataMachines(3*g.N+2*g.M(), 4*etaWords), etaWords, g.N),
		g:         g,
		inI:       make([]bool, g.N),
		dominated: make([]bool, g.N),
		dI:        make([]int, g.N),
		left:      newMarkSet(g.N),
	}
	resident := make([]int, s.M)
	for v := 0; v < g.N; v++ {
		s.dI[v] = g.Degree(v)
		resident[s.owner(v)] += 3 + g.Degree(v)
	}
	s.setResident(resident)
	s.cluster.SetResident(0, g.N) // central: I and N+(I) bitmaps
	return s
}

// candidate is a sampled vertex with its alive neighbours in the view's
// graph at sampling time (in the complement view its alive non-neighbours),
// as the central machine received them: a view of its record in Inbox(0),
// valid until the end of the next round, which recycles the inbox.
type candidate struct {
	v         int
	aliveNbrs []int64
}

// centralBatch is what the central machine decided in one iteration: the
// vertices that joined I and the alive neighbours they dominate.
type centralBatch struct {
	added        []int
	newDominated []int
}

// sampled sees the state after every sampling pass; tests set it.
var sampled = func(*misState) {}

// sampleToCentral is one sampling pass and its round: vertex v joins the
// sample with probability rate(v) — 0 for a vertex that does not take part,
// which draws nothing — and ships (v, alive neighbour list) to the central
// machine. The sampling decisions are drawn up front into the frame's plan,
// which the round's closures replay concurrently, sizing the column to the
// central machine by degree (a sampled vertex is alive, and between
// disseminates dI is its alive degree) and writing the list straight into
// it. In the complement view the list is v's alive non-neighbours, ascending
// and without v, found through a mark bitmap of the machine's own. The
// returned candidates are the central machine's inbox in submission order,
// which it chops into groups; reordering them is the caller's right.
func (s *misState) sampleToCentral(rate func(v int) float64) ([]candidate, error) {
	s.drawPlan(s.g.N, func(v int) bool { return s.r.Bernoulli(rate(v)) })
	err := s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		plan := s.planned(machine)
		words := len(plan)
		for _, v := range plan {
			words += s.degree(v)
		}
		out.Reserve(0, len(plan), words, 0)
		for _, v := range plan {
			out.Begin(0)
			out.Int(int64(v))
			if s.complement {
				s.writeNonNeighbours(machine, v, out)
			} else {
				for _, u := range s.g.Neighbors(v) {
					if s.aliveVertex(int(u)) {
						out.Int(int64(u))
					}
				}
			}
			out.End()
		}
	})
	if err != nil {
		return nil, err
	}
	s.sample = s.sample[:0]
	in := s.cluster.Inbox(0)
	for rec, ok := in.Next(); ok; rec, ok = in.Next() {
		s.sample = append(s.sample, candidate{v: int(rec.Ints[0]), aliveNbrs: rec.Ints[1:len(rec.Ints):len(rec.Ints)]})
	}
	in.Reset()
	sampled(s)
	return s.sample, nil
}

// writeNonNeighbours writes v's alive non-neighbours, ascending and without
// v, into machine's open record. machine's marks are set on v and its
// neighbours for the scan and cleared after it.
func (s *misState) writeNonNeighbours(machine, v int, out *mpc.Outbox) {
	mark := s.marks[machine]
	if mark == nil {
		mark = make([]bool, s.g.N)
		s.marks[machine] = mark
	}
	nbrs := s.g.Neighbors(v)
	mark[v] = true
	for _, u := range nbrs {
		mark[u] = true
	}
	for u := range mark {
		if !mark[u] && s.aliveVertex(u) {
			out.Int(int64(u))
		}
	}
	mark[v] = false
	for _, u := range nbrs {
		mark[u] = false
	}
}

// chopGroups shuffles a sample and splits it into groups of the given size.
// The groups are valid until the next call.
func (s *misState) chopGroups(sample []candidate, groupSize int) [][]candidate {
	s.r.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if groupSize < 1 {
		groupSize = 1
	}
	s.groups = s.groups[:0]
	for i := 0; i < len(sample); i += groupSize {
		s.groups = append(s.groups, sample[i:min(i+groupSize, len(sample))])
	}
	return s.groups
}

// singletonGroups sorts a gathered sample by vertex and makes every
// candidate its own group: the central greedy of a phase's last batch.
func (s *misState) singletonGroups(sample []candidate) [][]candidate {
	sort.Slice(sample, func(a, b int) bool { return sample[a].v < sample[b].v })
	s.groups = s.groups[:0]
	for k := range sample {
		s.groups = append(s.groups, sample[k:k+1])
	}
	return s.groups
}

// beginBatch starts a new central batch: nothing added, nobody removed.
func (s *misState) beginBatch() {
	s.batch.added = s.batch.added[:0]
	s.batch.newDominated = s.batch.newDominated[:0]
	s.left.clear()
}

// centralProcessGroups runs the hungry-greedy inner loop on the central
// machine: candidates arrive in groups; from each group the first vertex
// whose current alive degree (w.r.t. the central machine's view of N+(I))
// is at least threshold joins I. Candidate lists were computed against the
// alive set at sampling time; the central machine re-filters them against
// the vertices it has removed earlier in the same batch (s.left), exactly
// as the paper's central machine can (it holds the sampled neighbour
// lists). Additions accumulate in s.batch, so the degree classes of one
// MISFast iteration share a batch.
func (s *misState) centralProcessGroups(groups [][]candidate, threshold int) {
	isAlive := func(v int) bool {
		return s.aliveVertex(v) && !s.left.has(v)
	}
	for _, group := range groups {
		for _, cand := range group {
			if !isAlive(cand.v) {
				continue
			}
			deg := 0
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					deg++
				}
			}
			if deg < threshold {
				continue
			}
			s.batch.added = append(s.batch.added, cand.v)
			s.left.add(cand.v)
			for _, u := range cand.aliveNbrs {
				if isAlive(int(u)) {
					s.batch.newDominated = append(s.batch.newDominated, int(u))
					s.left.add(int(u))
				}
			}
			break
		}
	}
}

// disseminate ships the batch results back to the vertex owners (one routed
// round), then lets owners notify their dominated vertices' neighbours so
// every alive vertex can update dI (a second routed round plus a delivery
// round), mirroring the update step of Theorem 3.3's proof sketch.
func (s *misState) disseminate() error {
	if s.complement {
		s.clique = append(s.clique, s.batch.added...)
		s.size -= len(s.batch.added) + len(s.batch.newDominated)
	}
	// Round 1: central tells each owner which of its vertices entered I or
	// became dominated: (v, joined I), or (v) alone in the complement view,
	// where an owner only learns that v left A. Rounds 2 and 3 are driven
	// entirely by delivered records.
	err := centralRound(&s.frame, s, func(f *frame, s *misState, out *mpc.Outbox) {
		if s.complement {
			sendToOwners(f, s.batch.added, out)
			sendToOwners(f, s.batch.newDominated, out)
			return
		}
		for _, v := range s.batch.added {
			out.SendInts(f.owner(v), int64(v), 1)
		}
		for _, v := range s.batch.newDominated {
			out.SendInts(f.owner(v), int64(v), 0)
		}
	})
	if err != nil {
		return err
	}
	// Round 2: owners record the status change and broadcast "v left the
	// alive set" to the owners of v's neighbours. Every record has the same
	// shape, so the inbox is one run of records of run.IntLen words.
	err = s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
			for i := 0; i < len(run.Ints); i += run.IntLen {
				v := int(run.Ints[i])
				if run.IntLen == 2 && run.Ints[i+1] == 1 {
					s.inI[v] = true
				} else {
					s.dominated[v] = true
				}
				s.dI[v] = 0
				for _, u := range s.g.Neighbors(v) {
					out.SendInts(s.owner(int(u)), int64(u))
				}
			}
		}
	})
	if err != nil {
		return err
	}
	// Round 3: owners decrement dI of their still-alive vertices once per
	// removed neighbour. A vertex outside the alive set has had dI = 0 since
	// the round 2 that removed it, so the degree alone tells the two apart.
	// Every record is one word, so a run's Ints are the removed neighbours.
	return s.cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
			for _, u := range run.Ints {
				if s.dI[u] > 0 {
					s.dI[u]--
				}
			}
		}
	})
}

// finishCentrally gathers the remaining alive vertices with their alive
// adjacency onto the central machine (one round) and completes the
// independent set greedily: every leftover is its own group, in vertex
// order, under threshold 0.
func (s *misState) finishCentrally() error {
	leftovers, err := s.sampleToCentral(func(v int) float64 {
		if s.aliveVertex(v) {
			return 1
		}
		return 0
	})
	if err != nil {
		return err
	}
	s.beginBatch()
	s.centralProcessGroups(s.singletonGroups(leftovers), 0)
	return s.disseminate()
}

// aliveEdgeCount aggregates Σ_v alive dI(v) / 2 = |E_k| over the tree.
func (s *misState) aliveEdgeCount() (int64, error) {
	clear(s.counts)
	for v := 0; v < s.g.N; v++ {
		if s.aliveVertex(v) {
			s.counts[s.owner(v)] += int64(s.dI[v])
		}
	}
	total, err := s.sumCounts()
	return total / 2, err
}

// result assembles the final MISResult. The membership bitmap s.inI is the
// internal representation; the public map shape is a single pre-sized
// conversion (no per-insert rehash growth).
func (s *misState) result(phases int) *MISResult {
	return &MISResult{
		Set:        graph.VertexSet(s.inI),
		Iterations: s.iterations,
		Phases:     phases,
		Metrics:    s.cluster.Metrics(),
	}
}

// relabel charges the relabeling traffic of Appendix B: the central machine
// sends each active vertex its new label (one routed round) and every active
// vertex forwards its label to its neighbours (a second round). The
// simulator keeps vertex ids; the words charged are those of the real label
// exchange, which is what lets a vertex compute its complement list
// [k] \ σ(N_A(v)) in sublinear space.
func (s *misState) relabel() error {
	err := centralRound(&s.frame, s, func(f *frame, s *misState, out *mpc.Outbox) {
		for v := 0; v < s.g.N; v++ {
			if s.aliveVertex(v) {
				out.SendInts(f.owner(v), int64(v))
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
				for _, u := range s.g.Neighbors(int(v)) {
					out.SendInts(s.owner(int(u)), int64(u), v)
				}
			}
		}
	})
}

// countHeavy counts the vertices heavy takes: over the tree in the plain
// view, and with the direct all-reduce in the complement view.
func (s *misState) countHeavy(heavy func(v int) bool) (int64, error) {
	clear(s.counts)
	for v := 0; v < s.g.N; v++ {
		if heavy(v) {
			s.counts[s.owner(v)]++
		}
	}
	if s.complement {
		return s.directAllReduce(sumInt64)
	}
	return s.sumCounts()
}

// hungryGreedy runs Algorithm 2's phases i = 1..1/α (α = µ/2) in the state's
// view and returns their number. Phase i reduces the maximum alive degree
// from n^{1-(i-1)α} to n^{1-iα}: while at least n^{iα} heavy vertices
// (degree ≥ n^{1-iα}) remain, they self-sample ~n^{iα} groups of n^{µ/2}
// and the central machine adds one qualifying vertex per group; fewer are
// gathered and finished with the central greedy restricted to them
// (Line 12).
func (s *misState) hungryGreedy(mu float64) (int, error) {
	alpha := mu / 2
	if alpha <= 0 {
		alpha = 0.05
	}
	phases := int(math.Ceil(1 / alpha))
	nf := float64(s.g.N)
	groupSize := int(math.Ceil(math.Pow(nf, mu/2)))
	exhausted := func() bool { return s.complement && s.size == 0 }

	for i := 1; i <= phases && !exhausted(); i++ {
		threshold := max(1, int(math.Ceil(math.Pow(nf, 1-float64(i)*alpha))))
		heavyMin := math.Pow(nf, float64(i)*alpha)
		heavySet := func(v int) bool { return s.aliveVertex(v) && s.degree(v) >= threshold }
		// Every heavy vertex self-samples at the iteration's rate.
		prob := 0.0
		rate := func(v int) float64 {
			if heavySet(v) {
				return prob
			}
			return 0
		}
		for !exhausted() {
			heavy, err := s.countHeavy(heavySet)
			if err != nil {
				return 0, err
			}
			if heavy == 0 {
				break
			}
			if err := s.next(); err != nil {
				return 0, err
			}
			if s.complement {
				if err := s.relabel(); err != nil {
					return 0, err
				}
			}
			// Draw ~n^{iα} groups of n^{µ/2} heavy vertices (each joins with
			// probability groups·groupSize/|V_H|), or gather them all.
			gatherAll := float64(heavy) < heavyMin
			prob = 1
			if !gatherAll {
				prob = math.Min(1, heavyMin*float64(groupSize)/float64(heavy))
			}
			sample, err := s.sampleToCentral(rate)
			if err != nil {
				return 0, err
			}
			s.beginBatch()
			if gatherAll {
				s.centralProcessGroups(s.singletonGroups(sample), 0)
			} else {
				s.centralProcessGroups(s.chopGroups(sample, groupSize), threshold)
			}
			if err := s.disseminate(); err != nil {
				return 0, err
			}
			if gatherAll {
				break
			}
		}
	}
	return phases, nil
}

// MIS is Algorithm 2: the warm-up hungry-greedy maximal independent set in
// O(1/µ²) rounds (Theorem 3.3), hungryGreedy's phases in the plain view.
func MIS(g *graph.Graph, p Params) (*MISResult, error) {
	if g.N == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	s := newMISState("MIS", g, p)
	defer s.cluster.Close()
	phases, err := s.hungryGreedy(p.Mu)
	if err != nil {
		return nil, err
	}
	// All alive vertices now have dI < n^{1-phases*α} ≤ 1, i.e. dI = 0:
	// gather and add them all.
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	return s.result(phases), nil
}

// MISFast is Algorithm 6: the improved hungry-greedy maximal independent
// set in O(c/µ) rounds (Theorem A.3). Each iteration buckets alive vertices
// into degree classes V_{k,i} = {v : n^{1-iα} ≤ d_I(v) < n^{1-(i-1)α}},
// samples n^{(i+1)α} groups of n^{µ/2} vertices from each class, and the
// central machine adds one vertex with d_I ≥ n^{1-(i+1)α} per group; the
// alive edge count drops by a factor n^{µ/8} per iteration w.h.p.
// (Lemma A.2). When fewer than n^{1+µ} edges remain the residual graph is
// gathered and finished centrally.
func MISFast(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	s := newMISState("MISFast", g, p)
	defer s.cluster.Close()

	alpha := p.Mu / 8
	if alpha <= 0 {
		alpha = 0.0125
	}
	classes := int(math.Ceil(1 / alpha))
	nf := float64(n)
	logN := math.Log(nf)
	groupSize := int(math.Ceil(math.Pow(nf, p.Mu/2)))
	var history []int64

	// Per-iteration scratch, sized once: each vertex's degree class (0 for
	// none), the per-machine class histograms as one slab, each class's
	// sampling rate (class 0: never) and where its run of the class-ordered
	// sample starts.
	class := make([]int32, n)
	width := classes + 1
	machineClassCounts := make([]int64, s.M*width)
	classProb := make([]float64, width)
	classStart := make([]int, width+1)
	var byClass []candidate
	rate := func(v int) float64 { return classProb[class[v]] }

	for {
		edges, err := s.aliveEdgeCount()
		if err != nil {
			return nil, err
		}
		history = append(history, edges)
		if float64(edges) < math.Pow(nf, 1+p.Mu) {
			break
		}
		if err := s.next(); err != nil {
			return nil, err
		}
		// One sampling round covers all degree classes: each alive vertex
		// knows its class from d_I and self-samples with the class's rate.
		// Class i holds n^{1-iα} <= d < n^{1-(i-1)α}; status and d_I change
		// only in disseminate, so one evaluation per vertex serves the
		// histogram and the draw.
		clear(machineClassCounts)
		for v := 0; v < n; v++ {
			class[v] = 0
			if !s.aliveVertex(v) || s.dI[v] == 0 {
				continue
			}
			i := int(math.Ceil((1 - math.Log(float64(s.dI[v]))/logN) / alpha))
			i = min(max(i, 1), classes)
			class[v] = int32(i)
			machineClassCounts[s.owner(v)*width+i]++
		}
		classCounts, err := s.tree.AllReduceSum(s.cluster, width, func(machine int) []int64 {
			return machineClassCounts[machine*width : (machine+1)*width]
		})
		if err != nil {
			return nil, err
		}
		for i := 1; i <= classes; i++ {
			classProb[i] = 0
			if classCounts[i] != 0 {
				target := math.Pow(nf, float64(i+1)*alpha) * float64(groupSize)
				classProb[i] = math.Min(1, target/float64(classCounts[i]))
			}
		}
		sample, err := s.sampleToCentral(rate)
		if err != nil {
			return nil, err
		}
		// Each class's candidates in submission order, the classes back to
		// back: a stable counting sort of the sample.
		clear(classStart)
		for _, cand := range sample {
			classStart[class[cand.v]]++
		}
		for i := 1; i <= width; i++ {
			classStart[i] += classStart[i-1] // for now the end of class i's run
		}
		byClass = append(byClass[:0], sample...)
		for k := len(sample) - 1; k >= 0; k-- {
			i := class[sample[k].v]
			classStart[i]--
			byClass[classStart[i]] = sample[k]
		}
		// Central machine: process classes in increasing i; threshold for
		// class i is n^{1-(i+1)α}. The classes share one batch, so a vertex
		// removed by an earlier class is gone for the later ones.
		s.beginBatch()
		for i := 1; i <= classes; i++ {
			run := byClass[classStart[i]:classStart[i+1]]
			if len(run) == 0 {
				continue
			}
			threshold := int(math.Ceil(math.Pow(nf, 1-float64(i+1)*alpha)))
			if threshold < 1 {
				threshold = 1
			}
			s.centralProcessGroups(s.chopGroups(run, groupSize), threshold)
		}
		if err := s.disseminate(); err != nil {
			return nil, err
		}
	}
	if err := s.finishCentrally(); err != nil {
		return nil, err
	}
	res := s.result(0)
	res.History = history
	return res, nil
}
