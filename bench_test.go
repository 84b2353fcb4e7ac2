package repro

// One benchmark per row of the paper's Figure 1 (its single results
// exhibit), plus the ablations of DESIGN.md and the sequential baselines.
// Each benchmark runs the full MapReduce algorithm on the simulator and
// reports the model-level costs (rounds, words communicated, space per
// machine) as custom metrics alongside wall-clock time. The full sweep
// tables live in EXPERIMENTS.md and are regenerated by cmd/mrbench.

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/service"
	"repro/internal/setcover"
)

const (
	benchN  = 800
	benchC  = 0.3
	benchMu = 0.2
)

func benchGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	g := graph.Density(benchN, benchC, r)
	g.AssignUniformWeights(r, 1, 100)
	return g
}

func report(b *testing.B, m mpc.Metrics) {
	b.ReportMetric(float64(m.Rounds), "rounds")
	b.ReportMetric(float64(m.WordsSent)/float64(b.N), "words/op")
	b.ReportMetric(float64(m.MaxSpace), "maxspace")
	b.ReportMetric(float64(m.Machines), "machines")
}

// BenchmarkFig1VertexCover reproduces the Figure 1 row: weighted vertex
// cover, 2-approximation, O(c/µ) rounds, O(n^{1+µ}) space (Theorem 2.4).
func BenchmarkFig1VertexCover(b *testing.B) {
	g := benchGraph(1)
	w := make([]float64, g.N)
	r := rng.New(2)
	for i := range w {
		w[i] = r.UniformWeight(1, 10)
	}
	inst := setcover.FromVertexCover(g, w)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.RLRSetCover(inst, core.Params{Mu: benchMu, Seed: uint64(i)},
			core.CoverOptions{VertexCoverMode: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Weight > 2*res.LowerBound+1e-9 {
			b.Fatal("2-approximation violated")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1SetCoverF reproduces the Figure 1 row: weighted set cover,
// f-approximation, O((c/µ)²) rounds, O(f·n^{1+µ}) space (Theorem 2.4).
func BenchmarkFig1SetCoverF(b *testing.B) {
	r := rng.New(3)
	inst := setcover.RandomFrequency(300, 6000, 4, 10, r)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.RLRSetCover(inst, core.Params{Mu: benchMu, Seed: uint64(i)}, core.CoverOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !inst.IsCover(res.Cover) {
			b.Fatal("invalid cover")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1SetCoverLnDelta reproduces the Figure 1 row: weighted set
// cover, (1+ε)·ln∆ approximation (Theorem 4.6).
func BenchmarkFig1SetCoverLnDelta(b *testing.B) {
	r := rng.New(4)
	inst := setcover.RandomSized(3000, 250, 14, 8, r)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.HGSetCover(inst, core.Params{Mu: 0.3, Seed: uint64(i)},
			core.HGCoverOptions{Eps: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if !inst.IsCover(res.Cover) {
			b.Fatal("invalid cover")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1MIS reproduces the Figure 1 row: maximal independent set in
// O(c/µ) rounds (Theorem A.3), with the O(1/µ²) warm-up (Theorem 3.3) and
// Luby's O(log n) algorithm as comparators.
func BenchmarkFig1MIS(b *testing.B) {
	g := benchGraph(5)
	algos := []struct {
		name string
		run  func(seed uint64) (*core.MISResult, error)
	}{
		{"Alg6", func(s uint64) (*core.MISResult, error) { return core.MISFast(g, core.Params{Mu: benchMu, Seed: s}) }},
		{"Alg2", func(s uint64) (*core.MISResult, error) { return core.MIS(g, core.Params{Mu: benchMu, Seed: s}) }},
		{"Luby", func(s uint64) (*core.MISResult, error) { return core.LubyMIS(g, core.Params{Mu: benchMu, Seed: s}) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var m mpc.Metrics
			for i := 0; i < b.N; i++ {
				res, err := a.run(uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

// BenchmarkFig1Clique reproduces the Figure 1 row: maximal clique in O(1/µ)
// rounds without materializing the complement (Corollary B.1).
func BenchmarkFig1Clique(b *testing.B) {
	g := benchGraph(6)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.MaximalClique(g, core.Params{Mu: benchMu, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1Matching reproduces the Figure 1 row: weighted matching,
// 2-approximation, O(c/µ) rounds, O(n^{1+µ}) space (Theorem 5.6).
func BenchmarkFig1Matching(b *testing.B) {
	g := benchGraph(7)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.RLRMatching(g, core.Params{Mu: benchMu, Seed: uint64(i)}, core.MatchingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !graph.IsMatching(g, res.Edges) {
			b.Fatal("invalid matching")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1MatchingLinear reproduces the Appendix C variant: η = Θ(n)
// space and O(log n) rounds.
func BenchmarkFig1MatchingLinear(b *testing.B) {
	g := benchGraph(8)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.RLRMatching(g, core.Params{Mu: 0, Seed: uint64(i)},
			core.MatchingOptions{Eta: g.N})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1BMatching reproduces the Appendix D row: weighted
// b-matching, (3−2/b+2ε)-approximation.
func BenchmarkFig1BMatching(b *testing.B) {
	g := benchGraph(9)
	bf := func(int) int { return 3 }
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.BMatching(g, core.Params{Mu: benchMu, Seed: uint64(i)},
			core.BMatchingOptions{B: bf, Eps: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		if !graph.IsBMatching(g, res.Edges, bf) {
			b.Fatal("invalid b-matching")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1VertexColouring reproduces the Figure 1 row: (1+o(1))∆
// vertex colouring in O(1) rounds (Theorem 6.4).
func BenchmarkFig1VertexColouring(b *testing.B) {
	g := benchGraph(10)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.VertexColouring(g, core.Params{Mu: benchMu, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !graph.IsProperVertexColouring(g, res.Colours) {
			b.Fatal("improper colouring")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFig1EdgeColouring reproduces the Figure 1 row: (1+o(1))∆ edge
// colouring in O(1) rounds (Theorem 6.6).
func BenchmarkFig1EdgeColouring(b *testing.B) {
	g := benchGraph(11)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.EdgeColouring(g, core.Params{Mu: benchMu, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !graph.IsProperEdgeColouring(g, res.Colours) {
			b.Fatal("improper edge colouring")
		}
		m = res.Metrics
	}
	report(b, m)
}

// BenchmarkFilteringBaseline measures the Lattanzi et al. filtering baseline
// (maximal matching / unweighted vertex cover) used in the Figure 1
// comparison rows.
func BenchmarkFilteringBaseline(b *testing.B) {
	g := benchGraph(12)
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.FilteringMatching(g, core.Params{Mu: benchMu, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

// --- Ablation benches (DESIGN.md A1–A5) ---

// BenchmarkAblationSampleSize varies the sample budget η of Algorithm 1
// (Lemma 2.2's knob).
func BenchmarkAblationSampleSize(b *testing.B) {
	g := benchGraph(13)
	w := make([]float64, g.N)
	r := rng.New(14)
	for i := range w {
		w[i] = r.UniformWeight(1, 10)
	}
	inst := setcover.FromVertexCover(g, w)
	base := math.Pow(float64(g.N), 1+benchMu)
	for _, scale := range []float64{0.5, 1, 2} {
		scale := scale
		b.Run(sprintScale(scale), func(b *testing.B) {
			var m mpc.Metrics
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.RLRSetCover(inst, core.Params{Mu: benchMu, Seed: uint64(i)},
					core.CoverOptions{VertexCoverMode: true, Eta: int(base * scale)})
				if err != nil {
					b.Fatal(err)
				}
				m, iters = res.Metrics, res.Iterations
			}
			report(b, m)
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkAblationGroupSize varies µ (hence the hungry-greedy group size
// n^{µ/2}) in the MIS algorithms.
func BenchmarkAblationGroupSize(b *testing.B) {
	g := benchGraph(15)
	for _, mu := range []float64{0.1, 0.2, 0.4} {
		mu := mu
		b.Run(sprintScale(mu), func(b *testing.B) {
			var m mpc.Metrics
			for i := 0; i < b.N; i++ {
				res, err := core.MISFast(g, core.Params{Mu: mu, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

// BenchmarkAblationEpsAdjusted varies ε in the b-matching kill rule
// (Appendix D.2's fix).
func BenchmarkAblationEpsAdjusted(b *testing.B) {
	g := benchGraph(16)
	bf := func(int) int { return 3 }
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		eps := eps
		b.Run(sprintScale(eps), func(b *testing.B) {
			var m mpc.Metrics
			for i := 0; i < b.N; i++ {
				res, err := core.BMatching(g, core.Params{Mu: benchMu, Seed: uint64(i)},
					core.BMatchingOptions{B: bf, Eps: eps})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

// BenchmarkAblationBroadcast varies µ (hence the broadcast tree degree
// n^µ) in the general set cover path, where tree rounds dominate.
func BenchmarkAblationBroadcast(b *testing.B) {
	r := rng.New(17)
	inst := setcover.RandomFrequency(300, 6000, 4, 10, r)
	for _, mu := range []float64{0.05, 0.2, 0.5} {
		mu := mu
		b.Run(sprintScale(mu), func(b *testing.B) {
			var m mpc.Metrics
			for i := 0; i < b.N; i++ {
				res, err := core.RLRSetCover(inst, core.Params{Mu: mu, Seed: uint64(i)}, core.CoverOptions{})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

// BenchmarkAblationBucketing varies ε (the bucket width) in Algorithm 3.
func BenchmarkAblationBucketing(b *testing.B) {
	r := rng.New(18)
	inst := setcover.RandomSized(2000, 200, 12, 8, r)
	for _, eps := range []float64{0.05, 0.2, 1.0} {
		eps := eps
		b.Run(sprintScale(eps), func(b *testing.B) {
			var m mpc.Metrics
			for i := 0; i < b.N; i++ {
				res, err := core.HGSetCover(inst, core.Params{Mu: 0.3, Seed: uint64(i)},
					core.HGCoverOptions{Eps: eps})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Metrics
			}
			report(b, m)
		})
	}
}

// --- Executor pairs: sequential vs parallel round execution ---
//
// Each pair runs one algorithm on a large-n workload with the sequential
// executor (workers=1) and with a 4-goroutine pool (workers=4); results and
// model metrics are identical by construction (see TestExecutorEquivalence),
// so the pair isolates the wall-clock effect of parallel round execution.
// On multi-core hosts the parallel variant wins on these workloads (many
// machines, edge-heavy per-machine rounds); on a single-core host the pair
// degenerates to measuring the executor's overhead.

func executorBenchGraph() *graph.Graph {
	r := rng.New(99)
	g := graph.Density(4000, 0.45, r)
	g.AssignUniformWeights(r, 1, 100)
	return g
}

func benchLubyWorkers(b *testing.B, workers int) {
	g := executorBenchGraph()
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.LubyMIS(g, core.Params{Mu: 0.1, Seed: 5, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

func BenchmarkExecutorLubySeq(b *testing.B)  { benchLubyWorkers(b, 1) }
func BenchmarkExecutorLubyPar4(b *testing.B) { benchLubyWorkers(b, 4) }

func benchMatchingWorkers(b *testing.B, workers int) {
	g := executorBenchGraph()
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.RLRMatching(g, core.Params{Mu: 0.1, Seed: 5, Workers: workers},
			core.MatchingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

func BenchmarkExecutorMatchingSeq(b *testing.B)  { benchMatchingWorkers(b, 1) }
func BenchmarkExecutorMatchingPar4(b *testing.B) { benchMatchingWorkers(b, 4) }

func benchEdgeColouringWorkers(b *testing.B, workers int) {
	// Edge colouring is the compute-bound pair: the per-group Misra–Gries
	// colouring dominates and runs under the executor.
	g := executorBenchGraph()
	var m mpc.Metrics
	for i := 0; i < b.N; i++ {
		res, err := core.EdgeColouring(g, core.Params{Mu: 0.1, Seed: 5, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Metrics
	}
	report(b, m)
}

func BenchmarkExecutorEdgeColouringSeq(b *testing.B)  { benchEdgeColouringWorkers(b, 1) }
func BenchmarkExecutorEdgeColouringPar4(b *testing.B) { benchEdgeColouringWorkers(b, 4) }

// --- Neighbor-scan kernels ---
//
// The alive-neighbour accumulation every algorithm in this repository runs
// per machine, over the contiguous Neighbors / NeighborsW slabs; the
// validate benchmark shows the same kernel inside
// graph.IsMaximalIndependentSet.

func neighborScanGraph() *graph.Graph {
	r := rng.New(42)
	g := graph.Density(4000, 0.45, r)
	g.AssignUniformWeights(r, 1, 100)
	g.Build()
	return g
}

func BenchmarkNeighborScanCSR(b *testing.B) {
	g := neighborScanGraph()
	alive := make([]bool, g.N)
	for v := range alive {
		alive[v] = v%3 != 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkNeighborScanWeightedCSR(b *testing.B) {
	g := neighborScanGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for v := 0; v < g.N; v++ {
			nbrs, ws := g.NeighborsW(v)
			for k, u := range nbrs {
				if int(u) > v {
					sum += ws[k]
				}
			}
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkNeighborScanValidateMIS(b *testing.B) {
	g := neighborScanGraph()
	set := seq.GreedyMIS(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !graph.IsMaximalIndependentSet(g, set) {
			b.Fatal("invalid MIS")
		}
	}
}

// BenchmarkGraphBuild measures the CSR build itself (sequential vs the
// package's parallel path; identical slabs, see
// graph.TestBuildParallelMatchesSequential).
func benchGraphBuild(b *testing.B, workers int) {
	prev := graph.SetParallelism(workers)
	defer graph.SetParallelism(prev)
	g := neighborScanGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Invalidate()
		g.Build()
	}
}

func BenchmarkGraphBuildSeq(b *testing.B)  { benchGraphBuild(b, 1) }
func BenchmarkGraphBuildPar4(b *testing.B) { benchGraphBuild(b, 4) }

// --- Sparse round scheduling pairs ---
//
// BenchmarkSparseTail replays the tail-round pattern of the MIS algorithms
// (misState.disseminate: one sampled candidate ships to the central machine,
// the central machine routes the decision to the owner, the owner notifies
// two neighbours' owners, the owners apply the update) on a large cluster
// where almost every machine is already decided and dormant. A cluster
// without Config.Sparse runs every one of the M machines' no-op RoundFuncs
// each round; a sparse one runs only the 1-3 active machines per round,
// which is where the >= 2x win at GOMAXPROCS=1 comes from. Model metrics
// are identical by construction (mpc.TestSparseMatchesDense).

func benchSparseTail(b *testing.B, sparse bool) {
	const machines = 1024
	c := mpc.NewCluster(mpc.Config{Machines: machines, Sparse: sparse})
	defer c.Close()
	var m mpc.Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := 1 + i%(machines-1)
		// Sampling round: one owner ships its candidate to the central
		// machine.
		c.Arm(owner)
		err := c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine == owner {
				out.SendInts(0, int64(owner), int64(owner+1), int64(owner+2))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Decision round: central routes the verdict back to the owner.
		c.Arm(0)
		err = c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			if machine != 0 {
				return
			}
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				out.SendInts(int(msg.Ints[0]), msg.Ints[1], msg.Ints[2])
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Notify round: the owner tells its two neighbours' owners.
		err = c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				out.SendInts(1+int(msg.Ints[0])%(machines-1), msg.Ints[0])
				out.SendInts(1+int(msg.Ints[1])%(machines-1), msg.Ints[1])
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Apply round: the notified owners consume the updates.
		err = c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		m = c.Metrics()
	}
	b.ReportMetric(float64(m.ActiveSum)/float64(m.Rounds), "active/round")
}

func BenchmarkSparseTailDense(b *testing.B)  { benchSparseTail(b, false) }
func BenchmarkSparseTailSparse(b *testing.B) { benchSparseTail(b, true) }

// --- Executor round overhead ---
//
// A chunked batch of trivial tasks per round through a long-lived Pool. In
// steady state it spawns zero goroutines per round
// (mpc.TestPoolSteadyStateSpawnsNoGoroutines pins this) and allocates only
// its per-batch job header; run with -benchmem.

func BenchmarkExecutorRoundOverheadPersistent(b *testing.B) {
	const tasks = 256
	p := mpc.NewPool(4)
	defer p.Close()
	sink := make([]int64, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Execute(tasks, func(t int) { sink[t]++ })
	}
	b.StopTimer()
	for t := range sink {
		if sink[t] != int64(b.N) {
			b.Fatalf("task %d ran %d times, want %d", t, sink[t], b.N)
		}
	}
}

// --- Sequential baselines, for the wall-clock comparison columns ---

func BenchmarkSeqLocalRatioMatching(b *testing.B) {
	g := benchGraph(19)
	for i := 0; i < b.N; i++ {
		_ = seq.LocalRatioMatching(g)
	}
}

func BenchmarkSeqGreedyMatching(b *testing.B) {
	g := benchGraph(20)
	for i := 0; i < b.N; i++ {
		_ = seq.GreedyMatching(g)
	}
}

func BenchmarkSeqGreedySetCover(b *testing.B) {
	r := rng.New(21)
	inst := setcover.RandomSized(2000, 200, 12, 8, r)
	for i := 0; i < b.N; i++ {
		_ = seq.GreedySetCover(inst, 0)
	}
}

func BenchmarkSeqLocalRatioSetCover(b *testing.B) {
	r := rng.New(22)
	inst := setcover.RandomFrequency(300, 6000, 4, 10, r)
	for i := 0; i < b.N; i++ {
		_, _ = seq.LocalRatioSetCover(inst)
	}
}

func BenchmarkSeqMisraGries(b *testing.B) {
	r := rng.New(23)
	g := graph.Density(400, 0.3, r)
	for i := 0; i < b.N; i++ {
		_ = seq.MisraGries(g)
	}
}

func BenchmarkSeqGreedyMIS(b *testing.B) {
	g := benchGraph(24)
	for i := 0; i < b.N; i++ {
		_ = seq.GreedyMIS(g, nil)
	}
}

// benchmarkServiceThroughput measures the job engine's end-to-end
// throughput at a given worker-pool size: batches of jobs on one shared
// cached instance, every job a distinct seed so nothing coalesces or
// cache-hits — each is a full algorithm execution on its own mpc.Cluster.
// Pool=4 vs Pool=1 shows cross-job scaling on a multi-core host (results
// and model metrics are identical by the determinism contract; see
// internal/service tests).
func benchmarkServiceThroughput(b *testing.B, pool int) {
	e := service.NewEngine(service.Config{Pool: pool, Workers: 1, Results: 16, Instances: 4})
	defer e.Close()
	spec := service.InstanceSpec{Type: "density", N: 300, C: benchC, Seed: 17}
	const batch = 8
	seed := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*service.Job, 0, batch)
		for k := 0; k < batch; k++ {
			seed++
			j, err := e.Submit(service.JobRequest{Instance: spec, Alg: "mis", Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		for _, j := range jobs {
			j.Wait()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

func BenchmarkServiceThroughput1(b *testing.B) { benchmarkServiceThroughput(b, 1) }
func BenchmarkServiceThroughput4(b *testing.B) { benchmarkServiceThroughput(b, 4) }

func sprintScale(v float64) string {
	switch {
	case v >= 1:
		return "x" + itoa(int(v*100)) + "pct"
	default:
		return itoa(int(v*100)) + "pct"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// mappedScanGraph writes the neighbor-scan graph to a temp container and
// opens it mapped: the out-of-core counterpart of neighborScanGraph.
func mappedScanGraph(b *testing.B) *graph.Graph {
	b.Helper()
	path := filepath.Join(b.TempDir(), "scan.mrg")
	if err := graph.WriteContainerFile(path, neighborScanGraph()); err != nil {
		b.Fatal(err)
	}
	g, err := graph.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	return g
}

// BenchmarkMmapScan is BenchmarkNeighborScanCSR over the mmap-backed slabs:
// the two must stay within ~1.5x of each other (the views are the same
// int32 slices, so the only possible gap is page-fault noise on first
// touch).
func BenchmarkMmapScan(b *testing.B) {
	g := mappedScanGraph(b)
	alive := make([]bool, g.N)
	for v := range alive {
		alive[v] = v%3 != 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkContainerLoadText measures cold-loading the scan graph from the
// text format: the baseline the binary container's open path is measured
// against.
func BenchmarkContainerLoadText(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.txt")
	if err := graph.WriteFile(path, neighborScanGraph()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if g.N == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkContainerLoadBinary measures opening the same graph as a mapped
// binary container: O(header) work, so it must be at least an order of
// magnitude faster than the text decode.
func BenchmarkContainerLoadBinary(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.mrg")
	if err := graph.WriteFile(path, neighborScanGraph()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if !g.Mapped() {
			b.Fatal("container did not open mapped")
		}
		g.Close()
	}
}

// --- Round-trace triple ---
//
// The per-round price of observability on the same 64-machine
// half-rotation scatter: tracing off (no sink, no timestamps — pinned to
// zero extra allocations by mpc.TestRoundTraceOffNoAllocs), the ring sink
// (three time.Now calls plus one span copy into a recycled slot), and the
// Chrome-trace file sink (JSON encoding per round; io.Discard isolates
// encoding cost from disk). Results and model metrics are bit-identical
// across all three — timing never feeds back into the model.

func benchRoundTrace(b *testing.B, sink obs.TraceSink) {
	const machines = 64
	cfg := mpc.Config{Machines: machines}
	if sink != nil {
		cfg.Sink = sink
		cfg.TraceLabel = "bench"
	}
	c := mpc.NewCluster(cfg)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
			out.SendInts((machine+machines/2)%machines, int64(machine), int64(i))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTraceOff(b *testing.B)  { benchRoundTrace(b, nil) }
func BenchmarkRoundTraceRing(b *testing.B) { benchRoundTrace(b, obs.NewRingSink(256)) }
func BenchmarkRoundTraceFile(b *testing.B) { benchRoundTrace(b, obs.NewChromeTrace(io.Discard)) }
