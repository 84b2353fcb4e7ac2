package core

import (
	"repro/internal/graph"
	"repro/internal/mpc"
)

// LubyMIS is Luby's classic randomized maximal independent set algorithm
// executed in the MapReduce model, the O(log n)-round baseline the paper's
// hungry-greedy algorithms are measured against (§6 notes its clean
// MapReduce implementation via one machine per PRAM processor; here vertices
// are block-partitioned instead, which only helps).
//
// Each round every alive vertex draws a uniform priority and exchanges it
// with its alive neighbours; local minima join the independent set, and
// their neighbourhoods are removed. Expected rounds: O(log n).
func LubyMIS(g *graph.Graph, p Params) (*MISResult, error) {
	n := g.N
	if n == 0 {
		return &MISResult{Set: map[int]bool{}}, nil
	}
	g.Build()
	etaWords := eta(n, p.Mu, 8)
	f := newFrame("LubyMIS", p, dataMachines(3*n+2*g.M(), 4*etaWords), etaWords, n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	inI := make([]bool, n)
	dominated := make([]bool, n)
	aliveVertex := func(v int) bool { return !inI[v] && !dominated[v] }

	// Rounds only write per-vertex state owned by the invoking machine, so
	// they are race-free under a parallel executor.
	resident := make([]int, M)
	for v := 0; v < n; v++ {
		resident[f.owner(v)] += 3 + g.Degree(v)
	}
	f.setResident(resident)

	// beaten[u] == iterations: u has seen a better neighbour this iteration.
	// Owner-partitioned like the status arrays — a machine stamps only the
	// vertices it owns — and never cleared: the iteration number is the epoch.
	beaten := make([]int32, n)
	// Per-iteration scratch, sized once: the drawn priorities, which data
	// machines still own an alive vertex, and this iteration's local minima.
	priority := make([]float64, n)
	hasAlive := make([]bool, M)
	localMin := make([]bool, n)

	aliveCount := int64(n)
	for aliveCount > 0 {
		if err := f.next(); err != nil {
			return nil, err
		}

		// Draw priorities machine by machine before the round (the order the
		// machines would draw in), then exchange them along alive edges.
		// Ties are broken by vertex id; priorities are 53-bit uniform, so
		// ties are essentially impossible anyway. A machine participates in
		// this iteration's rounds exactly while it still owns an alive
		// vertex (an isolated alive vertex receives no traffic but must
		// still declare itself a local minimum), so those machines are
		// armed and retired machines go dormant.
		clear(hasAlive)
		for machine := 1; machine < M; machine++ {
			for v := machine - 1; v < n; v += M - 1 {
				if aliveVertex(v) {
					priority[v] = f.r.Float64()
					hasAlive[machine] = true
				}
			}
		}
		armAlive := func() {
			for machine := 1; machine < M; machine++ {
				if hasAlive[machine] {
					cluster.Arm(machine)
				}
			}
		}
		armAlive()
		err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			for v := machine - 1; v < n; v += M - 1 {
				if !aliveVertex(v) {
					continue
				}
				for _, u := range g.Neighbors(v) {
					if !inI[u] && !dominated[u] {
						out.Begin(f.owner(int(u)))
						out.Int(int64(u))
						out.Int(int64(v))
						out.Float(priority[v])
						out.End()
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}

		// Local minima join I and announce it to their neighbours' owners.
		better := func(pu float64, u int, pv float64, v int) bool {
			if pu != pv {
				return pu < pv
			}
			return u < v
		}
		clear(localMin)
		epoch := int32(f.iterations)
		armAlive()
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			// Every record is (recipient u, sending neighbour v; priority[v]).
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for i, pv := range run.Floats {
					u, v := int(run.Ints[2*i]), int(run.Ints[2*i+1])
					if better(pv, v, priority[u], u) {
						beaten[u] = epoch
					}
				}
			}
			for v := machine - 1; v < n; v += M - 1 {
				if !aliveVertex(v) {
					continue
				}
				if beaten[v] != epoch {
					localMin[v] = true
					for _, u := range g.Neighbors(v) {
						if !inI[u] && !dominated[u] {
							out.SendInts(f.owner(int(u)), int64(u), int64(v))
						}
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}

		// Apply: local minima enter I, their alive neighbours become
		// dominated. (Two adjacent local minima cannot both exist because
		// the priority order is strict.)
		err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
			// Every record is (recipient u, local minimum v).
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for i := 0; i < len(run.Ints); i += 2 {
					if u := int(run.Ints[i]); aliveVertex(u) && !localMin[u] {
						dominated[u] = true
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			if localMin[v] && aliveVertex(v) {
				inI[v] = true
			}
		}

		clear(f.counts)
		for v := 0; v < n; v++ {
			if aliveVertex(v) {
				f.counts[f.owner(v)]++
			}
		}
		if aliveCount, err = f.sumCounts(); err != nil {
			return nil, err
		}
	}

	return &MISResult{Set: graph.VertexSet(inI), Iterations: f.iterations, Metrics: cluster.Metrics()}, nil
}
