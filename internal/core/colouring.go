package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/seq"
)

// ColouringResult is the output of VertexColouring and EdgeColouring.
type ColouringResult struct {
	// Colours assigns a colour to every vertex (VertexColouring) or edge
	// (EdgeColouring). Colours are globally distinct across groups: colour
	// = group * (maxGroupColours) + local colour.
	Colours []int
	// NumColours is the number of distinct colours used.
	NumColours int
	// Groups is κ, the number of random groups.
	Groups int
	// MaxGroupDegree is the largest maximum degree of any group subgraph.
	MaxGroupDegree int
	// Metrics are the measured MapReduce costs.
	Metrics mpc.Metrics
}

// colouringGroups returns κ = n^{(c−µ)/2} clamped to [1, n], with c
// estimated from the instance (m = n^{1+c}).
func colouringGroups(n, m int, mu float64) int {
	if n < 2 || m == 0 {
		return 1
	}
	c := math.Log(float64(m))/math.Log(float64(n)) - 1
	if c < mu {
		return 1
	}
	k := int(math.Round(math.Pow(float64(n), (c-mu)/2)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// VertexColouring is Algorithm 5: (1+o(1))∆ vertex colouring in O(1) rounds
// (Theorem 6.4). Vertices are randomly partitioned into κ = n^{(c−µ)/2}
// groups; each group's induced subgraph is routed to its own machine, which
// colours it greedily with ∆_i + 1 colours; the global colour of v is the
// pair (group, local colour). Lemma 6.1 bounds ∆_i ≤ (1+o(1))∆/κ and
// Lemma 6.2 bounds each group's edge count by 13·n^{1+µ} w.h.p., so the
// total colour count is (1+o(1))∆.
func VertexColouring(g *graph.Graph, p Params) (*ColouringResult, error) {
	n, m := g.N, g.M()
	if n == 0 {
		return &ColouringResult{Colours: []int{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	kappa := colouringGroups(n, m, p.Mu)
	// Machine 0 coordinates; group i is coloured on machine 1+i; edges are
	// initially spread over all machines.
	M := 1 + kappa
	if dm := dataMachines(3*m, 4*etaWords); dm > M {
		M = dm
	}
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	r := rng.New(p.Seed)
	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	groupMachine := func(grp int) int { return 1 + grp%(M-1) }

	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := 0; id < m; id++ {
		resident[edgeOwner(id)] += 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	// Group assignment is a shared hash (every machine can evaluate it), so
	// no communication is needed to learn a vertex's group.
	group := make([]int, n)
	for v := 0; v < n; v++ {
		group[v] = r.Intn(kappa)
	}

	// Route round: every monochromatic edge goes to its group's machine.
	// The per-group edge lists are assembled up front in machine order,
	// then edge order — the order they arrive in — because groups are
	// shared destinations that concurrent senders could not append to. The
	// same pass arms the machines that will send (Arm deduplicates).
	groupEdges := make([][]graph.Edge, kappa)
	for machine := 1; machine < M; machine++ {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			if group[e.U] == group[e.V] {
				groupEdges[group[e.U]] = append(groupEdges[group[e.U]], e)
				cluster.Arm(machine)
			}
		}
	}
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			if group[e.U] == group[e.V] {
				out.SendInts(groupMachine(group[e.U]), int64(e.U), int64(e.V))
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Failure check (Line 4): any group with more than 13·n^{1+µ} edges
	// fails the algorithm (a w.h.p.-never event).
	capEdges := int(math.Ceil(13 * math.Pow(float64(n), 1+p.Mu)))
	for i, ge := range groupEdges {
		if len(ge) > capEdges {
			return nil, fmt.Errorf("core: VertexColouring group %d has %d > 13n^{1+µ} = %d edges", i, len(ge), capEdges)
		}
	}

	// Each group machine colours its induced subgraph greedily; one round
	// of local computation plus one output round. The groups are
	// independent (each writes only its own vertices' colours), so the
	// colouring runs under the cluster's executor.
	members := partitionByOwner(n, kappa, func(v int) int { return group[v] })
	colours := make([]int, n)
	localColour := make([]int, n)
	groupDeg := make([]int, kappa)
	groupMaxLocal := make([]int, kappa)
	cluster.Exec().Execute(kappa, func(i int) {
		sub, toLocal := induced(n, members[i], groupEdges[i])
		col := seq.GreedyVertexColouring(sub, nil)
		groupDeg[i] = sub.MaxDegree()
		for _, v := range members[i] {
			localColour[v] = col[toLocal[v]]
			if localColour[v] > groupMaxLocal[i] {
				groupMaxLocal[i] = localColour[v]
			}
		}
	})
	maxGroupDeg, maxLocal := 0, 0
	for i := 0; i < kappa; i++ {
		if groupDeg[i] > maxGroupDeg {
			maxGroupDeg = groupDeg[i]
		}
		if groupMaxLocal[i] > maxLocal {
			maxLocal = groupMaxLocal[i]
		}
	}
	// Output round: group machines emit (v, group, local colour), each from
	// the ascending list of the vertices whose group it hosts. A machine
	// hosting a group whose induced subgraph has no edges received no route
	// traffic, so every machine hosting any vertex's group is armed.
	emits := partitionByOwner(n, M, func(v int) int { return groupMachine(group[v]) })
	armPlanned(cluster, emits)
	err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, v := range emits[machine] {
			out.SendInts(0, int64(v), int64(group[v]), int64(localColour[v]))
		}
	})
	if err != nil {
		return nil, err
	}
	stride := maxLocal + 1
	for v := 0; v < n; v++ {
		colours[v] = group[v]*stride + localColour[v]
	}

	return &ColouringResult{
		Colours:        colours,
		NumColours:     graph.NumColours(colours),
		Groups:         kappa,
		MaxGroupDegree: maxGroupDeg,
		Metrics:        cluster.Metrics(),
	}, nil
}

// EdgeColouring is the edge-colouring variant of Algorithm 5 (Remark 6.5,
// Theorem 6.6): edges are randomly partitioned into κ groups, each group is
// edge-coloured with ∆_i + 1 colours by the Misra–Gries algorithm, and the
// global colour of an edge is the pair (group, local colour).
func EdgeColouring(g *graph.Graph, p Params) (*ColouringResult, error) {
	n, m := g.N, g.M()
	if m == 0 {
		return &ColouringResult{Colours: []int{}}, nil
	}
	etaWords := eta(n, p.Mu, 8)
	kappa := colouringGroups(n, m, p.Mu)
	M := 1 + kappa
	if dm := dataMachines(3*m, 4*etaWords); dm > M {
		M = dm
	}
	cluster := newCluster(M, etaWords, p, capSlack)
	defer cluster.Close()
	r := rng.New(p.Seed)
	edgeOwner := func(id int) int { return 1 + id%(M-1) }
	groupMachine := func(grp int) int { return 1 + grp%(M-1) }

	ownedEdges := partitionByOwner(m, M, edgeOwner)
	resident := make([]int, M)
	for id := 0; id < m; id++ {
		resident[edgeOwner(id)] += 3
	}
	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, resident[machine])
	}

	group := make([]int, m)
	for id := 0; id < m; id++ {
		group[id] = r.Intn(kappa)
	}

	// Route round: each edge goes to its group's machine, so every machine
	// owning an edge sends and is armed. The output round needs no arming:
	// a machine emits only for groups with edges, and those received route
	// traffic. Group edge lists are assembled up front in arrival (machine,
	// then edge) order.
	groupSize := make([]int, kappa)
	for _, grp := range group {
		groupSize[grp]++
	}
	groupIDs := make([][]int, kappa)
	for i, size := range groupSize {
		groupIDs[i] = make([]int, 0, size)
	}
	for machine := 1; machine < M; machine++ {
		if len(ownedEdges[machine]) > 0 {
			cluster.Arm(machine)
		}
		for _, id := range ownedEdges[machine] {
			groupIDs[group[id]] = append(groupIDs[group[id]], id)
		}
	}
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, id := range ownedEdges[machine] {
			e := g.Edges[id]
			out.SendInts(groupMachine(group[id]), int64(e.U), int64(e.V))
		}
	})
	if err != nil {
		return nil, err
	}
	capEdges := int(math.Ceil(13 * math.Pow(float64(n), 1+p.Mu)))
	for i, ids := range groupIDs {
		if len(ids) > capEdges {
			return nil, fmt.Errorf("core: EdgeColouring group %d has %d > %d edges", i, len(ids), capEdges)
		}
	}

	// Per-group Misra–Gries colouring is independent across groups (each
	// writes only its own edges' colours), so it runs under the cluster's
	// executor.
	colours := make([]int, m)
	localColour := make([]int, m)
	groupDeg := make([]int, kappa)
	groupMaxLocal := make([]int, kappa)
	cluster.Exec().Execute(kappa, func(i int) {
		// The group subgraph keeps the original vertex ids; its edge k is
		// edge groupIDs[i][k] of g.
		sub := graph.New(n)
		sub.Edges = make([]graph.Edge, len(groupIDs[i]))
		for k, id := range groupIDs[i] {
			e := g.Edges[id]
			sub.Edges[k] = graph.Edge{U: e.U, V: e.V, W: 1}
		}
		col := seq.MisraGries(sub)
		groupDeg[i] = sub.MaxDegree()
		for k, id := range groupIDs[i] {
			localColour[id] = col[k]
			if col[k] > groupMaxLocal[i] {
				groupMaxLocal[i] = col[k]
			}
		}
	})
	maxGroupDeg, maxLocal := 0, 0
	for i := 0; i < kappa; i++ {
		if groupDeg[i] > maxGroupDeg {
			maxGroupDeg = groupDeg[i]
		}
		if groupMaxLocal[i] > maxLocal {
			maxLocal = groupMaxLocal[i]
		}
	}
	// Output round: each machine emits, in ascending edge order, the edges
	// of the groups it hosts.
	emits := partitionByOwner(m, M, func(id int) int { return groupMachine(group[id]) })
	err = cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for _, id := range emits[machine] {
			out.SendInts(0, int64(id), int64(group[id]), int64(localColour[id]))
		}
	})
	if err != nil {
		return nil, err
	}
	stride := maxLocal + 1
	for id := 0; id < m; id++ {
		colours[id] = group[id]*stride + localColour[id]
	}

	return &ColouringResult{
		Colours:        colours,
		NumColours:     graph.NumColours(colours),
		Groups:         kappa,
		MaxGroupDegree: maxGroupDeg,
		Metrics:        cluster.Metrics(),
	}, nil
}

// induced builds the subgraph induced by members (ascending vertex ids of
// an n-vertex graph) from the edges among them, with compacted vertex ids.
// It returns the subgraph and the old→new vertex id map, -1 for a vertex
// outside members.
func induced(n int, members []int, edges []graph.Edge) (*graph.Graph, []int32) {
	toLocal := make([]int32, n)
	for v := range toLocal {
		toLocal[v] = -1
	}
	for local, v := range members {
		toLocal[v] = int32(local)
	}
	sub := graph.New(len(members))
	sub.Edges = make([]graph.Edge, len(edges))
	for k, e := range edges {
		sub.Edges[k] = graph.Edge{U: int(toLocal[e.U]), V: int(toLocal[e.V]), W: e.W}
	}
	return sub, toLocal
}
