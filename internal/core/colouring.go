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
	n := g.N
	if n == 0 {
		return &ColouringResult{Colours: []int{}}, nil
	}
	kappa := colouringGroups(n, g.M(), p.Mu)
	// Group assignment is a shared hash (every machine can evaluate it), so
	// no communication is needed to learn a vertex's group. Only the
	// monochromatic edges are routed.
	r := rng.New(p.Seed)
	group := make([]int, n)
	for v := range group {
		group[v] = r.Intn(kappa)
	}
	// An edge is routed to its endpoints' group when they share one.
	edgeGroup := func(id int) int {
		e := g.Edges[id]
		if gu := group[e.U]; gu == group[e.V] {
			return gu
		}
		return -1
	}
	members := partitionByOwner(n, kappa, func(v int) int { return group[v] })
	// Each group is coloured greedily straight from g's index, counting only
	// its own neighbours: no induced subgraph is copied. The groups read g
	// concurrently, so its index is built before the fan-out.
	g.Build()
	return colourGroups("VertexColouring", g, p, kappa, group, edgeGroup, members, func(i int, items, local []int) int {
		return seq.GreedyVertexColouringOf(g, items, group, i, local)
	})
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
	kappa := colouringGroups(n, m, p.Mu)
	r := rng.New(p.Seed)
	group := make([]int, m)
	for id := range group {
		group[id] = r.Intn(kappa)
	}
	// Every edge is routed to its own group's machine, which colours the
	// group straight from its routed ids: the subgraph keeps g's vertex ids.
	edgeGroup := func(id int) int { return group[id] }
	return colourGroups("EdgeColouring", g, p, kappa, group, edgeGroup, nil, func(i int, ids, local []int) int {
		return seq.MisraGriesOf(g, ids, local)
	})
}

// colourGroups runs Algorithm 5 once its items (the vertices, or the edges)
// are in κ random groups: group[x] is item x's group, and edgeGroup(id) is
// the group whose machine edge id is routed to, or −1 if it goes nowhere.
// Edges start spread over data machines 1..M−1 (3 resident words each) and
// group i is coloured on machine 1 + i mod (M−1). members[i] lists group
// i's items; nil means the items are the edges, so a group's members are
// its routed ids, collected only then. colourGroup(i, items, local) colours
// group i's items, writes each one's local colour into local, and returns
// the group's maximum degree; it writes only its own items, so the groups
// run under the cluster's executor. The global colour of x is
// group[x]·stride + local[x], where stride is one more than the largest
// local colour of any group.
func colourGroups(name string, g *graph.Graph, p Params, kappa int, group []int, edgeGroup func(id int) int,
	members [][]int, colourGroup func(i int, items, local []int) int) (*ColouringResult, error) {
	n, m := g.N, g.M()
	etaWords := eta(n, p.Mu, 8)
	// Machine 0 collects the output and group i is coloured on machine 1+i,
	// so there are at least 1+κ machines.
	f := newFrame(name, p, max(1+kappa, dataMachines(3*m, 4*etaWords)), etaWords, n)
	defer f.cluster.Close()
	M, cluster := f.M, f.cluster

	for machine := 1; machine < M; machine++ {
		cluster.SetResident(machine, 3*f.ownedCount(machine, m))
	}

	// Route round: every routed edge goes to its group's machine. One pass
	// over each machine's edges counts the groups' sizes, counts what the
	// machine sends to each of the hosts 1..hosts, and arms the machines
	// that will send. Edge groups are then listed by their routed ids, sized
	// by the counts and filled up front in the order the edges arrive in —
	// machine, then edge — because groups are shared destinations that
	// concurrent senders could not append to.
	hosts := min(kappa, M-1)
	groupSize := make([]int, kappa)
	routed := make([]int, (M-1)*hosts)
	for machine := 1; machine < M; machine++ {
		sends := false
		row := routed[(machine-1)*hosts : machine*hosts]
		for id := machine - 1; id < m; id += M - 1 {
			if grp := edgeGroup(id); grp >= 0 {
				groupSize[grp]++
				row[f.owner(grp)-1]++
				sends = true
			}
		}
		if sends {
			cluster.Arm(machine)
		}
	}
	if members == nil {
		members = make([][]int, kappa)
		for i, size := range groupSize {
			members[i] = make([]int, 0, size)
		}
		for machine := 1; machine < M; machine++ {
			for id := machine - 1; id < m; id += M - 1 {
				if grp := edgeGroup(id); grp >= 0 {
					members[grp] = append(members[grp], id)
				}
			}
		}
	}
	// Only the armed data machines run: machine 0 has nothing to send. The
	// group machines colour from members, so each machine charges host 1+j
	// its routed[j] (u, v) records instead of writing them.
	err := cluster.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
		for j, k := range routed[(machine-1)*hosts : machine*hosts] {
			out.Charge(1+j, k, 2*k, 0)
		}
	})
	if err != nil {
		return nil, err
	}

	// Failure check (Line 4): any group with more than 13·n^{1+µ} edges
	// fails the algorithm (a w.h.p.-never event).
	capEdges := int(math.Ceil(13 * math.Pow(float64(n), 1+p.Mu)))
	for i, size := range groupSize {
		if size > capEdges {
			return nil, fmt.Errorf("core: %s group %d has %d > 13n^{1+µ} = %d edges", name, i, size, capEdges)
		}
	}

	// Each group machine colours its group: local computation, no round.
	local := make([]int, len(group))
	groupDeg := make([]int, kappa)
	cluster.Exec().Execute(kappa, func(i int) {
		groupDeg[i] = colourGroup(i, members[i], local)
	})
	maxGroupDeg, maxLocal := 0, 0
	for _, deg := range groupDeg {
		maxGroupDeg = max(maxGroupDeg, deg)
	}
	for _, c := range local {
		maxLocal = max(maxLocal, c)
	}

	// Output round: each group machine emits (x, group, local colour) for
	// the members of the groups it hosts; the driver reads local, so the
	// records are charged. A machine hosting a group with no routed edges
	// received no route traffic, so every machine hosting a group with
	// members is armed.
	for i, items := range members {
		if len(items) > 0 {
			cluster.Arm(f.owner(i))
		}
	}
	err = gatherRound(&f, members, func(f *frame, members [][]int, machine int) (recs, ints, floats int) {
		for i := machine - 1; i < len(members); i += f.M - 1 {
			recs += len(members[i])
		}
		return recs, 3 * recs, 0
	})
	if err != nil {
		return nil, err
	}
	stride := maxLocal + 1
	colours := local
	for x := range colours {
		colours[x] += group[x] * stride
	}
	// The id slabs are done with. The output round's closure captures
	// members; the collector can pin a dead closure through a stale word in
	// a preempted goroutine's innermost frame, which it scans
	// conservatively. Dropped here, the slabs cannot be pinned with it
	// (DESIGN.md, Algorithm 5); edgeGroup holds the caller's group slab.
	members, group, edgeGroup = nil, nil, nil

	return &ColouringResult{
		Colours:        colours,
		NumColours:     graph.NumColours(colours),
		Groups:         kappa,
		MaxGroupDegree: maxGroupDeg,
		Metrics:        cluster.Metrics(),
	}, nil
}
