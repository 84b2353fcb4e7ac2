package mpc

import "fmt"

// This file implements the degree-d broadcast/aggregation tree of §2.2 and
// §4.1 of the paper. Sending a message from a central machine to all M
// machines directly could exceed the sender's space cap, so the paper routes
// it over a tree of degree d = n^µ and depth ceil(log_d M), charging that
// many MapReduce rounds. The helpers here execute those rounds for real on
// the cluster, so round counts and word counts include the tree traffic.
//
// Delivery semantics: a message emitted in round r is readable at the start
// of round r+1. Each helper therefore runs Depth()+1 rounds (for M > 1): the
// final round consumes the last in-flight messages, leaving the cluster's
// inboxes empty for the caller.

// Tree is a rooted d-ary tree over the machines of a cluster. The tree
// shape is fixed at construction: per-position depths and the height are
// computed once in NewTree and cached, because the per-round closures of
// Broadcast and AggregateSum consult them for every machine every round.
type Tree struct {
	root    int
	degree  int
	m       int
	depths  []int   // depth by tree position (position 0 = root)
	height  int     // max over positions of depths
	byDepth [][]int // machine ids per depth, used to arm each level's senders
}

// NewTree returns a d-ary tree over the cluster's machines rooted at root.
// Degrees below 2 are clamped to 2.
func NewTree(c *Cluster, root, degree int) *Tree {
	if degree < 2 {
		degree = 2
	}
	if root < 0 || root >= c.M() {
		panic(fmt.Sprintf("mpc: tree root %d out of range", root))
	}
	t := &Tree{root: root, degree: degree, m: c.M()}
	// depths[p] follows from the parent recurrence p -> (p-1)/d; positions
	// are numbered level by level, so the height is the last position's
	// depth (the closed form ceil(log_d(p(d-1)+1)) without the float error).
	t.depths = make([]int, t.m)
	for p := 1; p < t.m; p++ {
		t.depths[p] = t.depths[(p-1)/degree] + 1
	}
	if t.m > 1 {
		t.height = t.depths[t.m-1]
	}
	t.byDepth = make([][]int, t.height+1)
	for p := 0; p < t.m; p++ {
		t.byDepth[t.depths[p]] = append(t.byDepth[t.depths[p]], t.machine(p))
	}
	return t
}

// pos maps a machine id to its position in the tree (root has position 0).
func (t *Tree) pos(machine int) int { return ((machine - t.root) + t.m) % t.m }

// machine maps a tree position back to a machine id.
func (t *Tree) machine(pos int) int { return (pos + t.root) % t.m }

// parent returns the machine id of the parent, or -1 for the root.
func (t *Tree) parent(machine int) int {
	p := t.pos(machine)
	if p == 0 {
		return -1
	}
	return t.machine((p - 1) / t.degree)
}

// childRange returns the half-open position range [lo, hi) of the children
// of position p: the contiguous block p·d+1 .. p·d+d, clipped to the tree.
func (t *Tree) childRange(p int) (lo, hi int) {
	lo = p*t.degree + 1
	hi = lo + t.degree
	if lo > t.m {
		lo = t.m
	}
	if hi > t.m {
		hi = t.m
	}
	return lo, hi
}

// children returns the machine ids of the children of machine.
func (t *Tree) children(machine int) []int {
	lo, hi := t.childRange(t.pos(machine))
	var out []int
	for q := lo; q < hi; q++ {
		out = append(out, t.machine(q))
	}
	return out
}

// depth returns the depth of machine in the tree (root = 0).
func (t *Tree) depth(machine int) int { return t.depths[t.pos(machine)] }

// Depth returns the height of the tree: the number of hops a broadcast
// needs to reach the deepest machine.
func (t *Tree) Depth() int { return t.height }

// Broadcast sends the payload from the tree's root to every machine over
// Depth()+1 rounds. The payload itself is shared simulator-side; what the
// helper does is execute the real rounds and charge their traffic, one
// record of the payload per tree edge (Outbox.Charge): no machine reads it.
func (t *Tree) Broadcast(c *Cluster, ints []int64, floats []float64) error {
	depth := t.Depth()
	if depth == 0 {
		return nil
	}
	for r := 0; r <= depth; r++ {
		if r == 0 {
			// Sparse scheduling: the root starts with an empty inbox; every
			// later level has just received the payload and runs on its own.
			c.Arm(t.root)
		}
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			// A machine at depth r has just received the payload (or is the
			// root); it forwards to its children.
			if t.depth(machine) != r {
				return
			}
			// Iterating the child position range directly avoids
			// materializing a child list per machine per round.
			lo, hi := t.childRange(t.pos(machine))
			for q := lo; q < hi; q++ {
				out.Charge(t.machine(q), 1, len(ints), len(floats))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// AggregateSum sums per-machine int64 vectors up the tree to the root over
// Depth()+1 rounds and returns the elementwise total. value(machine)
// supplies each machine's local contribution; all vectors must have length
// width.
func (t *Tree) AggregateSum(c *Cluster, width int, value func(machine int) []int64) ([]int64, error) {
	acc := make([][]int64, c.M())
	for machine := 0; machine < c.M(); machine++ {
		v := value(machine)
		if len(v) != width {
			panic(fmt.Sprintf("mpc: aggregate width mismatch: machine %d has %d, want %d", machine, len(v), width))
		}
		acc[machine] = append([]int64(nil), v...)
	}
	depth := t.Depth()
	if depth == 0 {
		return acc[t.root], nil
	}
	for r := 0; r <= depth; r++ {
		sendDepth := depth - r // machines at this depth send to their parent
		if sendDepth >= 1 {
			// Sparse scheduling: every machine of the sending level must run
			// this round — leaves at this depth have empty inboxes (internal
			// nodes received their children's sums and run on their own, but
			// arming is idempotent, so the whole level is armed).
			for _, m := range t.byDepth[sendDepth] {
				c.Arm(m)
			}
		}
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			// Round 0's inbox holds what the caller's previous round
			// delivered, not partial sums: only later rounds read theirs.
			for run, ok := in.NextRun(); ok && r > 0; run, ok = in.NextRun() {
				for k := 0; k < len(run.Ints); k += run.IntLen {
					for i, v := range run.Ints[k : k+run.IntLen] {
						acc[machine][i] += v
					}
				}
			}
			if sendDepth >= 1 && t.depth(machine) == sendDepth {
				out.SendInts(t.parent(machine), acc[machine]...)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return acc[t.root], nil
}

// AllReduceSum aggregates per-machine vectors to the root and broadcasts the
// total back down.
func (t *Tree) AllReduceSum(c *Cluster, width int, value func(machine int) []int64) ([]int64, error) {
	total, err := t.AggregateSum(c, width, value)
	if err != nil {
		return nil, err
	}
	if err := t.Broadcast(c, total, nil); err != nil {
		return nil, err
	}
	return total, nil
}
