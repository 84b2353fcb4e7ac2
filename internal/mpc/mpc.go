// Package mpc simulates the MapReduce (MRC) / massively-parallel-computation
// model of Karloff, Suri and Vassilvitskii, which is the execution model of
// the paper under reproduction.
//
// A Cluster has M machines, each with a space cap of S words. Computation
// proceeds in synchronous rounds: in a round every machine reads the records
// delivered to it, performs an arbitrary local computation, and emits
// records to be delivered at the start of the next round. The simulator
//
//   - counts rounds (the model's primary efficiency measure),
//   - counts every word communicated,
//   - tracks a per-machine space high-water mark, defined per round as
//     resident words + incoming words + outgoing words, and
//   - enforces the space cap, either strictly (an over-cap round returns
//     ErrSpaceExceeded, mirroring the explicit "fail" lines in the paper's
//     Algorithms 1, 3 and 4) or leniently (violations are only recorded),
//
// so the quantities bounded by the paper's theorems — rounds and space per
// machine — are measured, not asserted.
//
// Resident state (the partition of the input held by each machine) lives in
// the algorithm's own data structures for speed; algorithms declare its size
// honestly via SetResident/AddResident. Message traffic is accounted
// automatically. Physically, traffic moves over the columnar message plane
// of plane.go: records are framed into flat per-destination word buffers
// that are pooled across rounds, so the steady-state cost of a logical
// message is a few buffer appends, not an allocation.
//
// The broadcast and aggregation helpers implement the degree-d broadcast
// tree of §2.2/§4.1 of the paper as real message rounds, so "send C to all
// machines" costs the ceil(log_d M) rounds the paper charges for it.
//
// # Run lists
//
// The paper's algorithms geometrically shrink the live problem, so in the
// tail rounds only a handful of machines have anything to do. Every round
// therefore runs a run list: with Config.Sparse set, the machines armed via
// Arm plus the machines with a non-empty inbox; after ArmAll, or without
// Config.Sparse, every machine. All post-round bookkeeping (merge, inbox
// recycling, outbox reset, space and cap accounting) walks only the run
// list and the receivers, so a round costs in proportion to its activity
// rather than to M. A machine off the run list is accounted as holding
// exactly its unchanged resident words, which is its whole load: it neither
// sent nor received. The activity measurements (obs.RoundSpan.Active,
// Metrics.ActiveSum/ActiveMax) record the run list's length.
package mpc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrSpaceExceeded is returned when a machine exceeds its space cap in
// strict mode.
var ErrSpaceExceeded = errors.New("mpc: machine space cap exceeded")

// ErrClusterClosed is returned by Round and Quiet on a cluster whose Close
// has already run.
var ErrClusterClosed = errors.New("mpc: cluster is closed")

// Config configures a Cluster.
type Config struct {
	// Machines is M, the number of machines. Must be >= 1.
	Machines int
	// SpaceCap is S, the per-machine space cap in words. <= 0 disables
	// enforcement (the high-water mark is still tracked).
	SpaceCap int
	// Strict makes Round return ErrSpaceExceeded when a machine exceeds the
	// cap; otherwise violations are only counted in Metrics.Violations.
	Strict bool
	// Workers selects the round executor: 0 or 1 runs machines sequentially
	// on one goroutine (the default), > 1 runs each round's machines
	// concurrently on a persistent pool of that many goroutines, and < 0
	// sizes the pool to runtime.NumCPU(). Results and metrics are identical
	// across executors for conforming RoundFuncs (see Executor). Pools are
	// owned by the cluster; call Close when done with it.
	Workers int
	// Sparse makes a round run only the machines armed via Arm plus those
	// with a non-empty inbox; ArmAll widens one round to every machine.
	// Without it every round runs every machine, so a RoundFunc written
	// without arming calls is never skipped.
	Sparse bool
	// Ctx, when non-nil, is checked between rounds: once it is canceled,
	// Round and Quiet return its error (wrapped) instead of executing, so an
	// abandoned job stops burning rounds at the next round boundary. Nil
	// means no cancellation.
	Ctx context.Context
	// Sink, when non-nil, receives an obs.RoundSpan at the end of every
	// round (Quiet rounds included): wall-clock compute and merge timings
	// next to the round's model quantities. Timing lives only in the
	// spans, never in Metrics, so attaching a sink changes nothing the
	// equivalence suites compare; with Sink nil the round path takes no
	// timestamps and performs no allocations for tracing.
	Sink obs.TraceSink
	// TraceLabel annotates the cluster's spans (a job id, an algorithm
	// name); purely cosmetic.
	TraceLabel string
}

// Metrics accumulates the model-level costs of an execution.
//
// ActiveSum and ActiveMax measure the simulator's scheduling activity, not a
// model-level cost: they count RoundFunc invocations (each round's run-list
// length, as does obs.RoundSpan.Active), so they expose the geometric decay of
// per-round work the paper predicts.
type Metrics struct {
	Machines    int   // cluster size M
	Rounds      int   // synchronous rounds executed
	WordsSent   int64 // total words communicated
	Messages    int64 // total records delivered
	MaxSpace    int   // max over (machine, round) of resident+in+out words
	MaxResident int   // max declared resident words on any machine
	Violations  int   // number of (machine, round) space-cap violations
	ActiveSum   int64 // total RoundFunc invocations across all rounds
	ActiveMax   int   // max over rounds of RoundFunc invocations
}

// Cluster is a simulated MRC/MPC cluster.
type Cluster struct {
	cfg      Config
	exec     Executor
	pool     *Pool // non-nil when the cluster owns a persistent pool
	resident []int
	inbox    []Inbox
	outboxes []Outbox
	metrics  Metrics
	// Per-round merge scratch, held across rounds so the steady-state round
	// allocates nothing.
	senders [][]int // dest -> sending machines, in machine order; empty outside Round
	recv    []int   // machines whose inboxes currently hold traffic
	recvNxt []int   // next round's receivers, swapped into recv after the merge
	// Sparse-scheduling state.
	inRound   bool
	armAll    bool
	armedNext []int  // machines armed for the next round (deduplicated)
	armedMark []bool // membership bitmap for armedNext
	armedSelf []bool // set by a machine's own RoundFunc, collected post-barrier
	runList   []int  // scratch: the machines running the current round
	dirtyMark []bool // accounting dedup scratch, all-false between rounds
	// Incremental resident aggregates, so rounds never rescan all machines:
	// residentMax is max over machines of resident (exact when residentMaxOK;
	// recomputed lazily after a decrease of the max holder), residentOverCap
	// counts machines with resident > SpaceCap.
	residentMax     int
	residentMaxOK   bool
	residentOverCap int
	closed          bool
	// traceID identifies this cluster in trace spans; allocated only when
	// a sink is configured, never reused within the process.
	traceID int64
}

// traceClusterSeq allocates process-unique cluster ids for trace spans.
var traceClusterSeq atomic.Int64

// NewCluster returns a cluster with the given configuration.
func NewCluster(cfg Config) *Cluster {
	if cfg.Machines < 1 {
		panic(fmt.Sprintf("mpc: need at least 1 machine, got %d", cfg.Machines))
	}
	c := &Cluster{
		cfg:           cfg,
		resident:      make([]int, cfg.Machines),
		inbox:         make([]Inbox, cfg.Machines),
		outboxes:      make([]Outbox, cfg.Machines),
		senders:       make([][]int, cfg.Machines),
		armedMark:     make([]bool, cfg.Machines),
		armedSelf:     make([]bool, cfg.Machines),
		dirtyMark:     make([]bool, cfg.Machines),
		residentMaxOK: true,
	}
	c.exec, c.pool = newExecutor(cfg)
	for machine := range c.outboxes {
		c.outboxes[machine] = Outbox{from: machine, cluster: c}
	}
	if cfg.Sink != nil {
		c.traceID = traceClusterSeq.Add(1)
	}
	return c
}

// Close releases the cluster's persistent worker pool, if it owns one,
// passes the message columns its outboxes reserved to the clusters that
// follow, and drops the last round's deliveries, so a closed cluster holds
// no message column: a stale reference to it (the collector scans a
// preempted goroutine's innermost frame conservatively) pins kilobytes, not
// the final round's traffic. It is idempotent and safe to call on clusters
// that never had a pool; Round and Quiet after Close return
// ErrClusterClosed, and every Inbox is empty. A cluster that is
// garbage-collected without Close leaks its pool goroutines only until the
// pool's finalizer runs.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	handOff(c.outboxes)
	for _, m := range c.recv {
		c.inbox[m] = Inbox{}
	}
	c.recv = c.recv[:0]
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
}

// ready reports whether the cluster can run a round, translating closed
// clusters and canceled contexts into the error Round/Quiet returns.
func (c *Cluster) ready() error {
	if c.closed {
		return ErrClusterClosed
	}
	if ctx := c.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mpc: round canceled: %w", err)
		}
	}
	return nil
}

// M returns the number of machines.
func (c *Cluster) M() int { return c.cfg.Machines }

// Exec returns the cluster's round executor. Algorithms may use it to run
// per-machine local computation that happens between rounds (work the model
// charges as free local computation) under the same parallelism policy as
// the rounds themselves.
func (c *Cluster) Exec() Executor { return c.exec }

// Metrics returns a copy of the accumulated metrics.
func (c *Cluster) Metrics() Metrics {
	m := c.metrics
	m.Machines = c.cfg.Machines
	return m
}

// SetResident declares the resident state size of a machine, in words. It
// must be called from driver code between rounds or by at most one machine's
// RoundFunc per round, never concurrently.
func (c *Cluster) SetResident(machine, words int) {
	old := c.resident[machine]
	c.resident[machine] = words
	if words > c.metrics.MaxResident {
		c.metrics.MaxResident = words
	}
	if cap := c.cfg.SpaceCap; cap > 0 {
		switch {
		case old <= cap && words > cap:
			c.residentOverCap++
		case old > cap && words <= cap:
			c.residentOverCap--
		}
	}
	// Keep the current-maximum aggregate: a new high is the max outright;
	// lowering the (possible) max holder invalidates it for a lazy rescan.
	if words >= c.residentMax {
		c.residentMax = words
		c.residentMaxOK = true
	} else if old == c.residentMax && words < old {
		c.residentMaxOK = false
	}
}

// AddResident adjusts the declared resident state size of a machine.
func (c *Cluster) AddResident(machine, delta int) {
	c.SetResident(machine, c.resident[machine]+delta)
}

// Resident returns the declared resident words of a machine.
func (c *Cluster) Resident(machine int) int { return c.resident[machine] }

// residentMaxNow returns max over machines of resident, rescanning only if a
// decrease invalidated the incremental value.
func (c *Cluster) residentMaxNow() int {
	if !c.residentMaxOK {
		max := 0
		for _, r := range c.resident {
			if r > max {
				max = r
			}
		}
		c.residentMax = max
		c.residentMaxOK = true
	}
	return c.residentMax
}

// Inbox returns a view over the records delivered to a machine at the start
// of the current round. The cursor is rewound at the start of every round;
// callers inspecting inboxes between rounds should Reset() after iterating.
func (c *Cluster) Inbox(machine int) *Inbox { return &c.inbox[machine] }

// Arm schedules a machine to run in the next round even if its inbox is
// empty. Under Config.Sparse this is the arming contract: a machine whose
// RoundFunc must act without incoming traffic — a central machine starting
// a batch, a data machine replaying a sampling plan, a round-0 loader — is
// armed by the driver before the round; machines reacting to delivered
// records run automatically, and decided machines simply stop being armed
// and go dormant. The armed set is consumed by the next Round (or Quiet).
// Without Config.Sparse every machine runs anyway and arming changes
// nothing.
//
// Arm may be called from driver code between rounds for any machine, or
// from within a RoundFunc for the invoking machine itself (self-arming);
// arming another machine from inside a round is a data race.
func (c *Cluster) Arm(machine int) {
	if machine < 0 || machine >= c.cfg.Machines {
		panic(fmt.Sprintf("mpc: Arm of invalid machine %d (M=%d)", machine, c.cfg.Machines))
	}
	if c.inRound {
		c.armedSelf[machine] = true
		return
	}
	c.enqueueArm(machine)
}

// ArmAll schedules every machine to run in the next round; used for
// genuinely global steps (e.g. every machine contributes to an aggregation).
// Driver-only: must not be called from inside a RoundFunc.
func (c *Cluster) ArmAll() { c.armAll = true }

// enqueueArm adds machine to the next round's armed set, deduplicated.
func (c *Cluster) enqueueArm(machine int) {
	if !c.armedMark[machine] {
		c.armedMark[machine] = true
		c.armedNext = append(c.armedNext, machine)
	}
}

// drainArmed empties the armed set (its machines are running, or an
// every-machine round subsumed them).
func (c *Cluster) drainArmed() {
	for _, m := range c.armedNext {
		c.armedMark[m] = false
	}
	c.armedNext = c.armedNext[:0]
	c.armAll = false
}

// RoundFunc is the local computation of one machine in one round: it reads
// the machine's inbox and emits records for the next round.
//
// Invocations for different machines may run concurrently (see
// Config.Workers), so a RoundFunc must confine its writes to state owned by
// its machine: its Outbox, its own Inbox cursor, elements of shared slices
// indexed by data the machine owns, or per-machine structs. Shared state may
// be read freely — the simulator never mutates cluster state while a round
// is executing. Records read from the inbox are views into buffers recycled
// when the round ends: consume them during the invocation, never retain.
type RoundFunc func(machine int, in *Inbox, out *Outbox)

// Round executes one synchronous round: it runs f on the run list via the
// configured executor (the armed machines plus the machines with non-empty
// inboxes under Config.Sparse; every machine after ArmAll or without it),
// each machine writing to its own Outbox, then — after the barrier —
// accounts space and traffic, checks the cap, and assembles each
// destination's inbox from the senders' columns in machine order, so
// delivery order, metrics, and traces are deterministic and
// executor-independent. The columns backing the inboxes consumed this round
// are released for reuse (see plane.go).
func (c *Cluster) Round(f RoundFunc) error {
	if err := c.ready(); err != nil {
		return err
	}
	// Phase timing exists only for the sink: with no sink configured no
	// timestamp is taken and nothing below allocates for tracing.
	sink := c.cfg.Sink
	var spanStart, computeEnd time.Time
	if sink != nil {
		spanStart = time.Now()
	}
	c.metrics.Rounds++
	M := c.cfg.Machines

	// Schedule the run list in ascending machine order (the merge below
	// walks it in order, which is what keeps delivery deterministic): every
	// machine after ArmAll or without Config.Sparse, otherwise the union of
	// the armed set and the current receivers.
	run := c.runList[:0]
	if c.armAll || !c.cfg.Sparse {
		for m := 0; m < M; m++ {
			run = append(run, m)
		}
	} else {
		run = append(run, c.armedNext...)
		for _, m := range c.recv {
			if !c.armedMark[m] {
				run = append(run, m)
			}
		}
		sort.Ints(run)
	}
	c.runList = run
	active := len(run)
	c.drainArmed()

	// Rewind the receivers' cursors (other inboxes are empty) and execute.
	for _, m := range c.recv {
		c.inbox[m].Reset()
	}
	c.inRound = true
	c.exec.Execute(len(run), func(i int) {
		m := run[i]
		f(m, &c.inbox[m], &c.outboxes[m])
	})
	c.inRound = false
	if sink != nil {
		computeEnd = time.Now()
	}
	c.metrics.ActiveSum += int64(active)
	if active > c.metrics.ActiveMax {
		c.metrics.ActiveMax = active
	}

	// Deterministic merge after the barrier: each outbox's traffic totals
	// are summed over its columns here, once (the send path counts
	// nothing), and each inbox lists the senders' columns in machine order,
	// so its cursor yields records ordered by (sender, emission order)
	// regardless of the executor's scheduling. Only the machines that ran
	// can have sent, and only the machines that ran can have self-armed.
	c.recvNxt = c.recvNxt[:0]
	for _, machine := range run {
		o := &c.outboxes[machine]
		if o.cur != nil {
			panic(fmt.Sprintf("mpc: machine %d ended the round with an open record (Begin without End)", machine))
		}
		for _, dest := range o.dests {
			col := o.byDest[dest]
			o.words += col.accounted()
			o.count += col.records()
			if len(c.senders[dest]) == 0 {
				c.recvNxt = append(c.recvNxt, dest)
			}
			c.senders[dest] = append(c.senders[dest], machine)
		}
		c.metrics.WordsSent += int64(o.words)
		c.metrics.Messages += int64(o.count)
		if c.armedSelf[machine] {
			c.armedSelf[machine] = false
			c.enqueueArm(machine)
		}
	}

	// The round's computations have consumed the previous inboxes; recycle
	// their columns before handing over the new ones.
	for _, m := range c.recv {
		c.inbox[m].clear()
	}
	c.recv = c.recv[:0]
	for _, dest := range c.recvNxt {
		c.assembleInbox(dest)
	}
	c.recv, c.recvNxt = c.recvNxt, c.recv

	// Space and cap accounting over the dirty set — the machines that ran
	// or received — against the incremental aggregates for everyone else: a
	// dormant machine's load is exactly its unchanged resident words.
	var violated bool
	maxLoad, roundViolations := c.accountDirty(run)
	if roundViolations > 0 {
		c.metrics.Violations += roundViolations
		violated = true
	}
	if maxLoad > c.metrics.MaxSpace {
		c.metrics.MaxSpace = maxLoad
	}

	// Release the senders' outbox bookkeeping last: accounting above reads
	// the outboxes' word counters directly.
	for _, m := range run {
		c.outboxes[m].reset()
	}

	if sink != nil {
		end := time.Now()
		span := obs.RoundSpan{
			Label:   c.cfg.TraceLabel,
			Cluster: c.traceID,
			Round:   c.metrics.Rounds,
			Active:  active,
			MaxLoad: maxLoad,
			Start:   spanStart,
			End:     end,
			Compute: computeEnd.Sub(spanStart),
			Merge:   end.Sub(computeEnd),
		}
		for _, m := range c.recv {
			span.Words += int64(c.inbox[m].words)
			span.Messages += c.inbox[m].records
		}
		sink.RoundDone(span)
	}

	if violated && c.cfg.Strict {
		return fmt.Errorf("%w (cap %d words)", ErrSpaceExceeded, c.cfg.SpaceCap)
	}
	return nil
}

// assembleInbox builds one destination's inbox for the next round from its
// senders' columns, in ascending sender order.
func (c *Cluster) assembleInbox(dest int) {
	in := &c.inbox[dest]
	for _, src := range c.senders[dest] {
		col := c.outboxes[src].byDest[dest]
		in.segs = append(in.segs, segment{from: src, col: col})
		in.records += col.records()
		in.words += col.accounted()
	}
	c.senders[dest] = c.senders[dest][:0]
}

// accountDirty computes this round's max load and cap-violation count. The
// dirty machines (ran or received this round) are measured directly as
// resident+in+out; every dormant machine's load is its resident words, which
// the incremental aggregates summarize without a scan. A machine can appear
// both in run and in recv; the dirtyMark scratch (all-false between rounds,
// and distinct from armedMark, which at this point already carries the next
// round's self-armed machines) deduplicates it.
func (c *Cluster) accountDirty(run []int) (maxLoad, roundViolations int) {
	cap := c.cfg.SpaceCap
	maxLoad = c.residentMaxNow()
	if cap > 0 {
		roundViolations = c.residentOverCap
	}
	measure := func(m int) {
		used := c.resident[m] + c.inbox[m].words + c.outboxes[m].words
		if used > maxLoad {
			maxLoad = used
		}
		if cap > 0 {
			if c.resident[m] > cap {
				roundViolations-- // already counted in residentOverCap
			}
			if used > cap {
				roundViolations++
			}
		}
	}
	for _, m := range run {
		c.dirtyMark[m] = true
		measure(m)
	}
	for _, m := range c.recv {
		if !c.dirtyMark[m] {
			measure(m)
		}
	}
	for _, m := range run {
		c.dirtyMark[m] = false
	}
	return maxLoad, roundViolations
}

// Quiet runs a round in which no machine sends anything; useful to charge a
// round of pure local computation. It is a fast path: no RoundFunc is
// invoked (Active records 0) and no machine is scanned — the round reduces
// to O(1) accounting over the incremental aggregates plus recycling any
// undelivered traffic, with metrics identical to running a no-op RoundFunc
// on every machine. The pending armed set is consumed, exactly as a no-op
// round would consume it.
func (c *Cluster) Quiet() error {
	if err := c.ready(); err != nil {
		return err
	}
	sink := c.cfg.Sink
	var spanStart time.Time
	if sink != nil {
		spanStart = time.Now()
	}
	c.metrics.Rounds++
	c.drainArmed()
	// A no-op round discards any traffic delivered for it.
	for _, m := range c.recv {
		c.inbox[m].clear()
	}
	c.recv = c.recv[:0]
	maxLoad := c.residentMaxNow()
	if maxLoad > c.metrics.MaxSpace {
		c.metrics.MaxSpace = maxLoad
	}
	violations := 0
	if c.cfg.SpaceCap > 0 {
		violations = c.residentOverCap
	}
	c.metrics.Violations += violations
	if sink != nil {
		// A quiet round has no compute or exchange; its whole (tiny)
		// duration is bookkeeping, kept in the stream so round numbers
		// stay contiguous in exported timelines.
		end := time.Now()
		sink.RoundDone(obs.RoundSpan{
			Label: c.cfg.TraceLabel, Cluster: c.traceID,
			Round: c.metrics.Rounds, MaxLoad: maxLoad,
			Start: spanStart, End: end, Merge: end.Sub(spanStart),
		})
	}
	if violations > 0 && c.cfg.Strict {
		return fmt.Errorf("%w (cap %d words)", ErrSpaceExceeded, c.cfg.SpaceCap)
	}
	return nil
}
