package obs

import (
	"sync"
	"time"
)

// RoundSpan is the wall-clock record of one simulator round, streamed to a
// TraceSink as the round ends. It carries the round's *model* quantities
// (round number, words, messages, load, activity) next to the *timing*
// quantities the model must never see: phase durations and real
// timestamps. The model fields are bit-identical across executors; the
// timing fields are not, so spans are compared only through their model
// projection, never whole.
//
// The phase split follows the round structure of mpc.Cluster.Round:
//
//	Compute — the executor running the scheduled RoundFuncs
//	Merge   — post-barrier bookkeeping: the sender walk, inbox assembly,
//	          space accounting (everything after compute)
type RoundSpan struct {
	// Label identifies the traced execution (a job id, an algorithm name);
	// empty when the caller never set one.
	Label string
	// Cluster distinguishes concurrently traced clusters within one
	// process; ids are allocated per traced cluster and never reused.
	Cluster int64
	// Round is the 1-based round number.
	Round int
	// Active is the number of RoundFunc invocations this round.
	Active int
	// MaxLoad is the round's per-machine space high-water mark, in words.
	MaxLoad int
	// Words and Messages are the traffic delivered into next-round inboxes.
	Words    int64
	Messages int

	// Start and End bound the round in real time.
	Start, End time.Time
	// Compute and Merge partition End.Sub(Start) (up to the instants
	// between phases); see the phase split above.
	Compute, Merge time.Duration
	// Barrier is always zero. It timed the cross-shard exchange of the
	// replicated sharding that was removed, and stays only because the
	// benchmark harness (benchmark/trace.go), which must not change, still
	// reads it.
	Barrier time.Duration
}

// Duration returns the round's total wall-clock time.
func (s RoundSpan) Duration() time.Duration { return s.End.Sub(s.Start) }

// TraceSink consumes round spans. RoundDone is called synchronously at
// the end of every traced round, from whichever goroutine drives the
// cluster; a sink shared across clusters must be safe for concurrent use.
// Close flushes and releases the sink (file sinks write their trailer).
type TraceSink interface {
	RoundDone(s RoundSpan)
	Close() error
}

// PhaseAccumulator is a TraceSink that folds spans into per-phase totals —
// the aggregate mrbench reports per experiment. Safe for concurrent use.
type PhaseAccumulator struct {
	mu      sync.Mutex
	rounds  int64
	compute time.Duration
	merge   time.Duration
	barrier time.Duration
}

// PhaseMeans is an accumulator snapshot: mean microseconds per round for
// each phase across every observed round. BarrierUS mirrors
// RoundSpan.Barrier.
type PhaseMeans struct {
	Rounds    int64   `json:"rounds"`
	ComputeUS float64 `json:"compute_us"`
	MergeUS   float64 `json:"merge_us"`
	BarrierUS float64 `json:"barrier_us"`
}

// RoundDone implements TraceSink.
func (a *PhaseAccumulator) RoundDone(s RoundSpan) {
	a.mu.Lock()
	a.rounds++
	a.compute += s.Compute
	a.merge += s.Merge
	a.barrier += s.Barrier
	a.mu.Unlock()
}

// Close implements TraceSink; it keeps the totals readable.
func (a *PhaseAccumulator) Close() error { return nil }

// Means returns the per-round phase means observed so far.
func (a *PhaseAccumulator) Means() PhaseMeans {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := PhaseMeans{Rounds: a.rounds}
	if a.rounds == 0 {
		return m
	}
	per := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / float64(a.rounds)
	}
	m.ComputeUS = per(a.compute)
	m.MergeUS = per(a.merge)
	m.BarrierUS = per(a.barrier)
	return m
}
