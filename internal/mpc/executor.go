package mpc

// This file implements the pluggable round executor. A Cluster delegates the
// "run every machine's local computation" step of a round to an Executor;
// everything observable — message delivery order, space and word accounting,
// metrics, traces — is computed after the executor's barrier, in machine
// order, so a conforming RoundFunc produces identical results under every
// executor.
//
// A RoundFunc is conforming when each invocation's writes are confined to
// state owned by its machine (its own Outbox, per-machine slice elements,
// per-machine structs): the algorithms in internal/core are structured this
// way, with random sampling decisions drawn before the round and genuinely
// central state touched only by the central machine's invocation. `go test
// -race ./...` is the enforcement mechanism.
//
// Two executors exist: Sequential, and Pool, which keeps long-lived workers
// blocked on a job channel and hands tasks out in chunks, so a steady-state
// round costs a handful of channel operations and no goroutine creation.
// Clusters configured with Workers > 1 own a Pool and release it via
// Cluster.Close.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Executor runs a batch of independent tasks — most prominently the
// per-machine local computations of one round.
type Executor interface {
	// Execute calls run(i) exactly once for every index in [0, n) and
	// returns only after all invocations have completed. The index is an
	// opaque task id: the Cluster passes machine ids when running a round's
	// computations, but algorithms also pass other work-item counts (e.g.
	// colour groups) via Cluster.Exec, so implementations must not
	// interpret it as a machine identity. Implementations may run
	// invocations concurrently; callers must not assume any ordering
	// between them.
	Execute(n int, run func(i int))
}

// Sequential runs machines one after another on the calling goroutine, in
// machine order — the original simulator behaviour, bit for bit.
type Sequential struct{}

// Execute implements Executor.
func (Sequential) Execute(machines int, run func(machine int)) {
	for machine := 0; machine < machines; machine++ {
		run(machine)
	}
}

// Process-wide pool activity totals, for operational metrics (the service
// layer's /metrics reports them). They aggregate over every Pool in the
// process.
var (
	poolRoundsTotal atomic.Uint64
	poolChunksTotal atomic.Uint64
)

// PoolTotals reports process-wide persistent-pool activity: the number of
// Execute batches run and the number of task chunks claimed by pooled
// workers, summed over every Pool created in this process.
func PoolTotals() (rounds, chunks uint64) {
	return poolRoundsTotal.Load(), poolChunksTotal.Load()
}

// poolChunksPerWorker controls the chunked handout granularity: each Execute
// splits its n tasks into up to workers*poolChunksPerWorker chunks, so one
// atomic claim amortizes over several tasks while stragglers can still be
// balanced across workers.
const poolChunksPerWorker = 4

// poolJob is one Execute batch handed to the pool's workers.
type poolJob struct {
	n        int
	chunk    int
	run      func(int)
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Value
}

// Pool is a persistent parallel executor: its worker goroutines are created
// once and live until Close, blocked on a job channel between Execute calls,
// so a steady-state Execute spawns no goroutines. Tasks are handed out in
// chunks claimed by a single atomic per chunk. A panic inside a task is
// re-raised on the calling goroutine after the batch drains, and the pool
// remains usable for subsequent Execute calls.
//
// Execute must not be called concurrently with itself or from inside a
// running task (the cluster's driver loop is single-threaded, which
// satisfies both).
type Pool struct {
	workers int
	work    chan *poolJob
	stats   *poolStats
	closed  atomic.Bool
	once    sync.Once
	rounds  atomic.Uint64
}

// poolStats is the part of a pool its workers touch. It is separate from
// Pool so the workers hold no reference to the Pool itself, which lets an
// unclosed pool's finalizer fire and release the workers.
type poolStats struct {
	chunks atomic.Uint64
}

// NewPool starts a persistent pool of the given size; workers <= 0 means
// runtime.NumCPU(). Call Close to release the worker goroutines; a pool
// that becomes unreachable without Close is closed by a finalizer.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, work: make(chan *poolJob, workers), stats: new(poolStats)}
	for w := 0; w < workers; w++ {
		go poolWorker(p.work, p.stats)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats reports the batches executed and chunks claimed by this pool.
func (p *Pool) Stats() (rounds, chunks uint64) {
	return p.rounds.Load(), p.stats.chunks.Load()
}

// Execute implements Executor.
func (p *Pool) Execute(n int, run func(i int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("mpc: Execute on a closed Pool")
	}
	p.rounds.Add(1)
	poolRoundsTotal.Add(1)
	// Clamp the engaged workers to the task count so tiny batches (the
	// sparse tail rounds) wake only as many workers as there are chunks.
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		Sequential{}.Execute(n, run)
		return
	}
	chunk := n / (workers * poolChunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	needed := (n + chunk - 1) / chunk
	if needed > workers {
		needed = workers
	}
	job := &poolJob{n: n, chunk: chunk, run: run}
	job.wg.Add(needed)
	for w := 0; w < needed; w++ {
		p.work <- job
	}
	job.wg.Wait()
	if msg := job.panicked.Load(); msg != nil {
		panic(msg)
	}
}

// poolWorker is the long-lived loop of one pool goroutine. It holds no
// reference to the Pool (see poolStats).
func poolWorker(work <-chan *poolJob, stats *poolStats) {
	for job := range work {
		runPoolChunks(job, stats)
	}
}

// runPoolChunks claims and runs chunks of one job until it is drained. A
// task panic is recorded on the job and ends this worker's participation
// (the remaining chunks drain through the other workers), but never kills
// the worker goroutine — the pool stays reusable.
func runPoolChunks(job *poolJob, stats *poolStats) {
	defer job.wg.Done()
	task := -1
	defer func() {
		if r := recover(); r != nil {
			job.panicked.CompareAndSwap(nil, fmt.Sprintf(
				"mpc: machine %d computation panicked: %v\n%s", task, r, debug.Stack()))
		}
	}()
	for {
		c := int(job.next.Add(1)) - 1
		start := c * job.chunk
		if start >= job.n {
			return
		}
		stats.chunks.Add(1)
		poolChunksTotal.Add(1)
		end := start + job.chunk
		if end > job.n {
			end = job.n
		}
		for task = start; task < end; task++ {
			job.run(task)
		}
	}
}

// Close stops the pool's workers. Idempotent; Execute after Close panics.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.work)
	})
}

// newExecutor resolves a Config to an executor: Workers selects Sequential
// (0 or 1) or a cluster-owned persistent Pool of that size (> 1; < 0 sizes
// it to runtime.NumCPU()). The returned Pool is non-nil exactly when the
// cluster owns one and must release it on Close.
func newExecutor(cfg Config) (Executor, *Pool) {
	switch {
	case cfg.Workers == 0 || cfg.Workers == 1:
		return Sequential{}, nil
	case cfg.Workers < 0:
		p := NewPool(0)
		return p, p
	default:
		p := NewPool(cfg.Workers)
		return p, p
	}
}
