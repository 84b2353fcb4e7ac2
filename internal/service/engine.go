package service

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// JobRequest is one job submission: run an algorithm on an instance with a
// seed. The tuple (Instance, Alg, canonical Args, Mu, Seed) fully
// determines the Result.
type JobRequest struct {
	Instance InstanceSpec       `json:"instance"`
	Alg      string             `json:"alg"`
	Args     map[string]float64 `json:"args,omitempty"`
	// Mu is the space exponent µ (core.Params.Mu). nil means the default
	// 0.2; explicit 0 selects the linear-space regime.
	Mu   *float64 `json:"mu,omitempty"`
	Seed uint64   `json:"seed"`
}

// defaultMu mirrors cmd/mrrun's -mu default.
const defaultMu = 0.2

// ErrQueueFull reports transient backpressure: queueDepth executions are
// already queued. Unlike validation errors, the same request can succeed
// once in-flight work drains (the HTTP layer maps it to 503).
var ErrQueueFull = fmt.Errorf("service: job queue full (%d executions queued)", queueDepth)

// Result is the deterministic outcome of a job: identical for the same
// request whether served cold, coalesced, or from the result cache.
type Result struct {
	InstanceID string             `json:"instance_id"`
	Alg        string             `json:"alg"`
	Args       map[string]float64 `json:"args,omitempty"`
	Mu         float64            `json:"mu"`
	Seed       uint64             `json:"seed"`
	core.RunResult
}

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// Source records which serving path answered a job.
type Source string

const (
	SourceRun    Source = "run"    // this job's flight executed the algorithm
	SourceBatch  Source = "batch"  // coalesced into an identical in-flight job
	SourceCache  Source = "cache"  // answered from a done entry of the job table
	SourceLedger Source = "ledger" // recovered from the durable job ledger
)

// Job is one submitted job's mutable record. Fields are guarded by the
// engine mutex; Snapshot returns a consistent copy and Done signals
// completion.
type Job struct {
	ID     string
	Key    string
	Source Source
	Status JobStatus
	Result *Result
	Err    string

	created  time.Time
	finished time.Time
	done     chan struct{}
	// flight is the execution this job is attached to, nil for cache hits;
	// Engine.Abandon uses it to withdraw this job's interest in the result.
	flight *flight
}

// JobView is the JSON projection of a Job.
type JobView struct {
	ID       string    `json:"id"`
	Status   JobStatus `json:"status"`
	Source   Source    `json:"source,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
}

// Engine is the concurrent job engine: a bounded worker pool over the
// instance cache and the job table (table.go).
type Engine struct {
	cfg       Config
	metrics   *Metrics
	log       *slog.Logger
	instances *instanceCache
	ledger    *ledger.Ledger // durable job ledger; nil when disabled
	// ledgerRecoveryErr remembers a failed startup recovery (corrupt chain
	// on disk): the ledger above is then a memory-only substitute and every
	// verification must keep reporting the damaged on-disk history instead
	// of the substitute's clean chain. Written once in openLedger, before
	// any concurrency; read-only after.
	ledgerRecoveryErr error

	mu      sync.Mutex
	closed  bool
	table   map[string]*entry // job key -> open flight or done result
	lru     *list.List        // done entries, most recently used first
	jobs    map[string]*Job
	jobSeq  uint64
	history []string // job ids in creation order, for bounded retention

	queue chan *flight
	wg    sync.WaitGroup
}

// NewEngine starts an engine with cfg's worker pool.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	e := &Engine{
		cfg:       cfg,
		metrics:   m,
		log:       cfg.logger(),
		instances: newInstanceCache(cfg.Instances, cfg.DataDir, m),
		table:     make(map[string]*entry),
		lru:       list.New(),
		jobs:      make(map[string]*Job),
		queue:     make(chan *flight, queueDepth),
	}
	// Seed the abandonment counter so it renders as an explicit zero in
	// /metrics before the first incident.
	m.inc("jobs_abandoned_total", 0)
	// flights_executed_total renders as an explicit zero from the start so
	// a restarted server can prove "everything served from the ledger,
	// nothing re-executed" straight off /metrics.
	m.inc("flights_executed_total", 0)
	// A run that panics fails its jobs and is counted here, from zero.
	m.inc("jobs_panicked_total", 0)
	// Open (and, after a crash, recover) the durable job ledger before any
	// job can complete, so the chain never misses a record.
	e.openLedger()
	for i := 0; i < cfg.Pool; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics exposes the engine's metrics set (for GET /metrics).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// jobKey canonicalizes a request into the batching/caching key.
func jobKey(instanceID, alg string, args map[string]float64, mu float64, seed uint64) string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "inst=%s alg=%s mu=%g seed=%d", instanceID, alg, mu, seed)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%g", k, args[k])
	}
	return b.String()
}

// canonJob is a validated request in canonical form: everything Submit
// derives from the request before it touches the engine's state.
type canonJob struct {
	args   map[string]float64
	instID string
	mu     float64
	key    string
}

// canonRequest validates a request and canonicalizes it without building
// its instance.
func canonRequest(req JobRequest) (canonJob, error) {
	alg, ok := core.LookupAlgorithm(req.Alg)
	if !ok {
		return canonJob{}, fmt.Errorf("service: unknown algorithm %q", req.Alg)
	}
	args, err := alg.CanonArgs(req.Args)
	if err != nil {
		return canonJob{}, err
	}
	if err := req.Instance.Validate(); err != nil {
		return canonJob{}, err
	}
	if !req.Instance.Provides(alg.Input) {
		return canonJob{}, fmt.Errorf("service: instance type %q does not provide the %s input algorithm %q needs",
			req.Instance.Type, alg.Input, req.Alg)
	}
	instID, err := SpecID(req.Instance)
	if err != nil {
		return canonJob{}, err
	}
	mu := defaultMu
	if req.Mu != nil {
		mu = *req.Mu
	}
	// Machines hold ~n^{1+µ} words: above 1 that count overflows int and
	// sends to machines that do not exist, below 0 it leaves a few words
	// per machine and thousands of machines.
	if !(mu >= 0 && mu <= 1) {
		return canonJob{}, fmt.Errorf("service: mu must be in [0, 1], got %g", mu)
	}
	return canonJob{args: args, instID: instID, mu: mu,
		key: jobKey(instID, req.Alg, args, mu, req.Seed)}, nil
}

// Submit validates a request and enqueues (or instantly answers) a job.
// The returned Job's Done channel closes on completion.
func (e *Engine) Submit(req JobRequest) (*Job, error) {
	cj, err := canonRequest(req)
	if err != nil {
		return nil, err
	}
	instID, key := cj.instID, cj.key

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("service: engine is shut down")
	}
	e.jobSeq++
	j := &Job{
		ID:      fmt.Sprintf("j-%08d", e.jobSeq),
		Key:     key,
		Status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	e.jobs[j.ID] = j
	e.history = append(e.history, j.ID)
	e.pruneHistoryLocked()
	e.metrics.inc("jobs_submitted_total", 1)

	en := e.table[key]
	switch {
	case en != nil && en.flight != nil:
		f := en.flight
		f.jobs = append(f.jobs, j)
		f.waiters++
		j.flight = f
		j.Source = SourceBatch
		e.metrics.inc("jobs_coalesced_total", 1)
	case en != nil:
		e.lru.MoveToFront(en.lru)
		j.Source = SourceCache
		e.finishLocked(j, en.res, nil)
		e.metrics.inc("jobs_cache_hits_total", 1)
		e.log.Info("job served from cache", "job", j.ID, "alg", req.Alg, "instance", instID)
		return j, nil
	default:
		en = &entry{key: key}
		e.table[key] = en
		if res, ok := e.ledgerLookup(key); ok {
			// The durable chain remembers results the table has never held
			// (a restart) or has evicted. The payload's hash was checked
			// against the chain, and the chain is the determinism contract.
			e.doneLocked(en, res)
			j.Source = SourceLedger
			e.finishLocked(j, res, nil)
			e.metrics.inc("ledger_hits_total", 1)
			e.log.Info("job served from ledger", "job", j.ID, "alg", req.Alg, "instance", instID)
			return j, nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		f := &flight{key: key, alg: req.Alg, spec: req.Instance, instID: instID, args: cj.args,
			mu: cj.mu, seed: req.Seed, jobs: []*Job{j}, ctx: ctx, cancel: cancel, waiters: 1}
		if e.cfg.TraceRounds > 0 {
			f.ring = obs.NewRingSink(e.cfg.TraceRounds)
		}
		en.flight, j.flight, j.Source = f, f, SourceRun
		select {
		case e.queue <- f:
		default:
			// Queue full: roll back the flight and the job record.
			delete(e.table, key)
			cancel()
			delete(e.jobs, j.ID)
			e.history = e.history[:len(e.history)-1]
			e.metrics.inc("jobs_rejected_total", 1)
			return nil, ErrQueueFull
		}
	}
	e.log.Info("job submitted", "job", j.ID, "alg", req.Alg, "instance", instID,
		"seed", req.Seed, "source", string(j.Source))
	return j, nil
}

// Abandon withdraws j's interest in its flight's result — the HTTP layer
// calls it when a waiting client disconnects. When every job attached to
// the flight has been abandoned, the flight's context is canceled and the
// execution stops at its next simulator round instead of silently running
// to completion; the jobs then finish failed with the cancellation error.
// Abandoning a completed or cache-served job is a no-op.
func (e *Engine) Abandon(j *Job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := j.flight
	if f == nil || j.Status == StatusDone || j.Status == StatusFailed {
		return
	}
	e.metrics.inc("jobs_abandoned_total", 1)
	f.waiters--
	if f.waiters <= 0 && f.cancel != nil {
		f.cancel()
	}
}

// Wait blocks until the job completes and returns its final snapshot.
func (j *Job) Wait() { <-j.done }

// Done returns the completion channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// Get returns a snapshot of the job with the given id.
func (e *Engine) Get(id string) (JobView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// Snapshot returns the job's current view.
func (e *Engine) Snapshot(j *Job) JobView {
	e.mu.Lock()
	defer e.mu.Unlock()
	return j.viewLocked()
}

// viewLocked projects the job; requires the engine mutex.
func (j *Job) viewLocked() JobView {
	return JobView{
		ID: j.ID, Status: j.Status, Source: j.Source,
		Result: j.Result, Error: j.Err,
		Created: j.created, Finished: j.finished,
	}
}

// Instances lists the instance cache (GET /v1/instances).
func (e *Engine) Instances() []InstanceInfo { return e.instances.list() }

// Upload decodes graph bytes — any format graph.DecodeAuto accepts — stores
// the built instance in the cache, and returns its content-hash id (the id
// is format-invariant: text, gzip and binary uploads of the same graph
// coincide). Jobs may then reference it as {"type": "upload", "id": id}.
// With Config.DataDir set, the graph is additionally spooled to
// DataDir/<id>.mrg and served zero-copy from the mapped container. The
// bytes are decoded once, by BuildInstance; the id (SpecID's) is taken from
// the graph it built.
func (e *Engine) Upload(data []byte) (string, InstanceInfo, error) {
	spec := InstanceSpec{Type: "upload", Data: data}
	in, err := BuildInstance(spec)
	if err != nil {
		return "", InstanceInfo{}, err
	}
	id, err := uploadID(in.Graph)
	if err != nil {
		return "", InstanceInfo{}, err
	}
	in = e.spoolInput(id, in)
	e.instances.put(id, spec, in)
	return id, e.uploadInfo(id, in), nil
}

// PreloadFile registers a graph file from local disk as an uploaded
// instance without going through the HTTP body: mrserve -preload. Raw
// binary containers are mapped zero-copy after one pass over the file that
// checks every checksum and slab invariant (graph.ReadFile); other formats
// decode to the heap and, with Config.DataDir set, are spooled and
// remapped. The returned id is the same the file's bytes would get through
// Upload.
func (e *Engine) PreloadFile(path string) (string, InstanceInfo, error) {
	g, err := graph.ReadFile(path)
	if err != nil {
		return "", InstanceInfo{}, err
	}
	id, err := uploadID(g)
	if err != nil {
		return "", InstanceInfo{}, err
	}
	in := e.spoolInput(id, core.Input{Graph: g})
	materialize(in)
	e.instances.put(id, InstanceSpec{Type: "upload", ID: id}, in)
	return id, e.uploadInfo(id, in), nil
}

// spoolInput writes the input's graph to the data directory and swaps in
// the mapped form. Without a data directory — or if spooling fails — the
// instance stays on the heap; the spool is an optimization, never a
// correctness requirement.
func (e *Engine) spoolInput(id string, in core.Input) core.Input {
	if e.cfg.DataDir == "" || in.Graph == nil || in.Graph.Mapped() {
		return in
	}
	mg, err := spoolMapped(e.cfg.DataDir, id, in.Graph)
	if err != nil {
		return in
	}
	e.metrics.inc("instances_spooled_total", 1)
	return core.Input{Graph: mg}
}

// uploadInfo summarizes a registered upload.
func (e *Engine) uploadInfo(id string, in core.Input) InstanceInfo {
	info := InstanceInfo{ID: id, Type: "upload", Words: instanceWords(in), Uploaded: true}
	if g := in.Graph; g != nil {
		info.N, info.M, info.Mapped = g.N, g.M(), g.Mapped()
	}
	return info
}

// worker executes flights until the queue closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for f := range e.queue {
		e.execute(f)
	}
}

// execute runs one flight's algorithm and fans the result out to every
// attached job.
func (e *Engine) execute(f *flight) {
	start := time.Now()
	e.mu.Lock()
	lead := f.jobs[0].ID // the job that opened the flight
	for _, j := range f.jobs {
		j.Status = StatusRunning
	}
	attached := len(f.jobs) // Submit may attach more once the mutex is released
	e.mu.Unlock()
	e.log.Info("flight executing", "job", lead, "alg", f.alg,
		"instance", f.instID, "jobs", attached)

	var res *Result
	panicked := false
	in, err := e.instances.get(f.instID, f.spec)
	if err == nil {
		var run *core.RunResult
		alg, _ := core.LookupAlgorithm(f.alg)
		run, panicked, err = e.run(alg, in, f)
		if err == nil {
			res = &Result{
				InstanceID: f.instID, Alg: f.alg, Args: f.args,
				Mu: f.mu, Seed: f.seed, RunResult: *run,
			}
		}
	}

	e.mu.Lock()
	if res != nil {
		e.doneLocked(e.table[f.key], res)
	} else {
		delete(e.table, f.key)
	}
	for _, j := range f.jobs {
		e.finishLocked(j, res, err)
	}
	if panicked {
		e.metrics.inc("jobs_panicked_total", uint64(len(f.jobs)))
	}
	e.mu.Unlock()
	if res != nil {
		// Ledger the completed job off the engine mutex: Append chains in
		// memory and returns; the ledger's write batcher owns the fsync.
		e.recordLedger(f, res)
	}
	if f.cancel != nil {
		f.cancel()
	}
	e.metrics.observeLatency(time.Since(start))
	if err != nil {
		e.metrics.inc("flights_failed_total", 1)
		e.log.Error("flight failed", "job", lead, "alg", f.alg,
			"elapsed", time.Since(start), "err", err)
	} else {
		e.metrics.inc("flights_executed_total", 1)
		e.metrics.observeActivity(res.Metrics)
		e.log.Info("flight done", "job", lead, "alg", f.alg,
			"elapsed", time.Since(start), "rounds", res.Metrics.Rounds)
	}
}

// run executes one flight's algorithm under the engine's executor
// configuration, canceled with the flight's context.
func (e *Engine) run(alg core.Algorithm, in core.Input, f *flight) (run *core.RunResult, panicked bool, err error) {
	// A panic in the run (an algorithm given input outside its contract,
	// such as Misra–Gries on parallel edges) fails the flight, not the
	// daemon. A panic inside the executor's pool is re-raised on this
	// goroutine, so one recover covers every machine.
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			e.log.Error("run panicked", "alg", f.alg, "instance", f.instID,
				"panic", msg, "stack", string(debug.Stack()))
			first, _, _ := strings.Cut(msg, "\n")
			run, panicked, err = nil, true, fmt.Errorf("service: %s panicked: %s", f.alg, first)
		}
	}()
	p := core.Params{Mu: f.mu, Seed: f.seed, Workers: e.cfg.Workers, Ctx: f.ctx}
	if f.ring != nil {
		// Guarded assignment: an unconditional p.Sink = f.ring would store a
		// typed-nil in the interface and turn tracing "on" with a nil sink.
		p.Sink = f.ring
		p.TraceLabel = f.alg
	}
	run, err = alg.Run(in, p, f.args)
	return run, false, err
}

// finishLocked completes a job; requires the engine mutex.
func (e *Engine) finishLocked(j *Job, res *Result, err error) {
	if err != nil {
		j.Status = StatusFailed
		j.Err = err.Error()
		e.metrics.inc("jobs_failed_total", 1)
	} else {
		j.Status = StatusDone
		j.Result = res
		e.metrics.inc("jobs_completed_total", 1)
	}
	j.finished = time.Now()
	close(j.done)
}

// pruneHistoryLocked drops the oldest finished job records so a
// long-lived daemon's job map stays bounded. It waits until the history
// exceeds the retention cap by a quarter, then cuts it back to the cap in
// one pass, so a submission pays O(1) amortized. Unfinished jobs are never
// dropped.
func (e *Engine) pruneHistoryLocked() {
	if len(e.history) <= jobHistory+jobHistory/4 {
		return
	}
	kept := e.history[:0]
	excess := len(e.history) - jobHistory
	for i, id := range e.history {
		j := e.jobs[id]
		if excess > 0 && i < len(e.history)-1 && j != nil &&
			(j.Status == StatusDone || j.Status == StatusFailed) {
			delete(e.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	e.history = kept
}

// Close drains the queue — every accepted job still completes — then stops
// the workers and flushes and closes the ledger, so a graceful shutdown
// leaves every completed job durably chained.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.queue)
	e.wg.Wait()
	if e.ledger != nil {
		if err := e.ledger.Close(); err != nil {
			e.log.Error("ledger close", "err", err)
		}
	}
}
