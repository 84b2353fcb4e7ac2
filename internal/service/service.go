// Package service is the concurrent job-serving subsystem over the MPC
// simulator: the layer that turns "run one algorithm once per process"
// (cmd/mrrun) into "serve many algorithm jobs from one long-lived daemon"
// (cmd/mrserve), the ROADMAP's serving north star.
//
// The pieces, bottom to top:
//
//   - InstanceSpec + BuildInstance (spec.go): a declarative, hashable
//     description of a problem instance — generator parameters or uploaded
//     graph bytes. Building is deterministic: one spec, one instance,
//     bit-identical everywhere.
//   - the instance cache (instances.go): builds each distinct spec once
//     (single-flight) and shares the immutable instance across all jobs
//     that reference it, with LRU eviction beyond a capacity.
//   - the job engine (engine.go) and its job table (table.go): a bounded
//     worker pool executes jobs, and one map from job key to an open
//     flight or a done result answers every submission. Identical
//     in-flight requests coalesce into one execution whose result fans
//     out to every waiter; done results are served from the table in LRU
//     order, and on a miss from the durable ledger (ledger.go) when it
//     holds the key.
//   - Metrics (metrics.go): plain-text counters and a job-latency
//     histogram for GET /metrics.
//   - Server (http.go): the HTTP JSON API (POST /v1/jobs, GET
//     /v1/jobs/{id}, GET/POST /v1/instances, GET /v1/algorithms,
//     GET /metrics).
//
// # Determinism
//
// A job is the tuple (instance spec, algorithm, canonical args, µ, seed).
// Its Result is a pure function of that tuple: the same job served cold,
// coalesced into a concurrent identical request, or answered from the
// result cache carries bit-identical solution summaries and model metrics
// (rounds, words, max space). Only the Job envelope (id, source, timing)
// differs between serving paths. This is the same executor-independence
// contract the simulator already guarantees (DESIGN.md): the engine's
// worker pool and per-job round executor change wall-clock, never results.
package service

import (
	"log/slog"
	"runtime"

	"repro/internal/obs"
)

// Engine limits no caller sets.
const (
	// queueDepth bounds the number of queued (not yet running)
	// executions; submissions beyond it are rejected with ErrQueueFull.
	queueDepth = 1024
	// jobHistory caps retained completed job records.
	jobHistory = 4096
)

// Config sizes the engine.
type Config struct {
	// Pool is the number of jobs executed concurrently (the worker pool
	// size). Default: GOMAXPROCS.
	Pool int
	// Workers is the per-job round-executor pool handed to core.Params
	// (0|1 sequential, >1 that many goroutines, <0 one per CPU). It never
	// changes results, only wall-clock. Default: 1 (sequential) — with
	// several jobs in flight, cross-job parallelism usually beats
	// within-job parallelism.
	Workers int
	// Results caps the done results the job table keeps; beyond it the
	// least recently used is evicted. Default: 256.
	Results int
	// Instances caps the instance cache entry count. Default: 64.
	Instances int
	// TraceRounds caps the per-flight round-trace ring served by
	// GET /v1/jobs/{id}/trace: each executed flight retains its newest
	// TraceRounds wall-clock round spans (phase timings — observability
	// only, never part of the deterministic Result). 0 uses the default
	// 256; negative disables round tracing. Default: 256.
	TraceRounds int
	// Logger receives structured lifecycle events (submissions, flight
	// executions) tagged with job and flight ids. nil disables
	// logging.
	Logger *slog.Logger
	// DataDir, when set, is the out-of-core instance store: uploaded and
	// preloaded graphs are spooled there as content-addressed raw binary
	// containers (<id>.mrg) and served zero-copy through graph.OpenMapped,
	// one physical mapping shared across all concurrent jobs. Evicted
	// uploads resurrect from the spool instead of failing. Empty disables
	// spooling; instances live on the heap.
	DataDir string
	// LedgerDir, when set, enables the durable Merkle-chained job ledger
	// (internal/ledger): every completed job is appended to an append-only
	// segmented log under this directory, the chain is verified on open
	// (a torn tail record after a kill -9 is truncated, not fatal), and a
	// restarted server serves pre-crash results bit-identically from the
	// recovered chain instead of re-executing them. Ledger IO never blocks
	// or fails a job: write errors retry with seeded backoff, then degrade
	// the ledger to memory-only operation. Empty disables the ledger.
	LedgerDir string
	// LedgerSegmentBytes rotates the ledger's active segment past this
	// size; 0 uses ledger.DefaultSegmentBytes.
	LedgerSegmentBytes int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Results <= 0 {
		c.Results = 256
	}
	if c.Instances <= 0 {
		c.Instances = 64
	}
	if c.TraceRounds == 0 {
		c.TraceRounds = 256
	}
	return c
}

// logger resolves the configured logger, substituting the nop logger for
// nil so the engine never needs a nil check at call sites.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NopLogger()
}
