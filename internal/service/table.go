package service

import (
	"container/list"
	"context"

	"repro/internal/obs"
)

// The job table: one map from job key — (instance spec, algorithm,
// canonical args, µ, seed) — to that key's entry, guarded by the engine
// mutex. Jobs are deterministic, so a key has at most one result, and the
// entry is whichever form of it the engine holds:
//
//   - an open flight: the first job opened it and the worker pool executes
//     it; later identical jobs attach and receive the leader's result when
//     it lands (source: batch);
//   - a done result, kept in LRU order and evicted beyond Config.Results
//     (source: cache).
//
// On a miss Submit asks the durable ledger once: a recorded result becomes
// a done entry (source: ledger), otherwise the job opens a flight (source:
// run). Looking up, attaching and opening happen in one critical section,
// so a completing flight can never slip between "done?" and "in flight?"
// and make an identical request re-execute needlessly.

// entry is one key's row in the job table.
type entry struct {
	key    string
	flight *flight       // the open execution; nil once done
	res    *Result       // the done result
	lru    *list.Element // a done entry's place in Engine.lru; its Value is the entry
}

// flight is one in-flight execution and the jobs awaiting its result.
type flight struct {
	key    string
	alg    string
	spec   InstanceSpec
	instID string // SpecID(spec), computed once at submit time
	args   map[string]float64
	mu     float64
	seed   uint64
	jobs   []*Job

	// ring retains the flight's newest round spans (wall-clock phase
	// timings) for GET /v1/jobs/{id}/trace; nil when tracing is disabled.
	// It is internally synchronized, so a running flight's trace can be
	// snapshotted live without the engine mutex.
	ring *obs.RingSink

	// ctx cancels the execution between simulator rounds once every waiter
	// has abandoned the flight (Engine.Abandon). waiters counts jobs whose
	// submitter is still interested; it is guarded by the engine mutex like
	// the rest of the flight.
	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
}

// doneLocked turns en into a done entry holding res, at the front of the
// LRU, and evicts the least recently used done entries beyond
// Config.Results. The flight is dropped, so a done entry retains no ring,
// jobs or context. Requires the engine mutex.
func (e *Engine) doneLocked(en *entry, res *Result) {
	en.flight, en.res = nil, res
	en.lru = e.lru.PushFront(en)
	for e.lru.Len() > e.cfg.Results {
		delete(e.table, e.lru.Remove(e.lru.Back()).(*entry).key)
	}
}
