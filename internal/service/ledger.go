package service

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/rng"
)

// The durable job ledger (internal/ledger) is the system of record behind
// the engine's job table: every completed flight appends a Merkle-chained
// record of (job key → result hash, metrics hash, timestamp) plus a
// self-contained replay envelope, and a restarted server serves pre-crash
// results bit-identically from the recovered chain instead of re-executing
// them. Ledger IO is strictly off the job path — the ledger's write batcher
// owns every write, a store failure degrades the ledger to memory-only
// operation (mrserve_ledger_degraded) and never fails a job.

// ledgerEnvelope is the payload stored with every record: enough to serve
// the result on restart (Result) and to re-execute the job offline
// (Spec — for uploads, by id against the spooled DataDir container).
// Result holds the exact canonical bytes whose SHA-256 is the record's
// ResultHash, so serving from the ledger is bit-identical by construction.
type ledgerEnvelope struct {
	Spec   InstanceSpec    `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// openLedger opens (or recovers) the configured ledger. Any failure —
// unreadable directory, corrupt chain — is degraded to memory-only
// operation with a structured log and the mrserve_ledger_degraded gauge,
// never a dead daemon: the torn-tail case (kill -9 mid-write) is repaired
// by the store itself and does not land here.
func (e *Engine) openLedger() {
	if e.cfg.LedgerDir == "" {
		return
	}
	m := e.metrics
	for _, c := range []string{"ledger_appends_total", "ledger_hits_total",
		"ledger_torn_tail_total", "ledger_verify_total", "ledger_verify_failed_total"} {
		m.inc(c, 0)
	}
	m.set("ledger_records", 0)
	m.set("ledger_degraded", 0)

	opts := ledger.Options{
		RetrySeed: rng.New(uint64(time.Now().UnixNano())).Uint64(),
		OnDegrade: func(err error) {
			m.set("ledger_degraded", 1)
			e.log.Error("ledger store failed; degrading to memory-only operation", "err", err)
		},
	}
	store, stats, err := ledger.OpenDisk(e.cfg.LedgerDir, ledger.DiskOptions{
		SegmentBytes: e.cfg.LedgerSegmentBytes})
	if err == nil {
		opts.Store = store
		var lerr error
		e.ledger, lerr = ledger.Open(opts)
		if lerr != nil {
			store.Close()
			err = lerr
		}
	}
	if err != nil {
		// Unrecoverable history (corruption, chain break): report loudly,
		// keep serving with an in-process chain so /v1/ledger still works
		// and the operator can see what happened. The error is kept on the
		// engine so VerifyLedger reports the damaged on-disk history
		// instead of blessing the substitute store's clean chain.
		e.log.Error("ledger recovery failed; running memory-only", "dir", e.cfg.LedgerDir, "err", err)
		m.set("ledger_degraded", 1)
		e.ledgerRecoveryErr = err
		opts.Store = ledger.NewMemStore()
		e.ledger, _ = ledger.Open(opts)
		return
	}
	if stats.TornTail {
		m.inc("ledger_torn_tail_total", 1)
		e.log.Warn("ledger recovery truncated a torn tail record",
			"dir", e.cfg.LedgerDir, "truncated_bytes", stats.TruncatedBytes)
	}
	head := e.ledger.Head()
	m.set("ledger_records", head.Seq)
	e.log.Info("ledger recovered", "dir", e.cfg.LedgerDir, "records", head.Seq,
		"segments", stats.Segments, "head", head.Link)
}

// recordLedger appends one completed flight's result to the ledger. Called
// off the engine mutex; Append never blocks on IO. Marshal failures are
// impossible for the Result shape (plain structs and maps), but are still
// swallowed defensively: the ledger must never fail a job.
func (e *Engine) recordLedger(f *flight, res *Result) {
	if e.ledger == nil {
		return
	}
	resultJSON, err := json.Marshal(res)
	if err != nil {
		e.log.Error("ledger: result marshal failed", "alg", f.alg, "err", err)
		return
	}
	metricsJSON, err := json.Marshal(res.Metrics)
	if err != nil {
		return
	}
	spec := f.spec
	if spec.Type == "upload" {
		// Never embed uploaded graph bytes in the chain; the spooled
		// DataDir container (content-addressed by the same id) is the
		// instance of record for replay and offline audit.
		spec = InstanceSpec{Type: "upload", ID: f.instID}
	}
	payload, err := json.Marshal(ledgerEnvelope{Spec: spec, Result: resultJSON})
	if err != nil {
		return
	}
	rec := e.ledger.Append(f.key, payload,
		ledger.HashBytes(resultJSON), ledger.HashBytes(metricsJSON))
	e.metrics.inc("ledger_appends_total", 1)
	e.metrics.set("ledger_records", rec.Seq)
}

// ledgerLookup serves a job key from the recovered chain, if present. A
// record that does not decode is a miss: the job simply executes — never
// fails — and verification will flag the damage.
func (e *Engine) ledgerLookup(key string) (*Result, bool) {
	if e.ledger == nil {
		return nil, false
	}
	rec, ok := e.ledger.Get(key)
	if !ok {
		return nil, false
	}
	_, res, err := decodeRecord(rec)
	if err != nil {
		e.log.Error("ledger record does not decode; not serving it",
			"key", key, "seq", rec.Seq, "err", err)
		return nil, false
	}
	return res, true
}

// decodeRecord opens a record's envelope and decodes its stored result,
// after checking — integrity before serving — that the stored result bytes
// still hash to the chained result hash.
func decodeRecord(rec *ledger.Record) (InstanceSpec, *Result, error) {
	var env ledgerEnvelope
	if err := json.Unmarshal(rec.Payload, &env); err != nil {
		return InstanceSpec{}, nil, fmt.Errorf("payload: %w", err)
	}
	if ledger.HashBytes(env.Result) != rec.ResultHash {
		return InstanceSpec{}, nil, fmt.Errorf("stored result bytes do not match the chained result hash")
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return InstanceSpec{}, nil, fmt.Errorf("stored result: %w", err)
	}
	return env.Spec, &res, nil
}

// LedgerView is the GET /v1/ledger document.
type LedgerView struct {
	Enabled bool `json:"enabled"`
	ledger.Head
	// TornTails is how many torn tail records recovery has truncated over
	// this process's lifetime (0 or 1: recovery runs once, at startup).
	TornTails uint64 `json:"torn_tails"`
	// Hits counts jobs served from the recovered chain without
	// re-execution.
	Hits uint64 `json:"hits"`
	// RecoveryError is set when startup recovery of the on-disk history
	// failed: the ledger in use is a memory-only substitute and the
	// damaged directory is still on disk, untouched.
	RecoveryError string `json:"recovery_error,omitempty"`
}

// LedgerInfo snapshots the ledger for the HTTP layer.
func (e *Engine) LedgerInfo() LedgerView {
	if e.ledger == nil {
		return LedgerView{}
	}
	v := LedgerView{
		Enabled:   true,
		Head:      e.ledger.Head(),
		TornTails: e.metrics.counter("ledger_torn_tail_total"),
		Hits:      e.metrics.counter("ledger_hits_total"),
	}
	if e.ledgerRecoveryErr != nil {
		v.RecoveryError = e.ledgerRecoveryErr.Error()
	}
	return v
}

// VerifyLedger re-reads the entire chain from its backing store,
// revalidates every checksum and link, and cross-checks the stored head
// against the live in-memory chain (POST /v1/ledger/verify). ok reports
// whether the ledger is enabled at all.
func (e *Engine) VerifyLedger() (ledger.VerifyReport, bool) {
	if e.ledger == nil {
		return ledger.VerifyReport{}, false
	}
	rep := e.ledger.Verify()
	if e.ledgerRecoveryErr != nil {
		// Startup recovery failed and the chain in use is a memory-only
		// substitute; a clean verify of the substitute says nothing about
		// the damaged history still sitting in the ledger directory, so the
		// report must carry the original recovery error.
		rep.OK = false
		rep.Error = fmt.Sprintf("ledger degraded at startup, verifying a memory-only substitute; on-disk recovery failed with: %v", e.ledgerRecoveryErr)
	}
	e.metrics.inc("ledger_verify_total", 1)
	if !rep.OK {
		e.metrics.inc("ledger_verify_failed_total", 1)
		e.log.Error("ledger verification failed", "records", rep.Records, "err", rep.Error)
	}
	return rep, true
}

// SyncLedger blocks until every record appended so far is durable (or the
// ledger degraded). Tests and the crash harness use it to establish the
// durability point before a kill.
func (e *Engine) SyncLedger() {
	if e.ledger != nil {
		e.ledger.Sync()
	}
}

// ---- Offline audit (cmd/mrverify) ----------------------------------------

// AuditReport summarizes an offline ledger audit: chain verification over
// the whole store plus re-execution of a sample of ledgered jobs.
type AuditReport struct {
	Records  uint64   `json:"records"`
	Segments int      `json:"segments"`
	HeadSeq  uint64   `json:"head_seq"`
	HeadLink string   `json:"head_link"`
	TornTail bool     `json:"torn_tail"`
	Keys     int      `json:"keys"`
	Replayed int      `json:"replayed"`
	Matched  int      `json:"matched"`
	Failures []string `json:"failures,omitempty"`
}

// OK reports a fully successful audit.
func (r AuditReport) OK() bool { return len(r.Failures) == 0 && r.Matched == r.Replayed }

// AuditLedger is the offline integrity check behind cmd/mrverify: it
// re-reads a ledger directory (read-only — safe against a live server),
// verifies the full Merkle chain, then re-executes `sample` of the
// ledgered jobs (0 = all; sampled deterministically from seed) against
// their recorded instance specs — resolving uploads from the spooled
// dataDir containers — and requires each re-execution to reproduce the
// chained result and metrics hashes bit-for-bit. Determinism as an
// end-to-end integrity check: a passing audit proves the stored results
// are exactly what running the jobs today produces.
func AuditLedger(dir, dataDir string, sample int, seed uint64, workers int,
	logf func(format string, args ...any)) (AuditReport, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep AuditReport
	var seq uint64
	var link ledger.Hash
	latest := make(map[string]*ledger.Record)
	order := []string{}
	stats, err := ledger.ReadDir(dir, func(r *ledger.Record) error {
		next, err := ledger.VerifyStep(seq, link, r)
		if err != nil {
			return err
		}
		seq, link = r.Seq, next
		if _, ok := latest[r.Key]; !ok {
			order = append(order, r.Key)
		}
		latest[r.Key] = cloneAuditRecord(r)
		return nil
	})
	rep.Records, rep.Segments, rep.TornTail = stats.Records, stats.Segments, stats.TornTail
	rep.HeadSeq, rep.HeadLink = seq, link.String()
	rep.Keys = len(latest)
	if err != nil {
		return rep, err
	}
	logf("chain ok: %d records, %d sealed segments, head seq %d link %s",
		rep.Records, rep.Segments, rep.HeadSeq, rep.HeadLink)

	picks := order
	if sample > 0 && sample < len(order) {
		// Deterministic sample: seeded shuffle, first `sample` keys.
		r := rng.New(seed)
		shuffled := append([]string(nil), order...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		picks = shuffled[:sample]
	}
	for _, key := range picks {
		rec := latest[key]
		rep.Replayed++
		if err := auditRecord(rec, dataDir, workers); err != nil {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("seq %d key %q: %v", rec.Seq, rec.Key, err))
			logf("FAIL seq %d: %v", rec.Seq, err)
			continue
		}
		rep.Matched++
		logf("ok   seq %d: %s", rec.Seq, rec.Key)
	}
	return rep, nil
}

// cloneAuditRecord keeps a stable copy of a replayed record (ReadDir may
// reuse buffers).
func cloneAuditRecord(r *ledger.Record) *ledger.Record {
	c := *r
	c.Payload = append([]byte(nil), r.Payload...)
	return &c
}

// auditRecord re-executes one ledgered job and compares hashes.
func auditRecord(rec *ledger.Record, dataDir string, workers int) error {
	spec, stored, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	alg, ok := core.LookupAlgorithm(stored.Alg)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", stored.Alg)
	}
	in, err := buildAuditInstance(spec, dataDir)
	if err != nil {
		return fmt.Errorf("instance: %w", err)
	}
	run, err := alg.Run(in, core.Params{Mu: stored.Mu, Seed: stored.Seed, Workers: workers}, stored.Args)
	if err != nil {
		return fmt.Errorf("re-execution: %w", err)
	}
	redone := Result{InstanceID: stored.InstanceID, Alg: stored.Alg, Args: stored.Args,
		Mu: stored.Mu, Seed: stored.Seed, RunResult: *run}
	redoneJSON, err := json.Marshal(&redone)
	if err != nil {
		return err
	}
	if ledger.HashBytes(redoneJSON) != rec.ResultHash {
		return fmt.Errorf("re-executed result hash differs from the chain (stored %s, got %s)",
			rec.ResultHash, ledger.HashBytes(redoneJSON))
	}
	metricsJSON, err := json.Marshal(run.Metrics)
	if err != nil {
		return err
	}
	if ledger.HashBytes(metricsJSON) != rec.MetricsHash {
		return fmt.Errorf("re-executed metrics hash differs from the chain")
	}
	return nil
}

// buildAuditInstance rebuilds the instance a record was executed on. For
// generator specs this is BuildInstance; upload specs resolve by content
// id against the spooled DataDir container.
func buildAuditInstance(spec InstanceSpec, dataDir string) (core.Input, error) {
	if spec.Type == "upload" && len(spec.Data) == 0 {
		if dataDir == "" {
			return core.Input{}, fmt.Errorf("upload instance %s needs -data pointing at the server's spool directory", spec.ID)
		}
		g, err := openSpooled(dataDir, spec.ID)
		if err != nil {
			return core.Input{}, err
		}
		in := core.Input{Graph: g}
		materialize(in)
		return in, nil
	}
	return BuildInstance(spec)
}
