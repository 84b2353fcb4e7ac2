package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// directRun executes a request the way cmd/mrrun does — build the instance
// from the spec, run the algorithm through the registry — bypassing the
// engine entirely. It is the reference for the serving-path determinism
// tests.
func directRun(t testing.TB, req JobRequest) *core.RunResult {
	t.Helper()
	in, err := BuildInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	alg, ok := core.LookupAlgorithm(req.Alg)
	if !ok {
		t.Fatalf("unknown algorithm %q", req.Alg)
	}
	mu := defaultMu
	if req.Mu != nil {
		mu = *req.Mu
	}
	res, err := alg.Run(in, core.Params{Mu: mu, Seed: req.Seed, Workers: 0}, req.Args)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSubmit submits and fails the test on error.
func mustSubmit(t testing.TB, e *Engine, req JobRequest) *Job {
	t.Helper()
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// finished waits for the job and returns its final view, failing on error.
func finished(t testing.TB, e *Engine, j *Job) JobView {
	t.Helper()
	j.Wait()
	v := e.Snapshot(j)
	if v.Status != StatusDone {
		t.Fatalf("job %s: status %s, error %q", v.ID, v.Status, v.Error)
	}
	return v
}

// assertSameResult asserts the deterministic payload matches the direct
// reference bit for bit: summary string, scalars, and model metrics.
func assertSameResult(t *testing.T, label string, got *Result, want *core.RunResult) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", label)
	}
	if got.Summary != want.Summary {
		t.Errorf("%s: summary %q, want %q", label, got.Summary, want.Summary)
	}
	if got.Size != want.Size || got.Weight != want.Weight || got.Valid != want.Valid ||
		got.Iterations != want.Iterations {
		t.Errorf("%s: scalars (%d, %v, %v, %d), want (%d, %v, %v, %d)", label,
			got.Size, got.Weight, got.Valid, got.Iterations,
			want.Size, want.Weight, want.Valid, want.Iterations)
	}
	if got.Metrics != want.Metrics {
		t.Errorf("%s: metrics %+v, want %+v", label, got.Metrics, want.Metrics)
	}
}

// workerGate is a log handler that parks the engine worker announcing the
// first flight — the event is logged off the engine mutex, just before the
// flight runs — until release is closed. With Pool: 1 everything submitted
// while the worker is parked is still queued when it resumes, for certain
// rather than by outrunning a short job.
type workerGate struct {
	once            sync.Once
	parked, release chan struct{}
}

func newWorkerGate() *workerGate {
	return &workerGate{parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *workerGate) Enabled(context.Context, slog.Level) bool { return true }
func (g *workerGate) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *workerGate) WithGroup(string) slog.Handler            { return g }

func (g *workerGate) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "flight executing" {
		g.once.Do(func() {
			close(g.parked)
			<-g.release
		})
	}
	return nil
}

// waitParked returns once the worker is parked in its first flight.
func (g *workerGate) waitParked(t testing.TB) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("no worker logged \"flight executing\"")
	}
}

// TestServingPathsDeterminism is the end-to-end determinism check: the
// same (instance spec, alg, args, µ, seed) must return bit-identical
// results served cold, coalesced into a concurrent identical request,
// repeated from cache, and on an engine with a parallel round executor —
// all equal to the direct (mrrun-style) run.
func TestServingPathsDeterminism(t *testing.T) {
	reqs := []JobRequest{
		{Instance: InstanceSpec{Type: "density", N: 150, C: 0.3, Seed: 7}, Alg: "matching", Seed: 7},
		{Instance: InstanceSpec{Type: "density", N: 120, C: 0.3, Seed: 4}, Alg: "mis", Seed: 4},
		{Instance: InstanceSpec{Type: "vertexcover", N: 100, C: 0.3, Seed: 3}, Alg: "vertexcover", Seed: 3},
		{Instance: InstanceSpec{Type: "setcover-f", N: 60, C: 0.3, F: 3, Seed: 2}, Alg: "setcover-f", Seed: 2},
		{Instance: InstanceSpec{Type: "setcover-greedy", N: 120, Seed: 9}, Alg: "setcover-greedy",
			Args: map[string]float64{"eps": 0.3}, Seed: 9},
		{Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 5}, Alg: "bmatching",
			Args: map[string]float64{"b": 3}, Seed: 5},
	}
	for _, req := range reqs {
		req := req
		t.Run(req.Alg, func(t *testing.T) {
			want := directRun(t, req)

			// Cold.
			e := NewEngine(Config{Pool: 2})
			defer e.Close()
			cold := finished(t, e, mustSubmit(t, e, req))
			if cold.Source != SourceRun {
				t.Fatalf("cold source %q", cold.Source)
			}
			assertSameResult(t, "cold", cold.Result, want)

			// Repeated: served from the LRU result store.
			cached := finished(t, e, mustSubmit(t, e, req))
			if cached.Source != SourceCache {
				t.Fatalf("repeat source %q, want cache", cached.Source)
			}
			assertSameResult(t, "cached", cached.Result, want)

			// Coalesced: on a fresh single-worker engine, park the worker
			// inside a blocker flight, then submit the job twice; the
			// second submission must attach to the first's flight, which
			// cannot start before the worker is released.
			gate := newWorkerGate()
			e2 := NewEngine(Config{Pool: 1, Logger: slog.New(gate)})
			defer e2.Close()
			blocker := mustSubmit(t, e2, JobRequest{
				Instance: InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 99},
				Alg:      "luby", Seed: 99,
			})
			gate.waitParked(t)
			leader := mustSubmit(t, e2, req)
			follower := mustSubmit(t, e2, req)
			close(gate.release)
			blocker.Wait()
			lv, fv := finished(t, e2, leader), finished(t, e2, follower)
			if lv.Source != SourceRun || fv.Source != SourceBatch {
				t.Fatalf("coalesced sources (%q, %q), want (run, batch)", lv.Source, fv.Source)
			}
			assertSameResult(t, "leader", lv.Result, want)
			assertSameResult(t, "follower", fv.Result, want)

			// Parallel round executor: wall-clock-only by contract.
			e3 := NewEngine(Config{Pool: 1, Workers: -1})
			defer e3.Close()
			par := finished(t, e3, mustSubmit(t, e3, req))
			assertSameResult(t, "parallel-executor", par.Result, want)
		})
	}
}

// TestEngineHammer floods the engine with concurrent identical and
// distinct jobs (run under -race by CI). Every job must complete with the
// result of its key's reference run — no cross-job interference in
// results or model metrics — and each distinct key must execute exactly
// once (single-flight + cache).
func TestEngineHammer(t *testing.T) {
	reqs := []JobRequest{
		{Instance: InstanceSpec{Type: "density", N: 90, C: 0.3, Seed: 1}, Alg: "mis", Seed: 1},
		{Instance: InstanceSpec{Type: "density", N: 90, C: 0.3, Seed: 1}, Alg: "luby", Seed: 8},
		{Instance: InstanceSpec{Type: "density", N: 80, C: 0.3, Seed: 2}, Alg: "matching", Seed: 5},
		{Instance: InstanceSpec{Type: "setcover-f", N: 40, C: 0.3, F: 3, Seed: 3}, Alg: "setcover-f", Seed: 2},
		{Instance: InstanceSpec{Type: "density", N: 70, C: 0.3, Seed: 4}, Alg: "vcolour", Seed: 6},
	}
	want := make([]*core.RunResult, len(reqs))
	for i, req := range reqs {
		want[i] = directRun(t, req)
	}

	e := NewEngine(Config{Pool: 4, Results: 64, Instances: 16})
	defer e.Close()

	const waves = 8
	var wg sync.WaitGroup
	views := make([]JobView, waves*len(reqs))
	errs := make([]error, waves*len(reqs))
	for w := 0; w < waves; w++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(slot int, req JobRequest) {
				defer wg.Done()
				j, err := e.Submit(req)
				if err != nil {
					errs[slot] = err
					return
				}
				j.Wait()
				views[slot] = e.Snapshot(j)
			}(w*len(reqs)+i, req)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for slot, v := range views {
		i := slot % len(reqs)
		if v.Status != StatusDone {
			t.Fatalf("slot %d (%s): status %s, error %q", slot, reqs[i].Alg, v.Status, v.Error)
		}
		assertSameResult(t, fmt.Sprintf("slot %d (%s, source %s)", slot, reqs[i].Alg, v.Source),
			v.Result, want[i])
	}

	m := e.Metrics()
	if got := m.counter("flights_executed_total"); got != uint64(len(reqs)) {
		t.Errorf("flights executed %d, want %d (single-flight per distinct key)", got, len(reqs))
	}
	if got := m.counter("jobs_completed_total"); got != waves*uint64(len(reqs)) {
		t.Errorf("jobs completed %d, want %d", got, waves*len(reqs))
	}
	coalesced := m.counter("jobs_coalesced_total")
	hits := m.counter("jobs_cache_hits_total")
	if coalesced+hits != (waves-1)*uint64(len(reqs)) {
		t.Errorf("coalesced %d + cache hits %d = %d, want %d",
			coalesced, hits, coalesced+hits, (waves-1)*len(reqs))
	}
	// The instance cache must have built each distinct spec exactly once
	// (two reqs share a spec).
	if got := m.counter("instances_built_total"); got != 4 {
		t.Errorf("instances built %d, want 4", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	spec := InstanceSpec{Type: "density", N: 50, C: 0.3, Seed: 1}
	type submitCase struct {
		name string
		req  JobRequest
	}
	cases := []submitCase{
		{"unknown alg", JobRequest{Instance: spec, Alg: "nope"}},
		{"unknown arg", JobRequest{Instance: spec, Alg: "matching", Args: map[string]float64{"zeta": 1}}},
		{"bad spec type", JobRequest{Instance: InstanceSpec{Type: "wat", N: 5}, Alg: "matching"}},
		{"zero n", JobRequest{Instance: InstanceSpec{Type: "density"}, Alg: "matching"}},
		{"huge n", JobRequest{Instance: InstanceSpec{Type: "density", N: 1 << 30, C: 0.3}, Alg: "matching"}},
		{"incompatible input", JobRequest{Instance: spec, Alg: "setcover-f"}},
		{"graph alg on setcover", JobRequest{Instance: InstanceSpec{Type: "setcover-greedy", N: 40}, Alg: "mis"}},
		{"upload without data", JobRequest{Instance: InstanceSpec{Type: "upload"}, Alg: "mis"}},
	}
	// Non-finite algorithm arguments are refused by core's CanonArgs.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases,
			submitCase{fmt.Sprintf("bmatching b=%v", v),
				JobRequest{Instance: spec, Alg: "bmatching", Args: map[string]float64{"b": v}}},
			submitCase{fmt.Sprintf("bmatching eps=%v", v),
				JobRequest{Instance: spec, Alg: "bmatching", Args: map[string]float64{"eps": v}}},
			submitCase{fmt.Sprintf("setcover-greedy eps=%v", v),
				JobRequest{Instance: InstanceSpec{Type: "setcover-greedy", N: 40}, Alg: "setcover-greedy",
					Args: map[string]float64{"eps": v}}})
	}
	for _, tc := range cases {
		if _, err := e.Submit(tc.req); err == nil {
			t.Errorf("%s: expected a submit error", tc.name)
		}
	}
	// A valid bmatching b must be >= 1; that is a run-time failure (the
	// job fails, the submit succeeds).
	j := mustSubmit(t, e, JobRequest{Instance: spec, Alg: "bmatching",
		Args: map[string]float64{"b": 0}, Seed: 1})
	j.Wait()
	if v := e.Snapshot(j); v.Status != StatusFailed || v.Error == "" {
		t.Errorf("b=0 job: status %s, error %q; want failed", v.Status, v.Error)
	}
}

func TestSpecIDs(t *testing.T) {
	a := InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 1}
	b := InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 2}
	idA1, err := SpecID(a)
	if err != nil {
		t.Fatal(err)
	}
	idA2, _ := SpecID(a)
	idB, _ := SpecID(b)
	if idA1 != idA2 {
		t.Errorf("spec id unstable: %s vs %s", idA1, idA2)
	}
	if idA1 == idB {
		t.Errorf("distinct seeds share id %s", idA1)
	}
	if _, err := SpecID(InstanceSpec{Type: "density", N: -1}); err == nil {
		t.Error("negative n: expected error")
	}
}

func TestJobKeyCanonicalization(t *testing.T) {
	// Argument order and absent-vs-explicit defaults must not change the
	// key: both submissions below coalesce or cache-hit.
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	spec := InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 3}
	j1 := finished(t, e, mustSubmit(t, e, JobRequest{Instance: spec, Alg: "bmatching",
		Args: map[string]float64{"b": 2, "eps": 0.2}, Seed: 3}))
	j2 := finished(t, e, mustSubmit(t, e, JobRequest{Instance: spec, Alg: "bmatching", Seed: 3}))
	if j2.Source != SourceCache {
		t.Fatalf("defaulted-args resubmit source %q, want cache", j2.Source)
	}
	if j1.Result.Summary != j2.Result.Summary {
		t.Fatalf("summaries differ: %q vs %q", j1.Result.Summary, j2.Result.Summary)
	}
}

func TestInstanceEviction(t *testing.T) {
	e := NewEngine(Config{Pool: 1, Instances: 2})
	defer e.Close()
	submit := func(specSeed, jobSeed uint64) {
		finished(t, e, mustSubmit(t, e, JobRequest{
			Instance: InstanceSpec{Type: "density", N: 50, C: 0.3, Seed: specSeed},
			Alg:      "mis", Seed: jobSeed,
		}))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		submit(seed, seed)
	}
	if got := len(e.Instances()); got > 2 {
		t.Errorf("instance cache holds %d entries, cap 2", got)
	}
	if got := e.Metrics().counter("instances_evicted_total"); got < 1 {
		t.Errorf("expected at least one eviction, got %d", got)
	}
	// Eviction must victimize the LRU entry, never the entry being
	// inserted: spec 3 (just requested) stays cached, so a new job on it
	// builds nothing.
	found := false
	for _, info := range e.Instances() {
		id, _ := SpecID(InstanceSpec{Type: "density", N: 50, C: 0.3, Seed: 3})
		if info.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatal("most recently used instance was evicted")
	}
	built := e.Metrics().counter("instances_built_total")
	submit(3, 99) // distinct job key, same instance
	if got := e.Metrics().counter("instances_built_total"); got != built {
		t.Errorf("cached instance rebuilt: builds %d -> %d", built, got)
	}
}

// TestEngineResultEviction drives the job table's done entries through
// Engine.Submit: a hit refreshes its entry, the least recently used entry
// is evicted beyond Config.Results, and an evicted key is promoted back
// from the ledger when there is one and re-executed when there is not,
// with the first run's result either way.
func TestEngineResultEviction(t *testing.T) {
	spec := InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 1}
	req := func(seed uint64) JobRequest { return JobRequest{Instance: spec, Alg: "mis", Seed: seed} }
	// Results compare as the JSON the ledger hashes: a result decoded from
	// the ledger carries nil Args where the run's are empty.
	source := func(t *testing.T, e *Engine, seed uint64) (Source, string) {
		t.Helper()
		v := finished(t, e, mustSubmit(t, e, req(seed)))
		b, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		return v.Source, string(b)
	}
	expect := func(t *testing.T, e *Engine, seed uint64, want Source, first string) {
		t.Helper()
		if got, res := source(t, e, seed); got != want || res != first {
			t.Errorf("seed %d: source %q, result %s; want %q and the first run's %s",
				seed, got, res, want, first)
		}
	}

	t.Run("lru", func(t *testing.T) {
		e := NewEngine(Config{Pool: 1, Results: 2})
		defer e.Close()
		_, a := source(t, e, 1)
		_, b := source(t, e, 2)
		expect(t, e, 1, SourceCache, a) // refreshes a
		_, c := source(t, e, 3)         // evicts b, the least recently used
		expect(t, e, 1, SourceCache, a)
		expect(t, e, 3, SourceCache, c)
		expect(t, e, 2, SourceRun, b)
		if n := e.lru.Len(); n != 2 || len(e.table) != 2 {
			t.Errorf("%d done entries in a table of %d, want 2 and 2", n, len(e.table))
		}
	})
	t.Run("ledger", func(t *testing.T) {
		e := NewEngine(Config{Pool: 1, Results: 1, LedgerDir: filepath.Join(t.TempDir(), "ledger")})
		defer e.Close()
		_, a := source(t, e, 1)
		syncLedgerAt(t, e, 1)
		source(t, e, 2) // evicts a
		expect(t, e, 1, SourceLedger, a)
		expect(t, e, 1, SourceCache, a)
		if n := e.metrics.counter("flights_executed_total"); n != 2 {
			t.Errorf("%d flights executed, want 2", n)
		}
	})
}

// armedGate parks the worker like workerGate, but only for flights that
// start once armed is set.
type armedGate struct {
	*workerGate
	armed atomic.Bool
}

func (g *armedGate) Handle(ctx context.Context, r slog.Record) error {
	if g.armed.Load() {
		return g.workerGate.Handle(ctx, r)
	}
	return nil
}

// TestJobHistoryPrunesOldestFinished submits 3 × jobHistory cache hits
// behind a running and a queued job: the job records never exceed
// jobHistory + jobHistory/4, the records dropped are the oldest finished
// ones, and the unfinished jobs survive.
func TestJobHistoryPrunesOldestFinished(t *testing.T) {
	gate := &armedGate{workerGate: newWorkerGate()}
	e := NewEngine(Config{Pool: 1, Logger: slog.New(gate)})
	defer e.Close()
	spec := InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 1}
	hit := JobRequest{Instance: spec, Alg: "mis", Seed: 1}
	first := finished(t, e, mustSubmit(t, e, hit))
	gate.armed.Store(true)
	running := mustSubmit(t, e, JobRequest{Instance: spec, Alg: "mis", Seed: 2})
	gate.waitParked(t)
	defer close(gate.release)
	queued := mustSubmit(t, e, JobRequest{Instance: spec, Alg: "mis", Seed: 3})

	for i := 0; i < 3*jobHistory; i++ {
		mustSubmit(t, e, hit)
		e.mu.Lock()
		n := len(e.jobs)
		e.mu.Unlock()
		if n > jobHistory+jobHistory/4 {
			t.Fatalf("after %d hits: %d job records, want <= %d", i+1, n, jobHistory+jobHistory/4)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.jobs[first.ID]; ok {
		t.Errorf("the oldest finished job %s is still retained", first.ID)
	}
	if len(e.history) != len(e.jobs) || len(e.history) < jobHistory {
		t.Fatalf("%d history ids for %d job records, want equal and >= %d",
			len(e.history), len(e.jobs), jobHistory)
	}
	// Oldest first: what is kept is the unfinished pair, then the newest
	// finished jobs without a gap.
	if e.history[0] != running.ID || e.history[1] != queued.ID {
		t.Errorf("history starts %v, want the unfinished %s and %s", e.history[:2], running.ID, queued.ID)
	}
	newest := e.jobSeq - uint64(len(e.history)-2)
	for i, id := range e.history[2:] {
		if want := fmt.Sprintf("j-%08d", newest+uint64(i)+1); id != want || e.jobs[id] == nil {
			t.Fatalf("history[%d] = %s, want %s with its record", i+2, id, want)
		}
	}
}

// BenchmarkSubmitCacheHit measures Engine.Submit on a cached key once the
// engine retains a full history of job records, as a long-lived daemon
// does.
func BenchmarkSubmitCacheHit(b *testing.B) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	req := JobRequest{Instance: InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 1}, Alg: "mis", Seed: 1}
	finished(b, e, mustSubmit(b, e, req))
	for i := 0; i < jobHistory; i++ {
		mustSubmit(b, e, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustSubmit(b, e, req)
	}
}

func TestUploadServesJobs(t *testing.T) {
	// Upload a graph, run on it by id, and check the result equals the
	// direct run on inline data.
	in, err := BuildInstance(InstanceSpec{Type: "density", N: 80, C: 0.3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	data := encodeGraph(t, in)

	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	id, info, err := e.Upload(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 80 || info.M != in.Graph.M() {
		t.Fatalf("upload info %+v", info)
	}
	want := directRun(t, JobRequest{Instance: InstanceSpec{Type: "upload", Data: data}, Alg: "luby", Seed: 2})
	v := finished(t, e, mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "upload", ID: id}, Alg: "luby", Seed: 2,
	}))
	assertSameResult(t, "upload-by-id", v.Result, want)

	// Unknown (or evicted) id: submit succeeds, job fails gracefully.
	j := mustSubmit(t, e, JobRequest{Instance: InstanceSpec{Type: "upload", ID: "feedbeef"}, Alg: "luby", Seed: 2})
	j.Wait()
	if view := e.Snapshot(j); view.Status != StatusFailed {
		t.Fatalf("unknown id: status %s, want failed", view.Status)
	}
}

func TestEngineCloseDrains(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	jobs := make([]*Job, 0, 4)
	for seed := uint64(1); seed <= 4; seed++ {
		jobs = append(jobs, mustSubmit(t, e, JobRequest{
			Instance: InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 1},
			Alg:      "mis", Seed: seed,
		}))
	}
	e.Close()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not completed by Close", j.ID)
		}
		if v := e.Snapshot(j); v.Status != StatusDone {
			t.Fatalf("job %s: status %s after drain", j.ID, v.Status)
		}
	}
	if _, err := e.Submit(JobRequest{
		Instance: InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 1},
		Alg:      "mis", Seed: 9,
	}); err == nil {
		t.Fatal("submit after Close should fail")
	}
}

func TestAlgorithmsRegistry(t *testing.T) {
	algs := core.Algorithms()
	if len(algs) != 12 {
		t.Fatalf("registry has %d algorithms, want 12", len(algs))
	}
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name
	}
	if !reflect.DeepEqual(names, []string{
		"bmatching", "clique", "ecolour", "filtering", "luby", "matching",
		"mis", "mis-simple", "setcover-f", "setcover-greedy", "vcolour", "vertexcover",
	}) {
		t.Fatalf("registry names %v", names)
	}
	for _, a := range algs {
		if _, ok := core.LookupAlgorithm(a.Name); !ok {
			t.Errorf("lookup %q failed", a.Name)
		}
	}
}

// BenchmarkServiceThroughput{1,4} measure the job engine's end-to-end
// throughput at a worker-pool size of 1 and 4: batches of jobs on one shared
// cached instance, every job a distinct seed so nothing coalesces or
// cache-hits — each is a full algorithm execution on its own mpc.Cluster.
// Pool=4 vs Pool=1 shows cross-job scaling on a multi-core host; results and
// model metrics are identical by the determinism contract.
func benchmarkServiceThroughput(b *testing.B, pool int) {
	e := NewEngine(Config{Pool: pool, Workers: 1, Results: 16, Instances: 4})
	defer e.Close()
	spec := InstanceSpec{Type: "density", N: 300, C: 0.3, Seed: 17}
	const batch = 8
	seed := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]*Job, 0, batch)
		for k := 0; k < batch; k++ {
			seed++
			jobs = append(jobs, mustSubmit(b, e, JobRequest{Instance: spec, Alg: "mis", Seed: seed}))
		}
		for _, j := range jobs {
			j.Wait()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

func BenchmarkServiceThroughput1(b *testing.B) { benchmarkServiceThroughput(b, 1) }
func BenchmarkServiceThroughput4(b *testing.B) { benchmarkServiceThroughput(b, 4) }
