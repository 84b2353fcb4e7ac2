package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/service"
)

// The serve workload drives the daemon path: an in-process service.Engine
// behind service.NewServer on a loopback listener, one HTTP client in a
// closed loop (wait:true). Sizes below are for the reference host; the
// schedule is a fixed number of catalogue passes, never a timer.
const (
	serveGraphN    = 16000 // uploaded graph: density n, c
	serveGraphC    = 0.3
	serveSetupReps = 5
	// servePassesPerSec sizes the schedule: round(seconds·servePassesPerSec)
	// passes over the catalogue, one never-seen job per entry per pass.
	servePassesPerSec = 1.4
	// serveHits re-submissions of already answered keys follow each executed
	// job, so that about a quarter of the wall-clock is spent in the hit path.
	serveHits = 100
	// serveRecent bounds how far back re-submissions reach: well inside the
	// engine's default result LRU (256), so every one is a predictable
	// "cache" hit and none falls through to the ledger.
	serveRecent = 128
)

// catalogueEntry is one kind of job the schedule submits. upload entries run
// on the uploaded, mapped graph; the others on an instance the engine builds
// from a generator spec on first use.
type catalogueEntry struct {
	alg    string
	upload bool
	spec   service.InstanceSpec
}

func serveCatalogue(seed uint64, tiny bool) []catalogueEntry {
	n, nGreedy := 8000, 40000
	if tiny {
		n, nGreedy = 300, 600
	}
	return []catalogueEntry{
		{alg: "matching", upload: true},
		{alg: "mis", upload: true},
		{alg: "vcolour", upload: true},
		{alg: "vertexcover", spec: service.InstanceSpec{Type: "vertexcover", N: n, C: 0.3, Seed: seed}},
		{alg: "setcover-f", spec: service.InstanceSpec{Type: "setcover-f", N: n, C: 0.3, F: 3, Seed: seed}},
		{alg: "setcover-greedy", spec: service.InstanceSpec{Type: "setcover-greedy", N: nGreedy, Seed: seed}},
		{alg: "bmatching", spec: service.InstanceSpec{Type: "density", N: n, C: 0.3, Seed: seed}},
	}
}

// submission is the POST /v1/jobs body.
type submission struct {
	service.JobRequest
	Wait bool `json:"wait"`
}

// daemon is one started engine with its HTTP front and its directories.
type daemon struct {
	dir      string
	engine   *service.Engine
	server   *http.Server
	served   chan struct{} // closed when Serve has returned
	stopOnce sync.Once
	base     string
	client   *http.Client
	uploadID string
}

// daemonConfig is the engine every daemon of the workload runs, on dir's
// spool and ledger directories.
func daemonConfig(dir string) service.Config {
	return service.Config{Pool: 2, Workers: 1,
		DataDir: filepath.Join(dir, "data"), LedgerDir: filepath.Join(dir, "ledger")}
}

func startDaemon(dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan struct{}), base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	d.engine = service.NewEngine(daemonConfig(dir))
	d.server = &http.Server{Handler: service.NewServer(d.engine)}
	go func() {
		defer close(d.served)
		_ = d.server.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return d, nil
}

// stop closes the listener and its connections, waits for Serve to return,
// and drains and closes the engine (which flushes the ledger). Stopping twice
// is harmless.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.client.CloseIdleConnections()
		_ = d.server.Close() // the error is the listener's close error; nothing to do with it
		<-d.served
		d.engine.Close()
	})
}

// request builds the job of catalogue entry e with the given seed.
func (d *daemon) request(e catalogueEntry, seed uint64) service.JobRequest {
	spec := e.spec
	if e.upload {
		spec = service.InstanceSpec{Type: "upload", ID: d.uploadID}
	}
	return service.JobRequest{Instance: spec, Alg: e.alg, Seed: seed}
}

// submit posts one job with wait:true and returns its final view and the
// latency the client saw.
func (d *daemon) submit(c *http.Client, req service.JobRequest) (service.JobView, time.Time, time.Time, error) {
	body, err := json.Marshal(submission{JobRequest: req, Wait: true})
	if err != nil {
		return service.JobView{}, time.Time{}, time.Time{}, err
	}
	start := time.Now()
	resp, err := c.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobView{}, start, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return service.JobView{}, start, end, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.JobView{}, start, end, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, firstLine(data))
	}
	var view service.JobView
	err = json.Unmarshal(data, &view)
	return view, start, end, err
}

// upload posts the container file and returns the instance the server made
// of it.
func (d *daemon) upload(path string) (service.InstanceInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return service.InstanceInfo{}, err
	}
	resp, err := d.client.Post(d.base+"/v1/instances", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return service.InstanceInfo{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.InstanceInfo{}, err
	}
	if resp.StatusCode != http.StatusCreated {
		return service.InstanceInfo{}, fmt.Errorf("POST /v1/instances: %s: %s", resp.Status, firstLine(body))
	}
	var info service.InstanceInfo
	err = json.Unmarshal(body, &info)
	return info, err
}

// counters reads GET /metrics into name → value.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, nil
}

// serveRun is the state of one run of the serve workload.
type serveRun struct {
	o         options
	out       *outcome
	rec       *recorder
	root      int
	catalogue []catalogueEntry
	graphN    int
	first     map[string]service.Result // job key → first result
	pins      map[string]pin
	pinning   bool                 // first answers are pinned: the set-up pass only
	answered  []service.JobRequest // executed jobs, oldest first
}

func jobName(req service.JobRequest) string { return fmt.Sprintf("%s/seed=%d", req.Alg, req.Seed) }

// verify checks one response: done, from the source the schedule predicts
// (any, when want is empty), valid, no violation, and identical to the first
// answer to the same job.
func (r *serveRun) verify(req service.JobRequest, view service.JobView, want service.Source) bool {
	name := jobName(req)
	if !r.out.check(view.Status == service.StatusDone && view.Result != nil, "%s: status %s: %s", name, view.Status, view.Error) {
		return false
	}
	ok := r.out.check(want == "" || view.Source == want, "%s: source %q, the schedule predicts %q", name, view.Source, want)
	res := *view.Result
	ok = r.out.check(res.Valid && res.Metrics.Violations == 0, "%s: valid=%v violations=%d", name, res.Valid, res.Metrics.Violations) && ok
	if prev, seen := r.first[name]; seen {
		ok = r.out.check(prev.RunResult == res.RunResult && prev.InstanceID == res.InstanceID,
			"%s: answer differs from the first", name) && ok
	} else {
		r.first[name] = res
		if r.pinning {
			p := pinOf(&res.RunResult)
			r.pins[name] = p
			ok = checkPin(r.out, r.o, name, p) && ok
		}
	}
	return ok
}

// setUp runs the set-up sequence once: files → daemon ready with every
// catalogue instance built. The layer spans and metrics are recorded only on
// the traced pass (a nil recorder records nothing).
func (r *serveRun) setUp(dir string, v map[string]float64) (*daemon, error) {
	setup := r.rec.begin("setup", r.root, 0)
	defer r.rec.end(setup)
	var err error
	step := func(name, metric string, f func() error) {
		if err != nil {
			return
		}
		d := r.rec.timed(name, setup, 0, func() { err = f() })
		if v != nil && metric != "" {
			v[metric] = d.Seconds()
		}
	}
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	text, container := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.mrg")
	var g *graph.Graph
	step("graph.generate", "graph.generate_s", func() error {
		gen := rng.New(r.o.seed)
		g = graph.Density(r.graphN, serveGraphC, gen.Split())
		g.AssignUniformWeights(gen.Split(), 1, 100)
		return nil
	})
	step("graph.encode_text", "graph.encode_text_s", func() error { return graph.WriteFile(text, g) })
	step("graph.convert", "graph.convert_s", func() error { return graph.ConvertFile(text, container, nil) })
	step("graph.verify", "graph.verify_s", func() error { return graph.VerifyContainer(container) })
	var d *daemon
	step("service.start", "", func() error {
		d, err = startDaemon(dir)
		return err
	})
	step("service.upload", "service.upload_s", func() error {
		info, err := d.upload(container)
		if err != nil {
			return err
		}
		r.out.check(info.Mapped && info.M == g.M(), "upload: mapped=%v m=%d, want mapped graph of %d edges", info.Mapped, info.M, g.M())
		d.uploadID = info.ID
		return nil
	})
	step("service.first_jobs", "", func() error {
		r.pinning = true
		defer func() { r.pinning = false }()
		for _, e := range r.catalogue {
			req := d.request(e, r.o.seed*1000000)
			view, _, _, err := d.submit(d.client, req)
			if err != nil {
				return err
			}
			r.verify(req, view, service.SourceRun)
		}
		return nil
	})
	if err != nil && d != nil {
		d.stop()
	}
	if v != nil && g != nil {
		v["graph.edges"] = float64(g.M())
	}
	return d, err
}

// schedule is the timed phase's result.
type schedule struct {
	executed    []float64 // client latency of each executed job, seconds
	passes      []float64 // mean executed latency of each catalogue pass, reference-scaled
	plainPasses []float64 // the same, unscaled
	hits        []float64 // client latency of each cache hit, seconds
	overhead    []float64 // client latency minus the job view's Finished−Created
	jobs        int       // responses received, all sources
	units       []unit    // one per pass
	ref         reference
	results     []service.Result
}

// runSchedule is the closed loop: per pass, one never-seen job per catalogue
// entry (source "run"), each followed by serveHits re-submissions of recent
// keys (source "cache") drawn from the seed.
func (r *serveRun) runSchedule(d *daemon, passes, hits int, firstSeed uint64) schedule {
	s := schedule{ref: newReference()}
	pick := rng.New(r.o.seed ^ firstSeed)
	seed := firstSeed
	for pass := 0; pass < passes; pass++ {
		var sum float64
		var n int
		before, u := s.jobs, startUnit()
		for _, e := range r.catalogue {
			seed++
			req := d.request(e, seed)
			jobID := s.jobs + 1
			view, start, end, err := d.submit(d.client, req)
			s.jobs++
			if err != nil {
				r.out.check(false, "%s: %v", jobName(req), err)
				continue
			}
			if r.verify(req, view, service.SourceRun) {
				lat := end.Sub(start).Seconds()
				s.executed = append(s.executed, lat)
				s.overhead = append(s.overhead, lat-view.Finished.Sub(view.Created).Seconds())
				s.results = append(s.results, *view.Result)
				sum, n = sum+lat, n+1
				id := r.rec.add("http.request", r.root, jobID, start, end)
				// The view's timestamps crossed JSON and lost their monotonic
				// reading; clamp them into the request they belong to.
				r.rec.add("service.job", id, jobID, clamp(view.Created, start, end), clamp(view.Finished, start, end))
			}
			r.answered = append(r.answered, req)
			recent := r.answered
			if len(recent) > serveRecent {
				recent = recent[len(recent)-serveRecent:]
			}
			for h := 0; h < hits; h++ {
				again := recent[pick.Intn(len(recent))]
				view, start, end, err := d.submit(d.client, again)
				s.jobs++
				if err != nil {
					r.out.check(false, "%s: %v", jobName(again), err)
					continue
				}
				if r.verify(again, view, service.SourceCache) {
					s.hits = append(s.hits, end.Sub(start).Seconds())
				}
			}
		}
		pass := u.done(s.jobs-before, &s.ref)
		s.units = append(s.units, pass)
		if n == len(r.catalogue) {
			s.passes = append(s.passes, pass.scale*sum/float64(n))
			s.plainPasses = append(s.plainPasses, sum/float64(n))
		}
	}
	return s
}

func runServe(o options) (*outcome, error) {
	r := &serveRun{o: o, out: newOutcome(), catalogue: serveCatalogue(o.seed, o.tiny), graphN: serveGraphN,
		first: make(map[string]service.Result), pins: make(map[string]pin)}
	passes, hits, reps := int(math.Round(float64(o.seconds)*servePassesPerSec)), serveHits, serveSetupReps
	if o.tiny {
		r.graphN, passes, hits, reps = tinyN, 2, 5, 2
	}
	if passes < 2 {
		passes = 2
	}
	base := filepath.Join(o.tmpDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var err error
	if o.trace == 0 {
		err = r.untraced(base, passes, hits, reps)
	} else {
		err = r.traced(base, passes, hits)
	}
	if err != nil {
		return nil, err
	}
	return r.out, writePins(o, r.pins)
}

func (r *serveRun) untraced(base string, passes, hits, reps int) error {
	var setups []float64
	var d *daemon
	for i := 0; i < reps; i++ {
		if d != nil {
			d.stop()
			if err := os.RemoveAll(d.dir); err != nil {
				return err
			}
		}
		runtime.GC()
		ref := newReference()
		u := startUnit()
		var err error
		if d, err = r.setUp(filepath.Join(base, strconv.Itoa(i)), nil); err != nil {
			return err
		}
		set := u.done(1, &ref)
		setups = append(setups, set.wallS*set.scale)
	}
	defer d.stop()
	resetPeakRSS()
	r.runSchedule(d, 1, hits, r.o.seed*1000000+500000) // warm-up: one pass

	start := snapshot()
	s := r.runSchedule(d, passes, hits, r.o.seed*1000000)
	used := snapshot().since(start)
	if len(s.passes) == 0 {
		return fmt.Errorf("no catalogue pass of %d passed its checks", passes)
	}
	// One executed job of each catalogue entry makes a pass; job_s is taken
	// over the passes' mean executed latency, so every entry moves it, and the
	// units of cpu_s and jobs_per_s are whole passes, hits included.
	endToEnd(r.out, setups, s.passes, s.plainPasses, s.units, s.ref, used)
	r.out.note("responses %d (%d executed, %d cache hits)", s.jobs, len(s.executed), len(s.hits))
	return nil
}

func (r *serveRun) traced(base string, passes, hits int) error {
	r.rec = &recorder{}
	r.root = r.rec.begin("workload", 0, 0)
	v := r.out.values
	d, err := r.setUp(filepath.Join(base, "0"), v)
	if err != nil {
		return err
	}
	defer d.stop()
	r.runSchedule(d, 1, hits, r.o.seed*1000000+500000)

	start := snapshot()
	s := r.runSchedule(d, passes, hits, r.o.seed*1000000)
	used := snapshot().since(start)
	r.rec.end(r.root)
	if len(s.passes) == 0 || len(s.hits) == 0 {
		return fmt.Errorf("no catalogue pass of %d passed its checks", passes)
	}
	v["service.run_p50_ms"] = 1e3 * median(s.executed)
	v["service.run_p90_ms"] = 1e3 * quantile(s.executed, 0.90)
	v["service.http_hit_p50_us"] = 1e6 * median(s.hits)
	v["service.http_hit_p99_us"] = 1e6 * quantile(s.hits, 0.99)
	v["service.http_overhead_us"] = 1e6 * median(s.overhead)
	used.gcMetrics(v, s.jobs)
	// Model costs of the executed jobs: exact, and the same on every run of a seed.
	for _, res := range s.results {
		m := res.Metrics
		v["core.iterations"] += float64(res.Iterations)
		v["mpc.rounds"] += float64(m.Rounds)
		v["mpc.words"] += float64(m.WordsSent)
		v["mpc.messages"] += float64(m.Messages)
		v["mpc.violations"] += float64(m.Violations)
		v["mpc.machines"] = math.Max(v["mpc.machines"], float64(m.Machines))
		v["mpc.max_space"] = math.Max(v["mpc.max_space"], float64(m.MaxSpace))
	}
	before, err := d.counters()
	if err != nil {
		return err
	}
	v["service.cache_hits"] = before["mrserve_jobs_cache_hits_total"]
	v["service.flights_executed"] = before["mrserve_flights_executed_total"]
	v["service.rejected"] = before["mrserve_jobs_rejected_total"]

	// Engine.Submit on a cached key, without HTTP.
	const directHits = 2000
	cached := r.answered[len(r.answered)-1]
	t0 := time.Now()
	for i := 0; i < directHits; i++ {
		j, err := d.engine.Submit(cached)
		if err != nil || j.Source != service.SourceCache {
			r.out.check(false, "Engine.Submit of a cached key: source %v, err %v", j, err)
			break
		}
	}
	v["service.submit_hit_us"] = float64(time.Since(t0).Microseconds()) / directHits

	if err := r.twoClients(d, passes/4, before["mrserve_jobs_coalesced_total"]); err != nil {
		return err
	}
	r.restart(d)

	probeFiles(r.out, d.dir)
	probeInstances(r.out, r.catalogue)
	probeLedger(r.out, filepath.Join(d.dir, "ledger-probe"))
	for _, e := range r.catalogue {
		if e.alg == "setcover-greedy" { // the paper's headline, as a cold one-shot
			probeMrrun(r.out, r.o, "-alg", e.alg, "-n", fmt.Sprint(e.spec.N), "-seed", fmt.Sprint(r.o.seed))
		}
	}
	for i, e := range r.catalogue {
		var lat []float64
		for k := i; k < len(s.executed); k += len(r.catalogue) {
			lat = append(lat, s.executed[k])
		}
		r.out.note("  %-16s run p50 %7.1f ms", e.alg, 1e3*median(lat))
	}
	r.out.note("schedule: %d responses, %d executed, %d cache hits in %.3f s", s.jobs, len(s.executed), len(s.hits), used.wallS)
	return r.rec.flush(tracePath(r.o))
}

// twoClients runs passes of the schedule's executed jobs from two clients
// at once, the second replaying the first's keys, so that its jobs coalesce
// with the first's flights or hit the cache.
func (r *serveRun) twoClients(d *daemon, passes int, coalescedBefore float64) error {
	if passes < 1 {
		passes = 1
	}
	v := r.out.values
	var wg sync.WaitGroup
	var second serveRun
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		second = r.replay(d, passes, r.o.seed*1000000+700000)
	}()
	first := r.replay(d, passes, r.o.seed*1000000+700000)
	wg.Wait()
	wall := time.Since(t0).Seconds()
	for name, res := range first.first {
		other, ok := second.first[name]
		r.out.check(ok && other.RunResult == res.RunResult, "%s: the two clients' answers differ", name)
	}
	for _, side := range []serveRun{first, second} {
		r.out.attempted += side.out.attempted
		r.out.failed += side.out.failed
		r.out.notes = append(r.out.notes, side.out.notes...)
	}
	v["service.c2_jobs_per_s"] = float64(2*passes*len(r.catalogue)) / wall
	after, err := d.counters()
	if err != nil {
		return err
	}
	v["service.coalesced"] = after["mrserve_jobs_coalesced_total"] - coalescedBefore
	return nil
}

// restart stops the daemon and starts an engine on the same directories: the
// ledger must verify, and serve the last executed jobs without running them.
func (r *serveRun) restart(d *daemon) {
	v := r.out.values
	d.stop()
	t0 := time.Now()
	again := service.NewEngine(daemonConfig(d.dir))
	defer again.Close()
	v["ledger.reopen_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	rep, enabled := again.VerifyLedger()
	v["ledger.verify_s"] = time.Since(t0).Seconds()
	r.out.check(enabled && rep.OK, "ledger verify after restart: enabled=%v %+v", enabled, rep)
	v["ledger.records"] = float64(rep.Records)
	served := 0
	for i := 0; i < 20 && i < len(r.answered); i++ {
		req := r.answered[len(r.answered)-1-i]
		j, err := again.Submit(req)
		if err != nil {
			r.out.check(false, "%s after restart: %v", jobName(req), err)
			continue
		}
		j.Wait()
		if r.verify(req, again.Snapshot(j), service.SourceLedger) {
			served++
		}
	}
	v["ledger.served_after_restart"] = float64(served)
	v["ledger.mb"] = dirMB(filepath.Join(d.dir, "ledger"))
}

// replay runs passes of executed jobs with no re-submissions from a client of
// its own, checking validity and identity but predicting no source: which of
// two simultaneous identical jobs leads the flight is a race by design.
func (r *serveRun) replay(d *daemon, passes int, firstSeed uint64) serveRun {
	side := serveRun{o: r.o, out: newOutcome(), catalogue: r.catalogue, first: make(map[string]service.Result)}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	seed := firstSeed
	for pass := 0; pass < passes; pass++ {
		for _, e := range r.catalogue {
			seed++
			req := d.request(e, seed)
			view, _, _, err := d.submit(client, req)
			if err != nil {
				side.out.check(false, "%s: %v", jobName(req), err)
				continue
			}
			side.verify(req, view, "")
		}
	}
	return side
}

func clamp(t, lo, hi time.Time) time.Time {
	if t.Before(lo) {
		return lo
	}
	if t.After(hi) {
		return hi
	}
	return t
}

func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // an unreadable entry only makes the figure smaller
	})
	return float64(total) / (1 << 20)
}
