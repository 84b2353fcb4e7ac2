package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// encodeGraph serializes a built instance's graph in the Encode text
// format.
func encodeGraph(t testing.TB, in core.Input) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, in.Graph); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer starts an engine and its HTTP server; both shut down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Engine) {
	t.Helper()
	e := NewEngine(cfg)
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

// postJSON posts v and decodes the JSON response into out.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestHTTPJobBitIdenticalToDirectRun is the end-to-end API determinism
// test: a job served over HTTP (wait=true) returns exactly the summary and
// model metrics of the direct mrrun-style run for the same spec and seed.
func TestHTTPJobBitIdenticalToDirectRun(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 2})
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 150, C: 0.3, Seed: 7},
		Alg:      "matching", Seed: 7,
	}
	want := directRun(t, req)

	var view JobView
	status := postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: req, Wait: true}, &view)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if view.Status != StatusDone {
		t.Fatalf("job status %s, error %q", view.Status, view.Error)
	}
	assertSameResult(t, "http-wait", view.Result, want)
}

// TestHTTPSubmitAndPoll exercises the async path: 202 on submit, poll
// GET /v1/jobs/{id} to completion.
func TestHTTPSubmitAndPoll(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 11},
		Alg:      "mis", Seed: 11,
	}
	want := directRun(t, req)

	var view JobView
	if status := postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: req}, &view); status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	deadline := time.Now().Add(30 * time.Second)
	for view.Status != StatusDone && view.Status != StatusFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", view.ID, view.Status)
		}
		time.Sleep(10 * time.Millisecond)
		if status := getJSON(t, srv.URL+"/v1/jobs/"+view.ID, &view); status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
	}
	if view.Status != StatusDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	assertSameResult(t, "http-poll", view.Result, want)

	var errBody map[string]string
	if status := getJSON(t, srv.URL+"/v1/jobs/j-99999999", &errBody); status != http.StatusNotFound {
		t.Fatalf("unknown job status %d", status)
	}
}

// TestHTTPUploadGzipAndServe uploads a gzip-compressed graph and runs a
// job against it by id; the instance listing must show it.
func TestHTTPUploadGzipAndServe(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	in, err := BuildInstance(InstanceSpec{Type: "density", N: 90, C: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	plain := encodeGraph(t, in)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/instances", "application/octet-stream", &gz)
	if err != nil {
		t.Fatal(err)
	}
	var info InstanceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.ID == "" || info.N != 90 {
		t.Fatalf("upload: status %d, info %+v", resp.StatusCode, info)
	}

	// The gzip and plain uploads name the same content.
	resp2, err := http.Post(srv.URL+"/v1/instances", "application/octet-stream", bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	var info2 InstanceInfo
	if err := json.NewDecoder(resp2.Body).Decode(&info2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if info2.ID != info.ID {
		t.Fatalf("gzip upload id %s != plain upload id %s", info.ID, info2.ID)
	}

	want := directRun(t, JobRequest{Instance: InstanceSpec{Type: "upload", Data: plain}, Alg: "mis", Seed: 4})
	var view JobView
	postJSON(t, srv.URL+"/v1/jobs", jobSubmission{
		JobRequest: JobRequest{Instance: InstanceSpec{Type: "upload", ID: info.ID}, Alg: "mis", Seed: 4},
		Wait:       true,
	}, &view)
	if view.Status != StatusDone {
		t.Fatalf("job status %s, error %q", view.Status, view.Error)
	}
	assertSameResult(t, "uploaded", view.Result, want)

	var listing struct {
		Instances []InstanceInfo `json:"instances"`
	}
	getJSON(t, srv.URL+"/v1/instances", &listing)
	found := false
	for _, i := range listing.Instances {
		if i.ID == info.ID && i.Uploaded {
			found = true
		}
	}
	if !found {
		t.Fatalf("uploaded instance %s missing from listing %+v", info.ID, listing.Instances)
	}
}

func TestHTTPAlgorithmsAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	var listing struct {
		Algorithms []struct {
			Name   string           `json:"name"`
			Input  string           `json:"input"`
			Params []core.ParamSpec `json:"params"`
		} `json:"algorithms"`
	}
	if status := getJSON(t, srv.URL+"/v1/algorithms", &listing); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(listing.Algorithms) != len(core.Algorithms()) {
		t.Fatalf("%d algorithms listed, want %d", len(listing.Algorithms), len(core.Algorithms()))
	}
	foundB := false
	for _, a := range listing.Algorithms {
		if a.Name == "bmatching" {
			foundB = true
			if a.Input != "graph" || len(a.Params) != 2 {
				t.Fatalf("bmatching row %+v", a)
			}
		}
	}
	if !foundB {
		t.Fatal("bmatching missing from listing")
	}

	var view JobView
	postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: JobRequest{
		Instance: InstanceSpec{Type: "density", N: 60, C: 0.3, Seed: 2},
		Alg:      "luby", Seed: 2,
	}, Wait: true}, &view)

	// The flight observes its latency and activity after it has released
	// the job's waiters, so the scrape is repeated until that has happened.
	var text string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text = buf.String()
		if strings.Contains(text, "mrserve_job_active_machines_count 1") || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"mrserve_jobs_submitted_total 1",
		"mrserve_jobs_completed_total 1",
		"mrserve_instances_built_total 1",
		"mrserve_job_latency_ms_count 1",
		`mrserve_job_latency_ms_bucket{le="+Inf"} 1`,
		// Scheduling-efficiency instrumentation: one completed job lands in
		// the active-machines histogram, and the process-wide executor-pool
		// counters render (their values depend on prior pooled activity, so
		// only the line prefix is pinned).
		"mrserve_job_active_machines_count 1",
		`mrserve_job_active_machines_bucket{le="+Inf"} 1`,
		"mrserve_executor_pool_rounds_total ",
		"mrserve_executor_pool_chunks_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	for name, body := range map[string]string{
		"not json":        "nope",
		"unknown field":   `{"bogus": 1}`,
		"unknown alg":     `{"instance":{"type":"density","n":10,"c":0.3},"alg":"wat"}`,
		"bad spec":        `{"instance":{"type":"density","n":-5},"alg":"mis"}`,
		"oversized spec":  `{"instance":{"type":"density","n":4194304,"c":1},"alg":"mis"}`,
		"incompatible":    `{"instance":{"type":"setcover-greedy","n":40},"alg":"mis"}`,
		"upload no data":  `{"instance":{"type":"upload"},"alg":"mis"}`,
		"unknown arg":     `{"instance":{"type":"density","n":10,"c":0.3},"alg":"mis","args":{"zeta":2}}`,
		"bad upload body": "",
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/instances", "application/octet-stream", strings.NewReader("graf"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad upload: status %d, want 400", resp.StatusCode)
	}

	if resp, err = http.Get(srv.URL + "/v1/jobs"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /v1/jobs without id should not be OK")
	}
}

// TestHTTPRejectsMuOutOfRange: a µ above 1 used to overflow the machine
// count's n^{1+µ} and panic the daemon with a send to a negative machine; a
// negative µ ran with machines of a few words. Both are now a 400, and the
// daemon goes on serving.
func TestHTTPRejectsMuOutOfRange(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	for _, mu := range []string{"5", "-1", "1.5"} {
		body := `{"instance":{"type":"density","n":2000,"c":0.3,"seed":5},"alg":"matching","seed":5,"mu":` + mu + `,"wait":true}`
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("mu=%s: status %d, want 400", mu, resp.StatusCode)
		}
	}
	one := 1.0
	req := JobRequest{Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 5}, Alg: "matching", Seed: 5, Mu: &one}
	var view JobView
	if status := postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: req, Wait: true}, &view); status != http.StatusOK {
		t.Fatalf("status %d after the rejections", status)
	}
	if view.Status != StatusDone {
		t.Fatalf("job status %s, error %q", view.Status, view.Error)
	}
	assertSameResult(t, "mu=1", view.Result, directRun(t, req))
}

// TestHTTPWaitClientGone: a waiting client whose connection dies abandons
// the job — the flight's context is canceled instead of burning the worker
// pool on a result nobody will read, and the job is left pollable in a
// terminal state. (Previously the orphaned job kept running to completion.)
func TestHTTPWaitClientGone(t *testing.T) {
	srv, e := newTestServer(t, Config{Pool: 1})
	// Occupy the single worker with a job big enough that the 5ms client
	// timeout below reliably fires while the waited job is still queued.
	blocker := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 20000, C: 0.3, Seed: 42},
		Alg:      "luby", Seed: 42,
	})
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 80, C: 0.3, Seed: 21},
		Alg:      "mis", Seed: 21,
	}
	body, _ := json.Marshal(jobSubmission{JobRequest: req, Wait: true})
	httpReq, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(httpReq.WithContext(ctx))
		errc <- err
	}()
	// Cancel the client only once the waited job demonstrably exists and is
	// queued behind the blocker — the disconnect is then deterministic.
	for {
		if _, ok := e.Get("j-00000002"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		// The job still slipped through before the cancellation landed; the
		// abandonment path didn't trigger and there is nothing to assert.
		t.Skip("wait completed before the disconnect; abandonment not exercised")
	}
	blocker.Wait()

	// The abandoned job must reach a terminal state — canceled, not
	// hanging, and not silently occupying the pool.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v1, ok1 := e.Get("j-00000001")
		v2, ok2 := e.Get("j-00000002")
		if ok1 && ok2 && v1.Status != StatusRunning && v1.Status != StatusQueued &&
			v2.Status != StatusRunning && v2.Status != StatusQueued {
			if v1.Status != StatusDone {
				t.Fatalf("blocker (never abandoned) finished %s: %s", v1.Status, v1.Error)
			}
			if v2.Status != StatusFailed || !strings.Contains(v2.Error, "canceled") {
				t.Fatalf("abandoned job: status %s error %q, want failed with a canceled error", v2.Status, v2.Error)
			}
			if got := e.metrics.counter("jobs_abandoned_total"); got != 1 {
				t.Fatalf("jobs_abandoned_total = %d, want 1", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not reach terminal states: %+v / %+v", v1, v2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPanicFailsJob: Misra–Gries assumes a simple graph, and on this one
// (every edge of a G(200, 1200) doubled) it fails to colour an edge and
// panics. The daemon fails that job with the panic as its error, counts it,
// and answers the next job.
func TestRunPanicFailsJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	simple := graph.GNM(200, 1200, rng.New(1))
	doubled := graph.New(simple.N)
	for _, e := range simple.Edges {
		doubled.AddEdge(e.U, e.V, e.W)
		doubled.AddEdge(e.U, e.V, e.W)
	}
	var buf bytes.Buffer
	if err := graph.Encode(&buf, doubled); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/instances", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var info InstanceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	upload := InstanceSpec{Type: "upload", ID: info.ID}

	var view JobView
	postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: JobRequest{Instance: upload, Alg: "ecolour", Seed: 1}, Wait: true}, &view)
	if view.Status != StatusFailed || !strings.Contains(view.Error, "ecolour panicked: seq: ") {
		t.Fatalf("ecolour on doubled edges: status %s, error %q; want failed with the panic", view.Status, view.Error)
	}

	var next JobView
	postJSON(t, srv.URL+"/v1/jobs", jobSubmission{JobRequest: JobRequest{Instance: upload, Alg: "vcolour", Seed: 1}, Wait: true}, &next)
	if next.Status != StatusDone {
		t.Fatalf("next job: status %s, error %q", next.Status, next.Error)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc bytes.Buffer
	if _, err := doc.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mrserve_jobs_panicked_total 1\n", "mrserve_jobs_failed_total 1\n", "mrserve_jobs_completed_total 1\n"} {
		if !strings.Contains(doc.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, doc.String())
		}
	}
}
