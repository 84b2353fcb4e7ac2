package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitDone submits req with wait=true and returns the final view.
func waitDone(t *testing.T, url string, req JobRequest) JobView {
	t.Helper()
	var view JobView
	sub := jobSubmission{JobRequest: req, Wait: true}
	if status := postJSON(t, url+"/v1/jobs", sub, &view); status != http.StatusOK {
		t.Fatalf("submit status %d", status)
	}
	if view.Status != StatusDone {
		t.Fatalf("job %s finished %s: %s", view.ID, view.Status, view.Error)
	}
	return view
}

// TestHTTPJobTrace runs a job and checks its trace endpoint: one span per
// executed round, phase durations within the wall clock, cache-served
// resubmissions reporting zero rounds.
func TestHTTPJobTrace(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1})
	req := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 200, C: 0.3, Seed: 7},
		Alg:      "mis", Seed: 7,
	}
	view := waitDone(t, srv.URL, req)

	var trace TraceView
	if status := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/trace", &trace); status != http.StatusOK {
		t.Fatalf("trace status %d", status)
	}
	if trace.ID != view.ID || trace.Status != StatusDone || trace.Label != "mis" {
		t.Fatalf("trace envelope wrong: %+v", trace)
	}
	if len(trace.Rounds) != view.Result.Metrics.Rounds {
		t.Fatalf("%d trace rounds for %d executed rounds",
			len(trace.Rounds), view.Result.Metrics.Rounds)
	}
	for i, r := range trace.Rounds {
		if r.Round != i+1 {
			t.Errorf("round %d numbered %d", i+1, r.Round)
		}
		if sum := r.Compute + r.Merge; sum > r.WallUS+1000 {
			t.Errorf("round %d phases (%.1fus) exceed wall clock (%.1fus)", r.Round, sum, r.WallUS)
		}
	}

	// The same request again is a cache hit: same Result, no trace rounds.
	again := waitDone(t, srv.URL, req)
	if again.Source != SourceCache {
		t.Fatalf("resubmission source = %s, want cache", again.Source)
	}
	var cached TraceView
	if status := getJSON(t, srv.URL+"/v1/jobs/"+again.ID+"/trace", &cached); status != http.StatusOK {
		t.Fatalf("cached trace status %d", status)
	}
	if len(cached.Rounds) != 0 || cached.Source != SourceCache {
		t.Fatalf("cache-served job should carry an empty trace, got %+v", cached)
	}

	var errBody map[string]string
	if status := getJSON(t, srv.URL+"/v1/jobs/j-99999999/trace", &errBody); status != http.StatusNotFound {
		t.Fatalf("unknown job trace status %d", status)
	}
}

// TestTraceDisabled checks TraceRounds < 0 switches round tracing off:
// executed jobs report zero spans and the endpoint still answers.
func TestTraceDisabled(t *testing.T) {
	srv, _ := newTestServer(t, Config{Pool: 1, TraceRounds: -1})
	view := waitDone(t, srv.URL, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 3},
		Alg:      "mis", Seed: 3,
	})
	var trace TraceView
	if status := getJSON(t, srv.URL+"/v1/jobs/"+view.ID+"/trace", &trace); status != http.StatusOK {
		t.Fatalf("trace status %d", status)
	}
	if len(trace.Rounds) != 0 {
		t.Fatalf("tracing disabled but %d rounds recorded", len(trace.Rounds))
	}
}

// TestTraceRingRetention checks the ring keeps the newest spans and
// reports the evicted count.
func TestTraceRingRetention(t *testing.T) {
	e := NewEngine(Config{Pool: 1, TraceRounds: 2})
	defer e.Close()
	j, err := e.Submit(JobRequest{
		Instance: InstanceSpec{Type: "density", N: 300, C: 0.3, Seed: 5},
		Alg:      "mis", Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	view := e.Snapshot(j)
	if view.Status != StatusDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	rounds := view.Result.Metrics.Rounds
	if rounds <= 2 {
		t.Skipf("workload ran only %d rounds; retention untestable", rounds)
	}
	trace, ok := e.Trace(j.ID)
	if !ok {
		t.Fatal("trace lookup failed")
	}
	if len(trace.Rounds) != 2 {
		t.Fatalf("ring kept %d rounds, want 2", len(trace.Rounds))
	}
	if int(trace.Dropped) != rounds-2 {
		t.Fatalf("Dropped = %d, want %d", trace.Dropped, rounds-2)
	}
	if trace.Rounds[1].Round != rounds {
		t.Fatalf("newest retained round is %d, want %d", trace.Rounds[1].Round, rounds)
	}
}

// TestEngineStructuredLogging checks the lifecycle events carry job ids
// and algorithm names through a real slog handler.
func TestEngineStructuredLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	e := NewEngine(Config{Pool: 1, Logger: logger})
	defer e.Close()
	j, err := e.Submit(JobRequest{
		Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 9},
		Alg:      "mis", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	// flight-done logging happens after the job channel closes; give the
	// worker a beat to finish its bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		out := buf.String()
		mu.Unlock()
		if strings.Contains(out, "flight done") || time.Now().After(deadline) {
			for _, want := range []string{"job submitted", "flight executing", "flight done", j.ID, "alg=mis"} {
				if !strings.Contains(out, want) {
					t.Errorf("log output missing %q:\n%s", want, out)
				}
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lockedWriter serializes concurrent handler writes in the test above.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
