package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mpc"
)

// goldenMetrics builds a metrics set with fixed injected process-wide
// totals and a deterministic observation history, so the rendered
// document is byte-for-byte reproducible regardless of what other tests
// in the binary did to the real mpc counters.
func goldenMetrics() *Metrics {
	m := newMetricsWith(func() (uint64, uint64) { return 1200, 4800 })
	// The counter mix NewEngine seeds plus a short serving history.
	m.inc("jobs_abandoned_total", 0)
	m.inc("jobs_panicked_total", 0)
	m.inc("jobs_submitted_total", 5)
	m.inc("jobs_completed_total", 4)
	m.inc("jobs_cache_hits_total", 1)
	m.inc("jobs_coalesced_total", 1)
	m.inc("flights_executed_total", 3)
	m.inc("jobs_failed_total", 1)
	m.observeLatency(700 * time.Microsecond)                     // le="1"
	m.observeLatency(1500 * time.Microsecond)                    // le="2"
	m.observeLatency(250 * time.Millisecond)                     // le="256"
	m.observeLatency(200 * time.Second)                          // +Inf (beyond 2^17 ms)
	m.observeActivity(mpc.Metrics{Rounds: 4, ActiveSum: 40})     // mean 10, le="16"
	m.observeActivity(mpc.Metrics{Rounds: 2, ActiveSum: 40000})  // mean 20000, +Inf
	m.observeActivity(mpc.Metrics{Rounds: 10, ActiveSum: 10})    // mean 1, le="1"
	m.observeActivity(mpc.Metrics{Rounds: 1, ActiveSum: 0})      // mean 0, le="1"
	m.observeActivity(mpc.Metrics{Rounds: 0, ActiveSum: 999999}) // ignored
	return m
}

// TestMetricsGoldenDocument pins the /metrics exposition byte-for-byte:
// sorted service counters, the two power-of-two histograms in the exact
// historical format, then the two fixed-order process-wide gauges.
// serve_smoke.sh greps exact lines out of this document, so any drift is
// an API break. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test ./internal/service -run TestMetricsGolden
func TestMetricsGoldenDocument(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().WritePlain(&buf); err != nil {
		t.Fatalf("WritePlain: %v", err)
	}
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("/metrics document drifted from %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestMetricsLiveTotalsWired checks a fresh engine's document reads the
// real process-wide executor-pool counters and carries the counters
// NewEngine seeds as explicit zeros.
func TestMetricsLiveTotalsWired(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	var buf bytes.Buffer
	if err := e.metrics.WritePlain(&buf); err != nil {
		t.Fatalf("WritePlain: %v", err)
	}
	for _, want := range []string{
		"mrserve_executor_pool_rounds_total ",
		"mrserve_executor_pool_chunks_total ",
		"mrserve_jobs_abandoned_total 0\n",
		"mrserve_flights_executed_total 0\n",
		"mrserve_jobs_panicked_total 0\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("live document missing %q:\n%s", want, buf.Bytes())
		}
	}
}

// TestMetricsRecoveryLines: a live engine's /metrics exports its one
// recovery counter, jobs_abandoned_total, even when zero, and none of the
// fallback, transport, respawn or chaos lines that left with sharding.
func TestMetricsRecoveryLines(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	var buf bytes.Buffer
	if err := e.metrics.WritePlain(&buf); err != nil {
		t.Fatalf("WritePlain: %v", err)
	}
	if want := "mrserve_jobs_abandoned_total 0\n"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Errorf("live document missing %q:\n%s", want, buf.Bytes())
	}
	for _, gone := range []string{
		"mrserve_shards ",
		"mrserve_fallback_unsharded_total",
		"mrserve_transport_batches_total",
		"mrserve_transport_bytes_total",
		"mrserve_transport_retries_total",
		"mrserve_transport_reconnects_total",
		"mrserve_worker_respawns_total",
		"mrserve_chaos_faults_total",
	} {
		if bytes.Contains(buf.Bytes(), []byte(gone)) {
			t.Errorf("live document still exports %q:\n%s", gone, buf.Bytes())
		}
	}
}
