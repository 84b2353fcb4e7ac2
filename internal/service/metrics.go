package service

import (
	"io"
	"time"

	"repro/internal/mpc"
	"repro/internal/obs"
)

// Metrics is the service's view onto an obs.Registry: service counters, a
// job-latency histogram, a per-job active-machines histogram, and the
// process-wide executor-pool totals exposed as gauges. WritePlain (GET
// /metrics) renders the registry as a deterministic plain-text document
// whose line order and formats are byte-compatible with the pre-obs
// bespoke writer — pinned by TestMetricsGoldenDocument. All methods are
// safe for concurrent use.
type Metrics struct {
	reg      *obs.Registry
	counters *obs.CounterSet
	latency  *obs.Histogram
	active   *obs.Histogram
}

// latencyBucketCount covers 1ms .. 2^17ms (~2 minutes) in power-of-two
// buckets; slower jobs land in the +Inf bucket.
const latencyBucketCount = 18

// activeBucketCount covers 1 .. 2^13 mean active machines per round in
// power-of-two buckets; larger clusters land in the +Inf bucket.
const activeBucketCount = 14

// NewMetrics returns a metrics set over the live process-wide executor-pool
// totals.
func NewMetrics() *Metrics { return newMetricsWith(mpc.PoolTotals) }

// newMetricsWith lays the registry out in the canonical exposition order:
// the sorted service counters, the two histograms, then the fixed-order
// process-wide gauges. Registration order is rendering order (obs), so
// this function is the single definition of the /metrics document shape.
// pool reports the executor-pool totals; NewMetrics wires the real mpc
// counters, and the golden test injects fixed values so the byte-format pin
// is independent of whatever other tests in the binary have run.
func newMetricsWith(pool func() (rounds, chunks uint64)) *Metrics {
	m := &Metrics{
		reg:      obs.NewRegistry(),
		counters: obs.NewCounterSet("mrserve_"),
		latency:  obs.NewHistogram("mrserve_job_latency_ms", latencyBucketCount),
		active:   obs.NewHistogram("mrserve_job_active_machines", activeBucketCount),
	}
	m.reg.Register(m.counters)
	m.reg.Register(m.latency)
	m.reg.Register(m.active)
	// Executor-pool utilisation is process-wide (every job's cluster shares
	// the persistent-pool implementation): batches executed by pooled
	// workers and task chunks claimed, straight from the simulator.
	m.reg.Register(obs.NewGaugeFunc("mrserve_executor_pool_rounds_total", func() uint64 {
		rounds, _ := pool()
		return rounds
	}))
	m.reg.Register(obs.NewGaugeFunc("mrserve_executor_pool_chunks_total", func() uint64 {
		_, chunks := pool()
		return chunks
	}))
	return m
}

// inc adds delta to the named counter (a zero delta materializes it as an
// explicit 0 line, which the engine uses to pre-seed incident counters).
func (m *Metrics) inc(name string, delta uint64) { m.counters.Add(name, delta) }

// set overwrites a gauge-valued entry in the counter set (the ledger's
// record count and 0/1 degradation flag live in the same sorted block as
// the counters).
func (m *Metrics) set(name string, value uint64) { m.counters.Set(name, value) }

// observeLatency records one completed-job latency in the histogram.
func (m *Metrics) observeLatency(d time.Duration) {
	m.latency.Observe(float64(d) / float64(time.Millisecond))
}

// observeActivity records one completed job's mean active machines per
// round (Metrics.ActiveSum / Rounds) in the activity histogram.
func (m *Metrics) observeActivity(run mpc.Metrics) {
	if run.Rounds == 0 {
		return
	}
	m.active.Observe(float64(run.ActiveSum) / float64(run.Rounds))
}

// counter reads one counter (testing helper).
func (m *Metrics) counter(name string) uint64 { return m.counters.Value(name) }

// WritePlain renders the registry as the deterministic plain-text
// /metrics document.
func (m *Metrics) WritePlain(w io.Writer) error { return m.reg.WriteText(w) }
