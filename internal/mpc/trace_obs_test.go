package mpc

import (
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// roundModel is the model projection of an obs.RoundSpan: the five fields
// that are identical across executors, schedulers and sinks. Tests compare
// traces as slices of it, never as spans, which carry wall-clock times.
type roundModel struct {
	Round    int
	Words    int64
	Messages int
	MaxLoad  int
	Active   int
}

func modelOf(s obs.RoundSpan) roundModel {
	return roundModel{Round: s.Round, Words: s.Words, Messages: s.Messages, MaxLoad: s.MaxLoad, Active: s.Active}
}

// modelTrace is a TraceSink that keeps the model projection of every span.
type modelTrace struct{ rounds []roundModel }

func (t *modelTrace) RoundDone(s obs.RoundSpan) { t.rounds = append(t.rounds, modelOf(s)) }
func (t *modelTrace) Close() error              { return nil }

// tracedCluster returns a cluster for cfg whose rounds are recorded into the
// returned modelTrace.
func tracedCluster(cfg Config) (*Cluster, *modelTrace) {
	tr := new(modelTrace)
	cfg.Sink = tr
	return NewCluster(cfg), tr
}

// runWorkload drives a structurally rich deterministic workload — a dense
// scatter, a sparse funnel with self-arming, float payloads, a quiet round —
// and returns the per-machine state and metrics.
func runWorkload(cfg Config) ([]int64, Metrics, error) {
	c := NewCluster(cfg)
	defer c.Close()
	M := cfg.Machines
	state := make([]int64, M)

	// Round 1: every machine scatters two records.
	c.ArmAll()
	err := c.Round(func(m int, in *Inbox, out *Outbox) {
		out.Begin((m*7 + 1) % M)
		out.Int(int64(m))
		out.Float(float64(m) * 0.5)
		out.End()
		out.SendInts((m+3)%M, int64(m), int64(m*m))
	})
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("scatter round: %w", err)
	}

	// Funnel rounds: receivers fold their traffic toward machine 0; every
	// 8th machine self-arms once more after it first accumulates state.
	for r := 0; r < 6; r++ {
		err := c.Round(func(m int, in *Inbox, out *Outbox) {
			var sum int64
			for rec, ok := in.Next(); ok; rec, ok = in.Next() {
				sum += int64(rec.From)
				for _, v := range rec.Ints {
					sum += v
				}
				for _, f := range rec.Floats {
					sum += int64(f * 2)
				}
			}
			if sum != 0 {
				state[m] += sum
				if m > 0 {
					out.SendInts(m/2, sum)
				}
				if m%8 == 0 {
					c.Arm(m)
				}
			}
		})
		if err != nil {
			return nil, Metrics{}, fmt.Errorf("funnel round %d: %w", r, err)
		}
		c.SetResident(r%M, 10+r)
	}
	if err := c.Quiet(); err != nil {
		return nil, Metrics{}, fmt.Errorf("quiet round: %w", err)
	}
	return state, c.Metrics(), nil
}

// TestTracingDoesNotChangeResults is the determinism-vs-timing segregation
// proof at the mpc layer: attaching a TraceSink changes nothing the
// equivalence suites compare — state and metrics are bit-identical with and
// without a sink, sequential and pooled, and so is the spans' model
// projection across executors — while the sink itself observes exactly the
// executed rounds, whose model quantities sum to the metrics.
func TestTracingDoesNotChangeResults(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		var wantModel []roundModel
		for _, workers := range []int{1, 2} {
			base := Config{Machines: 33, SpaceCap: 1 << 20, Sparse: sparse, Workers: workers}
			wantState, wantMetrics, err := runWorkload(base)
			if err != nil {
				t.Fatalf("sparse=%v workers=%d untraced: %v", sparse, workers, err)
			}

			ring := obs.NewRingSink(1024)
			traced := base
			traced.Sink = ring
			traced.TraceLabel = "workload"
			state, metrics, err := runWorkload(traced)
			if err != nil {
				t.Fatalf("sparse=%v workers=%d traced: %v", sparse, workers, err)
			}
			if !reflect.DeepEqual(state, wantState) {
				t.Errorf("sparse=%v workers=%d: tracing changed state", sparse, workers)
			}
			if metrics != wantMetrics {
				t.Errorf("sparse=%v workers=%d: tracing changed metrics\n got %+v\nwant %+v",
					sparse, workers, metrics, wantMetrics)
			}

			// The sink saw every round, in order, with timing fields
			// consistent and model quantities that add up to the metrics,
			// which are computed apart from the spans.
			spans := ring.Snapshot()
			if len(spans) != metrics.Rounds {
				t.Fatalf("sparse=%v workers=%d: %d spans for %d rounds",
					sparse, workers, len(spans), metrics.Rounds)
			}
			var total Metrics
			model := make([]roundModel, len(spans))
			for i, s := range spans {
				model[i] = modelOf(s)
				if s.Round != i+1 {
					t.Errorf("span %d: Round = %d", i, s.Round)
				}
				total.WordsSent += s.Words
				total.Messages += int64(s.Messages)
				total.ActiveSum += int64(s.Active)
				total.MaxSpace = max(total.MaxSpace, s.MaxLoad)
				if s.Label != "workload" || s.Cluster == 0 {
					t.Errorf("span %d label/cluster not set: %+v", i, s)
				}
				if s.End.Before(s.Start) {
					t.Errorf("span %d ends before it starts", i)
				}
				if sum := s.Compute + s.Merge; sum > s.Duration()+time.Millisecond {
					t.Errorf("span %d phases (%v) exceed duration (%v)", i, sum, s.Duration())
				}
				if s.Barrier != 0 {
					t.Errorf("span %d: Barrier = %v, want always zero", i, s.Barrier)
				}
			}
			if total.WordsSent != metrics.WordsSent || total.Messages != metrics.Messages ||
				total.ActiveSum != metrics.ActiveSum || total.MaxSpace != metrics.MaxSpace {
				t.Errorf("sparse=%v workers=%d: spans sum to words %d, messages %d, active %d, max load %d; metrics %+v",
					sparse, workers, total.WordsSent, total.Messages, total.ActiveSum, total.MaxSpace, metrics)
			}
			if wantModel == nil {
				wantModel = model
			} else if !reflect.DeepEqual(model, wantModel) {
				t.Errorf("sparse=%v workers=%d: the model trace differs from workers=1", sparse, workers)
			}
		}
	}
}

// TestQuietRoundEmitsSpan checks Quiet keeps the span stream's round
// numbering contiguous with no compute or exchange time.
func TestQuietRoundEmitsSpan(t *testing.T) {
	ring := obs.NewRingSink(8)
	c := NewCluster(Config{Machines: 4, Sink: ring})
	defer c.Close()
	if err := c.Round(func(m int, in *Inbox, out *Outbox) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	spans := ring.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	q := spans[1]
	if q.Round != 2 || q.Compute != 0 || q.Barrier != 0 || q.Active != 0 {
		t.Errorf("quiet span wrong: %+v", q)
	}
}

// TestRoundTraceOffNoAllocs pins the tracing-off contract: with no sink
// configured the steady-state round path allocates exactly what it did
// before tracing existed (1 object per round for this workload, a fixed
// Round bookkeeping cost) — the instrumentation adds zero.
func TestRoundTraceOffNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; pin measured without -race")
	}
	const machines = 64
	c := NewCluster(Config{Machines: machines})
	defer c.Close()
	round := func() {
		err := c.Round(func(m int, in *Inbox, out *Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
			out.SendInts((m+machines/2)%machines, int64(m), int64(m))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		round() // warm the column pool and merge scratch
	}
	const preTraceBaseline = 1 // measured on this workload before tracing landed
	if avg := testing.AllocsPerRun(100, round); avg > preTraceBaseline {
		t.Fatalf("tracing-off round allocates %.1f objects per round, want <= %d (tracing must add zero)",
			avg, preTraceBaseline)
	}
}

// BenchmarkRoundTrace{Off,Ring,File} price observability per round on
// TestRoundTraceOffNoAllocs's 64-machine half-rotation scatter: tracing off
// (no sink, no timestamps), the ring sink (three time.Now calls plus one span
// copy into a recycled slot), and the Chrome-trace file sink (JSON encoding
// per round; io.Discard isolates encoding cost from disk). Results and model
// metrics are bit-identical across all three.
func benchRoundTrace(b *testing.B, sink obs.TraceSink) {
	const machines = 64
	cfg := Config{Machines: machines}
	if sink != nil {
		cfg.Sink = sink
		cfg.TraceLabel = "bench"
	}
	c := NewCluster(cfg)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Round(func(m int, in *Inbox, out *Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
			out.SendInts((m+machines/2)%machines, int64(m), int64(i))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTraceOff(b *testing.B)  { benchRoundTrace(b, nil) }
func BenchmarkRoundTraceRing(b *testing.B) { benchRoundTrace(b, obs.NewRingSink(256)) }
func BenchmarkRoundTraceFile(b *testing.B) { benchRoundTrace(b, obs.NewChromeTrace(io.Discard)) }
