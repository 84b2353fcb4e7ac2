package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// parsedEvent mirrors traceEvent for decoding sink output in tests.
type parsedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// goldenSpans is a deterministic two-cluster trace: fixed times, a labeled
// and an unlabeled cluster, a quiet round.
func goldenSpans() []RoundSpan {
	t0 := time.Unix(1700000000, 0).UTC()
	at := func(us int64) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	return []RoundSpan{
		{
			Label: "mis n=1000", Cluster: 1, Round: 1,
			Active: 64, MaxLoad: 4096, Words: 1234, Messages: 321,
			Start: at(0), End: at(900),
			Compute: 500 * time.Microsecond, Merge: 250 * time.Microsecond,
		},
		{
			Label: "mis n=1000", Cluster: 1, Round: 2,
			Active: 8, MaxLoad: 4096, Words: 99, Messages: 12,
			Start: at(1000), End: at(1400),
			Compute: 120 * time.Microsecond, Merge: 80 * time.Microsecond,
		},
		{
			Label: "", Cluster: 2, Round: 1,
			Active: 16, MaxLoad: 512, Words: 50, Messages: 5,
			Start: at(1200), End: at(1300),
			Compute: 60 * time.Microsecond, Merge: 30 * time.Microsecond,
		},
		{
			// Quiet round: no compute, bookkeeping only.
			Label: "mis n=1000", Cluster: 1, Round: 3,
			MaxLoad: 4096,
			Start:   at(1500), End: at(1502),
			Merge: 2 * time.Microsecond,
		},
	}
}

// renderGolden runs the golden spans through a sink pinned to the golden
// zero timestamp and returns the file bytes.
func renderGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewChromeTraceAt(&buf, time.Unix(1700000000, 0).UTC())
	for _, s := range goldenSpans() {
		sink.RoundDone(s)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decodeTrace parses sink output and returns the traceEvents array.
func decodeTrace(t *testing.T, raw []byte) []parsedEvent {
	t.Helper()
	var doc struct {
		TraceEvents []parsedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, raw)
	}
	return doc.TraceEvents
}

// TestChromeTraceGolden pins the exporter's exact output. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/obs -run TestChromeTraceGolden
func TestChromeTraceGolden(t *testing.T) {
	got := renderGolden(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace output drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestChromeTraceRoundTrip checks the output is strict JSON carrying
// every span: one named track per cluster, one round event per span with
// the model quantities intact, and the phase children.
func TestChromeTraceRoundTrip(t *testing.T) {
	events := decodeTrace(t, renderGolden(t))
	spans := goldenSpans()

	rounds := 0
	tracks := map[int64]string{}
	for _, ev := range events {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			name, _ := ev.Args["name"].(string)
			tracks[ev.Tid] = name
		case ev.Cat == "round":
			rounds++
		}
	}
	if rounds != len(spans) {
		t.Errorf("%d round events for %d spans", rounds, len(spans))
	}
	if len(tracks) != 2 {
		t.Errorf("expected 2 named tracks, got %v", tracks)
	}
	if tracks[1] != "mis n=1000" {
		t.Errorf("cluster 1 track name = %q", tracks[1])
	}
	if tracks[2] != "cluster 2" {
		t.Errorf("cluster 2 track name = %q", tracks[2])
	}
	// The first span's model quantities survive into the round args.
	for _, ev := range events {
		if ev.Cat == "round" && ev.Tid == 1 && ev.Name == "round 1" {
			if ev.Args["words"].(float64) != 1234 || ev.Args["active"].(float64) != 64 {
				t.Errorf("round 1 args lost model quantities: %v", ev.Args)
			}
		}
	}
}

// TestChromeTraceValidNesting checks every phase event lies within its
// round event on the same track — the property that makes Perfetto render
// phases as children instead of overlapping slices.
func TestChromeTraceValidNesting(t *testing.T) {
	events := decodeTrace(t, renderGolden(t))
	const eps = 1e-6
	for _, ph := range events {
		if ph.Cat != "phase" {
			continue
		}
		nested := false
		for _, round := range events {
			if round.Cat != "round" || round.Tid != ph.Tid {
				continue
			}
			if ph.Ts >= round.Ts-eps && ph.Ts+ph.Dur <= round.Ts+round.Dur+eps {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("phase %q at ts=%g dur=%g tid=%d not nested in any round event",
				ph.Name, ph.Ts, ph.Dur, ph.Tid)
		}
	}
}

// TestChromeTraceMonotonicTimestamps checks timestamps never go backwards
// within a track (rounds are emitted in order per cluster; phases advance
// a cursor from the round start).
func TestChromeTraceMonotonicTimestamps(t *testing.T) {
	events := decodeTrace(t, renderGolden(t))
	last := map[int64]float64{}
	lastRound := map[int64]float64{}
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		switch ev.Cat {
		case "round":
			if ev.Ts < lastRound[ev.Tid] {
				t.Errorf("round event %q ts=%g precedes previous round ts=%g on tid %d",
					ev.Name, ev.Ts, lastRound[ev.Tid], ev.Tid)
			}
			lastRound[ev.Tid] = ev.Ts
			last[ev.Tid] = ev.Ts
		case "phase":
			if ev.Ts < last[ev.Tid] {
				t.Errorf("phase %q ts=%g precedes previous event ts=%g on tid %d",
					ev.Name, ev.Ts, last[ev.Tid], ev.Tid)
			}
			last[ev.Tid] = ev.Ts
		}
	}
}

// TestChromeTraceEmptyClose checks a sink closed with no spans still
// writes a valid, loadable document.
func TestChromeTraceEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTrace(&buf)
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if events := decodeTrace(t, buf.Bytes()); len(events) != 1 {
		t.Fatalf("empty trace should carry only the sentinel, got %d events", len(events))
	}
	// Close is idempotent.
	if err := sink.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestChromeTraceFile exercises the file constructor end to end.
func TestChromeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	sink, err := NewChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.RoundDone(goldenSpans()[0])
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if events := decodeTrace(t, raw); len(events) < 2 {
		t.Fatalf("file trace too small: %d events", len(events))
	}
}
