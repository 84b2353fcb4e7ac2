package service

import (
	"time"

	"repro/internal/obs"
)

// The job trace endpoint: GET /v1/jobs/{id}/trace serves the wall-clock
// round spans the job's flight recorded — phase timings and traffic — as
// JSON. This is observability data, deliberately outside the
// deterministic Result: two runs of the same job return bit-identical
// Results and arbitrarily different traces. The ring is internally
// synchronized, so a running job's trace can be read live.

// TraceRound is one round span in the JSON projection. Durations are
// microseconds; the *_us keys mirror the Perfetto exporter's phase names.
type TraceRound struct {
	Round    int       `json:"round"`
	Active   int       `json:"active"`
	MaxLoad  int       `json:"max_load"`
	Words    int64     `json:"words"`
	Messages int       `json:"messages"`
	Start    time.Time `json:"start"`
	WallUS   float64   `json:"wall_clock_us"`
	Compute  float64   `json:"compute_us"`
	Merge    float64   `json:"merge_us"`
}

// TraceView is the GET /v1/jobs/{id}/trace response.
type TraceView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Source Source    `json:"source,omitempty"`
	Label  string    `json:"label,omitempty"`
	// Dropped counts spans evicted from the ring (rounds beyond the
	// configured TraceRounds retention).
	Dropped uint64       `json:"dropped_rounds,omitempty"`
	Rounds  []TraceRound `json:"rounds"`
}

// Trace returns the round trace of the job with the given id. Jobs served
// from the result cache (and jobs on an engine with tracing disabled)
// report zero rounds: only executed flights record spans.
func (e *Engine) Trace(id string) (TraceView, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return TraceView{}, false
	}
	v := TraceView{ID: j.ID, Status: j.Status, Source: j.Source}
	var ring *obs.RingSink
	if j.flight != nil {
		v.Label = j.flight.alg
		ring = j.flight.ring
	}
	e.mu.Unlock()

	v.Rounds = []TraceRound{} // render as [] not null when empty
	if ring == nil {
		return v, true
	}
	v.Dropped = ring.Dropped()
	for _, s := range ring.Snapshot() {
		v.Rounds = append(v.Rounds, TraceRound{
			Round: s.Round, Active: s.Active, MaxLoad: s.MaxLoad,
			Words: s.Words, Messages: s.Messages, Start: s.Start,
			WallUS:  us(s.Duration()),
			Compute: us(s.Compute),
			Merge:   us(s.Merge),
		})
	}
	return v, true
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
