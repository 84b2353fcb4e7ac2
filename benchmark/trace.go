package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (0 for the root); Job groups the spans of one job.
type span struct {
	ID, Parent, Job int
	Name            string
	Start, End      time.Time
}

// recorder keeps spans in memory until the run ends. It is used from the
// load-generating goroutine only, so it needs no lock; a nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	spans []span
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, job int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// begin opens a span whose end is set by end; children may name it as their
// parent meanwhile.
func (r *recorder) begin(name string, parent, job int) int {
	return r.add(name, parent, job, time.Now(), time.Time{})
}

func (r *recorder) end(id int) {
	if r != nil && id > 0 {
		r.spans[id-1].End = time.Now()
	}
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, job int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, parent, job, start, end)
	return end.Sub(start)
}

// roundSink is the harness-owned obs.TraceSink handed to core.Params.Sink:
// it turns every simulator round of the current job into an mpc.round span
// with its compute, merge and barrier phases as children, and sums them.
type roundSink struct {
	rec                            *recorder
	parent, job                    int
	total, compute, merge, barrier time.Duration
}

func (s *roundSink) RoundDone(r obs.RoundSpan) {
	s.total += r.Duration()
	s.compute += r.Compute
	s.merge += r.Merge
	s.barrier += r.Barrier
	id := s.rec.add("mpc.round", s.parent, s.job, r.Start, r.End)
	at := r.Start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"mpc.round.compute", r.Compute}, {"mpc.round.merge", r.Merge}, {"mpc.round.barrier", r.Barrier}} {
		if ph.d <= 0 {
			continue
		}
		end := at.Add(ph.d)
		if end.After(r.End) { // phases partition the round only up to the instants between them
			end = r.End
		}
		s.rec.add(ph.name, id, s.job, at, end)
		at = end
	}
}

func (s *roundSink) Close() error { return nil }

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		out[s.Name] += s.End.Sub(s.Start) - cover(children[s.ID])
	}
	return out
}

// cover returns the length of the union of the spans' intervals.
func cover(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var total time.Duration
	var at time.Time
	for _, s := range spans {
		start := s.Start
		if start.Before(at) {
			start = at
		}
		if s.End.After(start) {
			total += s.End.Sub(start)
			at = s.End
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" event; ts and dur are
// microseconds. Perfetto loads an array of them directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// flush writes the spans as Chrome trace-event JSON, once, at exit.
func (r *recorder) flush(path string) error {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	zero := r.spans[0].Start
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Sub(zero).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
