package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ChromeTraceSink is a TraceSink streaming spans as a Chrome trace event
// file — the "JSON object format" both chrome://tracing and Perfetto
// load. Each traced cluster becomes one named track (a tid under pid 0);
// every round renders as a complete ("ph":"X") event carrying the model
// quantities in args, with its compute and merge phases as
// complete events nested inside it back-to-back. Timestamps are
// microseconds relative to the sink's zero point, so a file starts near
// ts 0 no matter when the process booted.
//
// Events are written as they arrive; Close writes the closing bracket and
// flushes. A file abandoned without Close is still salvageable — viewers
// tolerate a truncated event array — but incomplete by contract.
type ChromeTraceSink struct {
	w      io.Writer
	buf    *bufio.Writer
	zero   time.Time
	wrote  bool           // at least one event emitted (comma bookkeeping)
	named  map[int64]bool // cluster tracks with thread_name metadata emitted
	closed bool
	err    error // first write error; subsequent spans are dropped
}

// traceEvent is one entry of the traceEvents array. Field order is the
// serialization order, which keeps output deterministic for golden tests.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int64   `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Args any     `json:"args,omitempty"`
}

// roundArgs annotates a round's parent event with the model quantities.
type roundArgs struct {
	Active   int   `json:"active"`
	Words    int64 `json:"words"`
	Messages int   `json:"messages"`
	MaxLoad  int   `json:"max_load"`
}

// NewChromeTrace returns a sink streaming to w, with the zero timestamp
// taken now. If w implements io.Closer, Close closes it.
func NewChromeTrace(w io.Writer) *ChromeTraceSink {
	return NewChromeTraceAt(w, time.Now())
}

// NewChromeTraceAt pins the zero timestamp explicitly: ts values in the
// file are microseconds since zero. Used by golden tests and by
// coordinators that rebuild a timeline from collected spans after the
// fact (the zero should then be the earliest span start, or ts goes
// negative).
func NewChromeTraceAt(w io.Writer, zero time.Time) *ChromeTraceSink {
	return &ChromeTraceSink{
		w:     w,
		buf:   bufio.NewWriter(w),
		zero:  zero,
		named: make(map[int64]bool),
	}
}

// NewChromeTraceFile creates (or truncates) path and returns a sink
// streaming to it.
func NewChromeTraceFile(path string) (*ChromeTraceSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewChromeTrace(f), nil
}

// us converts a timestamp to trace microseconds relative to the zero
// point, keeping sub-microsecond precision.
func (c *ChromeTraceSink) us(t time.Time) float64 {
	return float64(t.Sub(c.zero).Nanoseconds()) / 1e3
}

// emit writes one event, handling the array syntax and error latching.
func (c *ChromeTraceSink) emit(ev traceEvent) {
	if c.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if !c.wrote {
		_, c.err = c.buf.WriteString(`{"traceEvents":[` + "\n")
		c.wrote = true
	}
	if c.err == nil {
		_, c.err = c.buf.Write(raw)
	}
	if c.err == nil {
		_, c.err = c.buf.WriteString(",\n")
	}
}

// RoundDone implements TraceSink. Not safe for concurrent use across
// goroutines; wrap per-cluster sinks or serialize externally (the
// simulator calls it from the single goroutine driving the cluster).
func (c *ChromeTraceSink) RoundDone(s RoundSpan) {
	if c.closed {
		return
	}
	if !c.named[s.Cluster] {
		c.named[s.Cluster] = true
		// The label names the track verbatim when set, and same-named
		// tracks stay distinct rows through their tids. Unlabeled clusters
		// fall back to the numeric id.
		name := s.Label
		if name == "" {
			name = fmt.Sprintf("cluster %d", s.Cluster)
		}
		c.emit(traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: s.Cluster,
			Args: map[string]string{"name": name},
		})
	}
	c.emit(traceEvent{
		Name: fmt.Sprintf("round %d", s.Round), Cat: "round", Ph: "X",
		Pid: 0, Tid: s.Cluster,
		Ts: c.us(s.Start), Dur: float64(s.Duration().Nanoseconds()) / 1e3,
		Args: roundArgs{
			Active: s.Active, Words: s.Words, Messages: s.Messages,
			MaxLoad: s.MaxLoad,
		},
	})
	// Phases nest inside the round event back-to-back from its start; the
	// measured phases partition the round (up to inter-phase instants), so
	// the chain never overruns the parent and timestamps stay monotonic.
	cursor := s.Start
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{
		{"compute", s.Compute},
		{"merge", s.Merge},
	} {
		if ph.d <= 0 {
			continue
		}
		c.emit(traceEvent{
			Name: ph.name, Cat: "phase", Ph: "X", Pid: 0, Tid: s.Cluster,
			Ts: c.us(cursor), Dur: float64(ph.d.Nanoseconds()) / 1e3,
		})
		cursor = cursor.Add(ph.d)
	}
}

// Close implements TraceSink: terminates the event array, flushes, and
// closes the underlying writer if it is a Closer. Idempotent.
func (c *ChromeTraceSink) Close() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	if c.err == nil {
		if !c.wrote {
			_, c.err = c.buf.WriteString(`{"traceEvents":[` + "\n")
		}
		// The trailing ",\n" after the last event is legal in the Chrome
		// format but not strict JSON; close the array with a metadata
		// sentinel so python3 -m json.tool and jq accept the file.
		if c.err == nil {
			_, c.err = c.buf.WriteString(`{"name":"trace_done","ph":"M","pid":0,"tid":0,"ts":0}` + "\n]}\n")
		}
	}
	if err := c.buf.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	if closer, ok := c.w.(io.Closer); ok {
		if err := closer.Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}
