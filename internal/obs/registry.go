// Package obs is the repo's dependency-free observability kernel: a
// concurrent metrics registry with deterministic Prometheus-style
// plain-text exposition (registry.go, histogram.go), and a streaming
// phase-timed round-trace layer (trace.go, ring.go, perfetto.go) that the
// simulator feeds and the daemons export.
//
// # Determinism vs. timing
//
// The repo's core invariant is bit-identity: results, model metrics
// (mpc.Metrics) and the model fields of each round's RoundSpan are
// identical across executors and scheduling modes. Wall-clock
// measurements can never satisfy that, so this package keeps them
// strictly segregated: timing lives only in the timing fields of
// RoundSpan records streamed to a TraceSink, never in the model structs
// the equivalence suites compare. Attaching or
// detaching a sink changes nothing observable about an execution except
// the stream itself.
//
// # Exposition determinism
//
// WriteText renders collectors in registration order, and each collector
// renders its own lines deterministically (CounterSet sorts its names).
// Two registries built by the same code therefore emit byte-identical
// documents for the same counter values — the property the mrserve
// /metrics golden test pins.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Collector renders one or more exposition lines. Implementations must be
// safe for concurrent use with their own update methods.
type Collector interface {
	// AppendText appends complete exposition lines (no trailing newline per
	// line) to dst and returns the extended slice.
	AppendText(dst []string) []string
}

// Registry is an ordered set of collectors. Registration order is
// rendering order, which is what keeps the exposition format stable:
// callers lay out the document once, at wiring time.
type Registry struct {
	mu   sync.Mutex
	cols []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector to the rendering order.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.cols = append(r.cols, c)
	r.mu.Unlock()
}

// WriteText renders every collector's lines in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	var lines []string
	for _, c := range r.cols {
		lines = c.AppendText(lines)
	}
	r.mu.Unlock()
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// GaugeFunc exposes an externally owned value — e.g. one leg of a
// process-wide totals struct — as a single exposition line, read at
// render time.
type GaugeFunc struct {
	name string
	fn   func() uint64
}

// NewGaugeFunc returns a gauge rendered as "<name> <fn()>".
func NewGaugeFunc(name string, fn func() uint64) *GaugeFunc {
	return &GaugeFunc{name: name, fn: fn}
}

// AppendText implements Collector.
func (g *GaugeFunc) AppendText(dst []string) []string {
	return append(dst, fmt.Sprintf("%s %d", g.name, g.fn()))
}

// CounterSet is a dynamic family of named counters sharing a prefix,
// rendered in sorted-name order — the shape of mrserve's service
// counters, where names appear as jobs complete.
type CounterSet struct {
	prefix string
	mu     sync.Mutex
	v      map[string]uint64
}

// NewCounterSet returns an empty set; each counter renders as
// "<prefix><name> <value>".
func NewCounterSet(prefix string) *CounterSet {
	return &CounterSet{prefix: prefix, v: make(map[string]uint64)}
}

// Add increments the named counter by delta, creating it at zero first.
// A zero delta therefore materializes the counter as an explicit 0 line.
func (s *CounterSet) Add(name string, delta uint64) {
	s.mu.Lock()
	s.v[name] += delta
	s.mu.Unlock()
}

// Set overwrites the named counter, creating it if needed. It lets a
// CounterSet carry gauge-like values (a 0/1 degradation flag, a record
// count) inside the same sorted exposition block as its counters.
func (s *CounterSet) Set(name string, value uint64) {
	s.mu.Lock()
	s.v[name] = value
	s.mu.Unlock()
}

// Value returns the named counter (0 if never added).
func (s *CounterSet) Value(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v[name]
}

// AppendText implements Collector: one line per counter, names sorted.
func (s *CounterSet) AppendText(dst []string) []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.v))
	for name := range s.v {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst = append(dst, fmt.Sprintf("%s%s %d", s.prefix, name, s.v[name]))
	}
	s.mu.Unlock()
	return dst
}
