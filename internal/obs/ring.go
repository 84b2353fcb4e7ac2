package obs

import "sync"

// RingSink is a TraceSink retaining the most recent spans in a fixed-size
// ring — the in-memory trace behind mrserve's /v1/jobs/{id}/trace. Older
// spans are overwritten; Dropped counts them. A traced round costs one
// slot copy and no allocation. Safe for concurrent use.
type RingSink struct {
	mu      sync.Mutex
	slots   []RoundSpan
	next    int // slot the next span lands in
	filled  int // live slots, <= len(slots)
	dropped uint64
}

// NewRingSink returns a ring retaining the last capacity spans
// (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{slots: make([]RoundSpan, capacity)}
}

// RoundDone implements TraceSink.
func (r *RingSink) RoundDone(s RoundSpan) {
	r.mu.Lock()
	r.slots[r.next] = s
	r.next = (r.next + 1) % len(r.slots)
	if r.filled < len(r.slots) {
		r.filled++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Close implements TraceSink; the ring stays readable.
func (r *RingSink) Close() error { return nil }

// Len returns the number of retained spans.
func (r *RingSink) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// Dropped returns how many spans were overwritten by newer ones.
func (r *RingSink) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns the retained spans oldest-first, as copies safe to hold
// while the ring keeps rolling.
func (r *RingSink) Snapshot() []RoundSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RoundSpan, 0, r.filled)
	start := r.next - r.filled
	if start < 0 {
		start += len(r.slots)
	}
	for i := 0; i < r.filled; i++ {
		out = append(out, r.slots[(start+i)%len(r.slots)])
	}
	return out
}
