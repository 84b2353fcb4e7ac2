package mpc

// This file defines the transport seam under the columnar message plane:
// the interface a sharded cluster uses to move cross-shard columns, plus
// the in-memory reference implementation that makes K-shard in-process
// execution an (almost) zero-cost permutation of the single-process path.
//
// A Transport value is one *endpoint*: it speaks for exactly one shard and
// exchanges column batches with the endpoints of every other shard. One
// synchronous round maps onto the endpoint as
//
//	Send(dst, batch)*       — queue this shard's outbound columns per
//	                          destination shard (any order, non-blocking),
//	Barrier(seq, armed)     — flush an end-of-round marker to every peer,
//	                          carrying the shard's self-armed machines as a
//	                          tiny control column (non-blocking),
//	Receive(seq)            — block until every peer's end-of-round marker
//	                          for seq has arrived; return their batches and
//	                          armed sets.
//
// Barrier and Receive are split so a single goroutine can drive several
// in-process endpoints: it first flushes every endpoint's barrier, then
// collects every endpoint's exchange — a combined blocking barrier would
// deadlock waiting for markers the later endpoints had not yet sent.
//
// Ownership. Batches carry *column buffers from the plane's pool. A
// transport with Retains() == true (the in-memory group) takes ownership of
// the columns passed to Send and hands ownership of received columns to the
// caller; a transport with Retains() == false (TCP) encodes the columns
// during Send and leaves them owned by the caller, while received columns
// are freshly decoded from the pool and owned by the caller. Either way the
// columns inside a Receive'd exchange end up in destination inboxes and are
// recycled by the normal inbox clear path.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Transport is one shard's endpoint of a K-shard exchange fabric. Methods
// are driven by the round engine only (never concurrently for one
// endpoint). Implementations must make Send and Barrier non-blocking with
// respect to the peers' progress, and must make Receive fail with an error
// rather than block forever when the fabric breaks (peer gone, protocol
// desync, closed endpoint).
type Transport interface {
	// Shard returns the shard this endpoint speaks for, in [0, Shards()).
	Shard() int
	// Shards returns K, the number of shards in the fabric.
	Shards() int
	// Send queues one batch of columns addressed to shard dst. The batch's
	// columns are owned by the transport afterwards iff Retains() is true.
	Send(dst int, b *Batch) error
	// Barrier marks the end of round seq towards every peer, propagating
	// the shard's self-armed machine ids as the round's control column. It
	// must not wait for the peers.
	Barrier(seq uint32, armed []int32) error
	// Receive blocks until every peer has ended round seq and returns their
	// batches (ownership passes to the caller) and armed sets, indexed by
	// source shard.
	Receive(seq uint32) (*Exchange, error)
	// Retains reports whether Send takes ownership of the batch's columns
	// (true for zero-copy in-memory delivery, false for encoding
	// transports).
	Retains() bool
	// Close releases the endpoint. Idempotent. Pending and subsequent
	// Receives fail.
	Close() error
}

// TransportFactory builds the endpoints a cluster uses for a K-shard run.
// It returns the endpoints this process drives: all K for single-process
// sharding (the in-memory group, TCP loopback), exactly one for a worker
// process in a multi-process fleet, and none for a pure replica that owns
// no shard (e.g. a worker whose shard id exceeds the effective shard count
// of a small cluster). The cluster owns the returned endpoints and closes
// them in Close.
type TransportFactory func(shards int) ([]Transport, error)

// Batch is the set of columns one source shard ships to one destination
// shard for one round, in ascending (sender, destination) machine order.
type Batch struct {
	Src, Dst int
	cols     []batchCol
}

// batchCol is one (sender machine, destination machine) column inside a
// batch. shared marks columns that are also delivered locally by the
// sending process (replicated execution), so non-retaining transports know
// the engine keeps ownership.
type batchCol struct {
	from, to int32
	col      *column
	shared   bool
}

// add appends one column to the batch.
func (b *Batch) add(from, to int, col *column, shared bool) {
	b.cols = append(b.cols, batchCol{from: int32(from), to: int32(to), col: col, shared: shared})
}

// Len returns the number of columns in the batch.
func (b *Batch) Len() int { return len(b.cols) }

// Exchange is everything one endpoint receives for one round: the peers'
// batches and their armed control columns indexed by source shard.
type Exchange struct {
	Batches []*Batch
	Armed   [][]int32
}

// cloneColumn returns a pooled deep copy of col, used when a column must
// both stay in a local inbox and be handed to a retaining transport.
func cloneColumn(col *column) *column {
	cp := getColumn()
	cp.ints = append(cp.ints, col.ints...)
	cp.floats = append(cp.floats, col.floats...)
	cp.n, cp.shape = col.n, col.shape
	cp.recs = append(cp.recs, col.recs...)
	cp.words = col.words
	return cp
}

// Process-wide transport activity totals, for operational metrics (the
// service layer's /metrics reports them). Batches counts Send calls over
// every transport; bytes counts frame bytes written by encoding transports
// (zero for the in-memory group).
var (
	transportBatchesTotal atomic.Uint64
	transportBytesTotal   atomic.Uint64
)

// TransportTotals reports process-wide transport activity: column batches
// sent and wire bytes written, summed over every transport endpoint created
// in this process.
func TransportTotals() (batches, bytes uint64) {
	return transportBatchesTotal.Load(), transportBytesTotal.Load()
}

// errTransportClosed is the base error for operations on closed endpoints.
var errTransportClosed = errors.New("mpc: transport endpoint closed")

// ErrTransport marks every transport-layer failure surfaced from Round (or
// from a transport factory via the first Round): connection loss, barrier
// timeout, protocol desync, corrupt frames. Callers use errors.Is(err,
// ErrTransport) to distinguish fabric failures — which a deterministic
// re-run on different infrastructure (e.g. mrserve's unsharded fallback)
// can heal — from algorithmic or input errors, which it cannot.
var ErrTransport = errors.New("mpc: transport failure")

// ---------------------------------------------------------------------------
// In-memory transport

// memItem is one queued delivery inside the in-memory hub.
type memItem struct {
	src   int
	seq   uint32
	batch *Batch  // nil for end-of-round markers
	eor   bool    // end-of-round marker
	armed []int32 // armed control column, markers only
}

// memHub connects the K endpoints of one in-memory group. All state is
// guarded by mu; Receive waits on cond.
type memHub struct {
	shards int
	mu     sync.Mutex
	cond   *sync.Cond
	pend   [][]memItem // per destination shard
	closed []bool      // per endpoint
}

// memEndpoint is one shard's endpoint of an in-memory group. Delivery is
// zero-copy: Send moves column pointers through the hub's queues, so a
// K-shard in-process exchange costs a few slice appends per batch.
type memEndpoint struct {
	hub          *memHub
	shard        int
	lastBarrier  uint32
	lastReceived uint32
}

// NewMemGroup returns the K connected endpoints of an in-memory transport
// group, endpoint i speaking for shard i. It is the default transport for
// sharded clusters, and the reference implementation for the Transport
// contract: Send hands column pointers through per-shard queues
// (Retains() == true), Barrier enqueues an end-of-round marker, and Receive
// waits until the markers of all K-1 peers for the round have arrived.
//
// The endpoints may be driven by one goroutine (a single process simulating
// a fleet) or by K goroutines in lockstep (replicated execution tests);
// peers may run at most one round ahead, which the queues absorb.
func NewMemGroup(shards int) ([]Transport, error) {
	if shards < 1 {
		return nil, fmt.Errorf("mpc: mem transport group needs at least 1 shard, got %d", shards)
	}
	hub := &memHub{
		shards: shards,
		pend:   make([][]memItem, shards),
		closed: make([]bool, shards),
	}
	hub.cond = sync.NewCond(&hub.mu)
	eps := make([]Transport, shards)
	for i := range eps {
		eps[i] = &memEndpoint{hub: hub, shard: i}
	}
	return eps, nil
}

// MemTransport is the TransportFactory for in-process sharding over
// NewMemGroup. It is the default when Config.Transport is nil.
func MemTransport(shards int) ([]Transport, error) { return NewMemGroup(shards) }

func (e *memEndpoint) Shard() int    { return e.shard }
func (e *memEndpoint) Shards() int   { return e.hub.shards }
func (e *memEndpoint) Retains() bool { return true }

// deliver enqueues one item for shard dst.
func (e *memEndpoint) deliver(dst int, it memItem) error {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed[e.shard] {
		return fmt.Errorf("%w (shard %d)", errTransportClosed, e.shard)
	}
	if h.closed[dst] {
		return fmt.Errorf("mpc: mem transport send from shard %d: peer shard %d is closed", e.shard, dst)
	}
	h.pend[dst] = append(h.pend[dst], it)
	h.cond.Broadcast()
	return nil
}

// Send implements Transport.
func (e *memEndpoint) Send(dst int, b *Batch) error {
	if dst < 0 || dst >= e.hub.shards || dst == e.shard {
		return fmt.Errorf("mpc: mem transport send from shard %d to invalid shard %d (K=%d)", e.shard, dst, e.hub.shards)
	}
	transportBatchesTotal.Add(1)
	// The batch is queued for the round the *next* Barrier will seal; tag it
	// with that sequence number so Receive can separate rounds.
	return e.deliver(dst, memItem{src: e.shard, seq: e.lastBarrier + 1, batch: b})
}

// Barrier implements Transport.
func (e *memEndpoint) Barrier(seq uint32, armed []int32) error {
	if seq != e.lastBarrier+1 {
		return fmt.Errorf("mpc: mem transport shard %d: barrier for round %d out of order (expected %d)", e.shard, seq, e.lastBarrier+1)
	}
	e.lastBarrier = seq
	// Copy the armed set: the caller's scratch slice is reused next round.
	var a []int32
	if len(armed) > 0 {
		a = append(a, armed...)
	}
	for t := 0; t < e.hub.shards; t++ {
		if t == e.shard {
			continue
		}
		if err := e.deliver(t, memItem{src: e.shard, seq: seq, eor: true, armed: a}); err != nil {
			return err
		}
	}
	return nil
}

// Receive implements Transport.
func (e *memEndpoint) Receive(seq uint32) (*Exchange, error) {
	if seq != e.lastReceived+1 {
		return nil, fmt.Errorf("mpc: mem transport shard %d: receive for round %d out of order (expected %d)", e.shard, seq, e.lastReceived+1)
	}
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed[e.shard] {
			return nil, fmt.Errorf("%w (shard %d)", errTransportClosed, e.shard)
		}
		eors := 0
		for _, it := range h.pend[e.shard] {
			if it.seq < seq {
				return nil, fmt.Errorf("mpc: mem transport shard %d: stale round-%d traffic while receiving round %d", e.shard, it.seq, seq)
			}
			if it.eor && it.seq == seq {
				eors++
			}
		}
		if eors == h.shards-1 {
			break
		}
		if eors > h.shards-1 {
			return nil, fmt.Errorf("mpc: mem transport shard %d: %d end-of-round markers for round %d from %d peers", e.shard, eors, seq, h.shards-1)
		}
		// Closed peers can never complete the barrier: fail instead of
		// waiting forever.
		for t, closed := range h.closed {
			if closed && t != e.shard {
				return nil, fmt.Errorf("mpc: mem transport shard %d: peer shard %d closed during round %d", e.shard, t, seq)
			}
		}
		h.cond.Wait()
	}
	ex := &Exchange{Armed: make([][]int32, h.shards)}
	rest := h.pend[e.shard][:0]
	for _, it := range h.pend[e.shard] {
		switch {
		case it.seq != seq:
			rest = append(rest, it) // next round, peer running ahead
		case it.eor:
			ex.Armed[it.src] = it.armed
		default:
			ex.Batches = append(ex.Batches, it.batch)
		}
	}
	h.pend[e.shard] = rest
	e.lastReceived = seq
	sortBatches(ex.Batches)
	return ex, nil
}

// Close implements Transport.
func (e *memEndpoint) Close() error {
	h := e.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed[e.shard] {
		return nil
	}
	h.closed[e.shard] = true
	// Orphaned queued columns go back to the pool.
	for _, it := range h.pend[e.shard] {
		if it.batch != nil {
			it.batch.recycle()
		}
	}
	h.pend[e.shard] = nil
	h.cond.Broadcast()
	return nil
}

// recycle returns every column owned by the batch to the pool.
func (b *Batch) recycle() {
	for _, bc := range b.cols {
		putColumn(bc.col)
	}
	b.cols = nil
}

// sortBatches orders received batches by source shard (each peer sends at
// most one batch per destination per round, so this is a total order).
func sortBatches(bs []*Batch) {
	sort.Slice(bs, func(i, j int) bool { return bs[i].Src < bs[j].Src })
}
