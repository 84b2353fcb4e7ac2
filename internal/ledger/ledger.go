package ledger

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Options configures a Ledger.
type Options struct {
	// Store is the persistence backend. Required.
	Store Store
	// Retries is how many times a failing Store.Append is retried (with
	// the jittered exponential backoff below) before the ledger declares
	// itself degraded; 0 means 4, negative means none.
	Retries int
	// RetryBase/RetryMax bound the deterministic seeded backoff schedule
	// (backoffDelay). Zero means 10ms / 500ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the backoff jitter.
	RetrySeed uint64
	// OnDegrade is called once, from the batcher goroutine, when the store
	// gives up and the ledger falls back to memory-only operation. May be
	// nil.
	OnDegrade func(err error)
	// Now is the append timestamp source; nil means time.Now. Injectable
	// for tests that need reproducible chains.
	Now func() time.Time
}

func (o Options) retries() int {
	if o.Retries == 0 {
		return 4
	}
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

func (o Options) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return 10 * time.Millisecond
}

func (o Options) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 500 * time.Millisecond
}

func (o Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// Head is a snapshot of the ledger's state.
type Head struct {
	// Seq is the newest record's sequence number (0 = empty chain) and
	// Link its chain link — the Merkle head. Records equals Seq: the chain
	// is append-only and gapless.
	Seq  uint64 `json:"seq"`
	Link string `json:"link"`
	// Persisted is the newest sequence number the store has confirmed
	// durable. It trails Seq by at most one in-flight batch, and stops
	// advancing in degraded mode.
	Persisted uint64 `json:"persisted"`
	// Keys is the number of distinct job keys indexed for replay serving.
	Keys int `json:"keys"`
	// Degraded is true after a store failure exhausted its retries: the
	// chain keeps growing in memory, disk writes have stopped.
	Degraded bool `json:"degraded"`
	// Appends / Retries / IOErrors count batcher activity: records
	// appended this process, backoff retries taken, and store errors seen.
	Appends  uint64 `json:"appends"`
	Retries  uint64 `json:"retries"`
	IOErrors uint64 `json:"io_errors"`
}

// Ledger is the Merkle-chained job ledger: an in-memory chain head and
// replay index over a durable Store, fed by a single batcher goroutine so
// Append never blocks on IO.
type Ledger struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // signals the batcher and Sync waiters
	lastSeq  uint64
	lastLink Hash
	links    []Hash             // links[i] = link of seq i+1, for Verify cross-checks
	index    map[string]*Record // key -> newest record, for replay serving
	pending  []*Record          // appended, not yet handed to the store
	flushing bool               // a batch is inside Store.Append right now
	closed   bool
	degraded bool

	persisted uint64
	appends   uint64
	retries   uint64
	ioErrors  uint64

	done chan struct{} // batcher exited
}

// Open replays the store, verifies the full chain (sequence continuity
// and every link), builds the replay index, and starts the write batcher.
// A chain violation aborts the open with a *ChainError (or *CorruptError
// from the store's framing checks) — a ledger that fails its own history
// must not silently keep appending to it.
func Open(opts Options) (*Ledger, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("ledger: Options.Store is required")
	}
	l := &Ledger{opts: opts, index: make(map[string]*Record), done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	err := opts.Store.Replay(func(r *Record) error {
		link, err := verifyChain(l.lastSeq, l.lastLink, r)
		if err != nil {
			return err
		}
		c := cloneRecord(r)
		l.lastSeq, l.lastLink = c.Seq, link
		l.links = append(l.links, link)
		l.index[c.Key] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.persisted = l.lastSeq
	go l.batcher()
	return l, nil
}

// Append chains a new record and queues it for durable storage, returning
// the chained record. It never blocks on IO: the batcher goroutine owns
// every store write, coalescing whatever accumulated since its last flush
// into one Append+fsync. Safe for concurrent use.
func (l *Ledger) Append(key string, payload []byte, resultHash, metricsHash Hash) *Record {
	r := &Record{
		Time:        l.opts.now().UnixNano(),
		Key:         key,
		ResultHash:  resultHash,
		MetricsHash: metricsHash,
		Payload:     append([]byte(nil), payload...),
	}
	l.mu.Lock()
	r.Seq = l.lastSeq + 1
	r.Link = chainLink(l.lastLink, r)
	l.lastSeq, l.lastLink = r.Seq, r.Link
	l.links = append(l.links, r.Link)
	l.index[key] = r
	l.appends++
	if !l.degraded && !l.closed {
		l.pending = append(l.pending, r)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return r
}

// Get returns the newest record for a job key, if any. The caller must
// not mutate the record.
func (l *Ledger) Get(key string) (*Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.index[key]
	return r, ok
}

// Each calls fn for the newest record of every indexed key, in unspecified
// order, holding no lock during the calls (it snapshots first).
func (l *Ledger) Each(fn func(*Record)) {
	l.mu.Lock()
	snap := make([]*Record, 0, len(l.index))
	for _, r := range l.index {
		snap = append(snap, r)
	}
	l.mu.Unlock()
	for _, r := range snap {
		fn(r)
	}
}

// Head snapshots the ledger state.
func (l *Ledger) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Head{
		Seq: l.lastSeq, Link: l.lastLink.String(),
		Persisted: l.persisted, Keys: len(l.index),
		Degraded: l.degraded,
		Appends:  l.appends, Retries: l.retries, IOErrors: l.ioErrors,
	}
}

// Degraded reports whether the ledger has fallen back to memory-only
// operation after a store failure.
func (l *Ledger) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// VerifyReport is the outcome of a full chain verification.
type VerifyReport struct {
	// OK is true when every stored record's frame, checksum, sequence and
	// chain link verified, and the stored head agrees with the in-memory
	// chain at that sequence.
	OK bool `json:"ok"`
	// Records is how many stored records verified before the first
	// problem (all of them when OK).
	Records uint64 `json:"records"`
	// HeadSeq/HeadLink are the newest verified stored record.
	HeadSeq  uint64 `json:"head_seq"`
	HeadLink string `json:"head_link"`
	// Error describes the first failure; for store corruption it names
	// the damaged file and byte offset.
	Error string `json:"error,omitempty"`
}

// Verify re-reads the entire store from its backing storage, recomputes
// every checksum and chain link, and cross-checks the stored records
// against the in-memory chain — so it detects tampering that happened
// underneath a running process, not just at startup. Safe to call while
// appends are in flight: the store serializes replay against batch writes,
// and records flushed after the initial links snapshot are chain-verified
// and then cross-checked against the live chain re-read at the end, never
// misreported as failures.
func (l *Ledger) Verify() VerifyReport {
	l.mu.Lock()
	links := l.links // append-only; safe to read a snapshot reference
	n := uint64(len(links))
	l.mu.Unlock()

	var rep VerifyReport
	var seq uint64
	var link Hash
	err := l.opts.Store.Replay(func(r *Record) error {
		next, err := verifyChain(seq, link, r)
		if err != nil {
			return err
		}
		// Cross-check against the chain this process has in memory: a
		// store that verifies internally but diverges from the live chain
		// is still tampered (e.g. a truncated-and-regrown history).
		if r.Seq <= n && links[r.Seq-1] != next {
			return &ChainError{Seq: r.Seq, Want: links[r.Seq-1], Got: next}
		}
		seq, link = r.Seq, next
		rep.Records++
		return nil
	})
	rep.HeadSeq, rep.HeadLink = seq, link.String()
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	// The store may legitimately hold records appended (and flushed) after
	// the snapshot above was taken, so judge the stored head against the
	// chain as it is NOW: it is tampering only if the store holds history
	// the in-memory chain has never seen, or a head link that disagrees
	// with the live chain at that sequence.
	l.mu.Lock()
	cur := l.links
	l.mu.Unlock()
	if seq > uint64(len(cur)) {
		rep.Error = fmt.Sprintf("ledger: store holds seq %d beyond the in-memory chain head %d", seq, len(cur))
		return rep
	}
	if seq > 0 && cur[seq-1] != link {
		rep.Error = (&ChainError{Seq: seq, Want: cur[seq-1], Got: link}).Error()
		return rep
	}
	rep.OK = true
	return rep
}

// Sync blocks until every record appended so far is either durably stored
// or the ledger has degraded. Tests and graceful shutdown use it.
func (l *Ledger) Sync() {
	l.mu.Lock()
	for (len(l.pending) > 0 || l.flushing) && !l.degraded {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Close flushes pending records, stops the batcher, and closes the store.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	return l.opts.Store.Close()
}

// batcher is the single writer: it drains whatever accumulated since its
// last flush into one Store.Append (one fsync per batch, however many jobs
// completed meanwhile), retrying transient failures on the seeded backoff
// schedule and degrading to memory-only operation when the budget is
// spent.
func (l *Ledger) batcher() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.pending) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.pending
		l.pending = nil
		l.flushing = true
		l.mu.Unlock()

		err := l.writeBatch(batch)

		l.mu.Lock()
		if err == nil {
			l.persisted = batch[len(batch)-1].Seq
		} else if !l.degraded {
			l.degraded = true
			l.pending = nil
			if l.opts.OnDegrade != nil {
				// Called under the lock deliberately: degradation is
				// observed exactly once, before any later Append sees the
				// flag. The callback must not call back into the ledger.
				l.opts.OnDegrade(err)
			}
		}
		l.flushing = false
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// writeBatch pushes one batch into the store with retries. An error
// wrapping ErrTerminal is never retried: the store could not restore its
// pre-batch state, so re-sending the batch could duplicate or corrupt
// already-written records — degrading is the only safe answer.
func (l *Ledger) writeBatch(batch []*Record) error {
	retries := l.opts.retries()
	var err error
	for attempt := 0; ; attempt++ {
		err = l.opts.Store.Append(batch)
		if err == nil {
			return nil
		}
		l.mu.Lock()
		l.ioErrors++
		l.mu.Unlock()
		if attempt >= retries || errors.Is(err, ErrTerminal) {
			return err
		}
		l.mu.Lock()
		l.retries++
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return err
		}
		time.Sleep(backoffDelay(attempt+1, l.opts.retryBase(), l.opts.retryMax(), l.opts.RetrySeed))
	}
}
