package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedNow gives tests a reproducible append clock.
func fixedNow() func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// appendN appends n records with distinct keys and payloads and syncs.
func appendN(t *testing.T, l *Ledger, n, from int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		payload := []byte(fmt.Sprintf(`{"result":"r%d"}`, i))
		l.Append(fmt.Sprintf("key-%d", i), payload,
			HashBytes(payload), HashBytes([]byte(fmt.Sprintf("m%d", i))))
	}
	l.Sync()
}

func TestMemRoundTripAndVerify(t *testing.T) {
	l, err := Open(Options{Store: NewMemStore(), Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 10, 0)
	h := l.Head()
	if h.Seq != 10 || h.Persisted != 10 || h.Keys != 10 || h.Degraded {
		t.Fatalf("head = %+v", h)
	}
	rep := l.Verify()
	if !rep.OK || rep.Records != 10 || rep.HeadLink != h.Link {
		t.Fatalf("verify = %+v, head %+v", rep, h)
	}
	r, ok := l.Get("key-3")
	if !ok || !bytes.Equal(r.Payload, []byte(`{"result":"r3"}`)) {
		t.Fatalf("Get(key-3) = %+v %v", r, ok)
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	store, stats, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.TornTail {
		t.Fatalf("fresh dir stats = %+v", stats)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 25, 0)
	head1 := l.Head()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	store2, stats2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Records != 25 || stats2.TornTail {
		t.Fatalf("reopen stats = %+v", stats2)
	}
	l2, err := Open(Options{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	h := l2.Head()
	if h.Seq != 25 || h.Link != head1.Link || h.Persisted != 25 {
		t.Fatalf("reopened head %+v, want link %s", h, head1.Link)
	}
	for i := 0; i < 25; i++ {
		r, ok := l2.Get(fmt.Sprintf("key-%d", i))
		if !ok || !bytes.Equal(r.Payload, []byte(fmt.Sprintf(`{"result":"r%d"}`, i))) {
			t.Fatalf("record %d not served across reopen: %+v %v", i, r, ok)
		}
	}
	if rep := l2.Verify(); !rep.OK || rep.Records != 25 {
		t.Fatalf("verify after reopen = %+v", rep)
	}
}

func TestDiskSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	// Sync per append so each record is its own batch: the batcher
	// otherwise coalesces the whole burst into one write and one rotation.
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf(`{"result":"r%d"}`, i))
		l.Append(fmt.Sprintf("key-%d", i), p, HashBytes(p), Hash{})
		l.Sync()
	}
	l.Close()

	segs, err := sealedSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 sealed segments, got %v (err %v)", segs, err)
	}
	store2, stats, err := OpenDisk(dir, DiskOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 40 || stats.Segments != len(segs) {
		t.Fatalf("stats = %+v, segs %d", stats, len(segs))
	}
	l2, err := Open(Options{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep := l2.Verify(); !rep.OK || rep.Records != 40 {
		t.Fatalf("verify = %+v", rep)
	}
}

// TestTornTailTruncatedExactlyOnce simulates a kill -9 mid-write: a valid
// prefix plus a partial record in the active file. The first recovery
// truncates it (reported in stats); the second recovery finds a clean
// file.
func TestTornTailTruncatedExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 0)
	head := l.Head()
	l.Close()

	// A torn write: the frame claims more bytes than were flushed.
	active := filepath.Join(dir, activeName)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 48)
	torn[4] = 200 // bodyLen=200, but only 40 bytes of body follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, stats, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TornTail || stats.Records != 5 || stats.TruncatedBytes != 48 {
		t.Fatalf("first recovery stats = %+v", stats)
	}
	l2, err := Open(Options{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	if h := l2.Head(); h.Seq != 5 || h.Link != head.Link {
		t.Fatalf("recovered head %+v, want %+v", h, head)
	}
	if rep := l2.Verify(); !rep.OK {
		t.Fatalf("verify after truncation = %+v", rep)
	}
	l2.Close()

	// Exactly once: the second recovery must see a clean tail.
	store3, stats3, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats3.TornTail || stats3.Records != 5 {
		t.Fatalf("second recovery stats = %+v (torn tail should be gone)", stats3)
	}
	store3.Close()
}

// TestCorruptionPinpointed flips one byte mid-file and requires both
// recovery and live verification to name the damaged file instead of
// truncating or silently serving.
func TestCorruptionPinpointed(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 8, 0)

	// Corrupt one payload byte of an early record, underneath the running
	// ledger.
	active := filepath.Join(dir, activeName)
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := l.Verify()
	if rep.OK {
		t.Fatalf("verify accepted a corrupted record: %+v", rep)
	}
	if !strings.Contains(rep.Error, activeName) {
		t.Fatalf("verify error does not pinpoint the file: %q", rep.Error)
	}
	l.Close()

	// Recovery must refuse too (corruption is not a torn tail: valid
	// records follow the damage).
	_, _, err = OpenDisk(dir, DiskOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("OpenDisk on corrupt dir: err = %v, want *CorruptError", err)
	}
	if ce.Path != active {
		t.Fatalf("corrupt error names %q, want %q", ce.Path, active)
	}
}

// TestVerifyDetectsDivergentHistory rewrites the store with a different
// but internally consistent chain; the live ledger's verify must reject it
// via the in-memory cross-check.
func TestVerifyDetectsDivergentHistory(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, 0)

	// Forge a fresh, self-consistent 1-record chain in place.
	forged := &Record{Seq: 1, Time: 42, Key: "key-0", Payload: []byte("{}")}
	forged.ResultHash = HashBytes(forged.Payload)
	forged.Link = chainLink(Hash{}, forged)
	if err := os.WriteFile(filepath.Join(dir, activeName),
		appendRecord(nil, forged), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := l.Verify()
	if rep.OK {
		t.Fatalf("verify accepted a forged history: %+v", rep)
	}
	if !strings.Contains(rep.Error, "chain broken") {
		t.Fatalf("unexpected verify error: %q", rep.Error)
	}
}

// flakyStore fails its first n Append calls.
type flakyStore struct {
	*MemStore
	mu    sync.Mutex
	fails int
	calls int
}

func (s *flakyStore) Append(recs []*Record) error {
	s.mu.Lock()
	s.calls++
	fail := s.calls <= s.fails
	s.mu.Unlock()
	if fail {
		return errors.New("injected IO error")
	}
	return s.MemStore.Append(recs)
}

// TestBatcherRetriesThenSucceeds: transient store errors are retried on
// the backoff schedule and the batch still lands durably.
func TestBatcherRetriesThenSucceeds(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fails: 2}
	l, err := Open(Options{Store: fs, Retries: 4,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 0)
	h := l.Head()
	if h.Degraded || h.Persisted != 1 {
		t.Fatalf("head after transient errors = %+v", h)
	}
	if h.Retries < 2 || h.IOErrors < 2 {
		t.Fatalf("retry accounting = %+v, want >= 2 retries", h)
	}
	if fs.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", fs.Len())
	}
}

// TestBatcherDegradesAfterRetryBudget: a persistently failing store trips
// degraded mode exactly once; appends keep working in memory and are never
// lost to the caller.
func TestBatcherDegradesAfterRetryBudget(t *testing.T) {
	fs := &flakyStore{MemStore: NewMemStore(), fails: 1 << 30}
	degraded := make(chan error, 2)
	l, err := Open(Options{Store: fs, Retries: 1,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		OnDegrade: func(err error) { degraded <- err }, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append("k", []byte("{}"), Hash{}, Hash{})
	select {
	case err := <-degraded:
		if err == nil {
			t.Fatal("OnDegrade called with nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ledger never degraded")
	}
	l.Sync() // must not hang in degraded mode
	if !l.Degraded() {
		t.Fatal("Degraded() = false after OnDegrade fired")
	}
	// The chain still serves and grows in memory.
	l.Append("k2", []byte("{}"), Hash{}, Hash{})
	if _, ok := l.Get("k2"); !ok {
		t.Fatal("memory-only append not indexed")
	}
	h := l.Head()
	if h.Seq != 2 || h.Persisted != 0 {
		t.Fatalf("degraded head = %+v", h)
	}
	if len(degraded) != 0 {
		t.Fatal("OnDegrade fired more than once")
	}
}

// TestAppendUnwoundAfterFailedBatch simulates the aftermath of a Write or
// Sync failure that left a partial batch in the append-only active file:
// the unwind must truncate the file back to its pre-batch size so a
// retried Append lands on a clean tail — no duplicate sequence numbers, no
// garbage mid-file — and the whole history still recovers and verifies.
func TestAppendUnwoundAfterFailedBatch(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Record{Seq: 1, Time: 1, Key: "a", Payload: []byte("{}")}
	r1.Link = chainLink(Hash{}, r1)
	if err := store.Append([]*Record{r1}); err != nil {
		t.Fatal(err)
	}

	// A failing batch: some bytes reached the file before the error.
	store.mu.Lock()
	if _, err := store.f.Write([]byte("half a batch, then an IO error")); err != nil {
		store.mu.Unlock()
		t.Fatal(err)
	}
	cause := errors.New("injected write error")
	if got := store.unwindLocked(cause); got != cause {
		store.mu.Unlock()
		t.Fatalf("unwind returned %v, want the injected cause", got)
	}
	store.mu.Unlock()

	// The retry appends the next record onto the restored tail.
	r2 := &Record{Seq: 2, Time: 2, Key: "b", Payload: []byte("{}")}
	r2.Link = chainLink(r1.Link, r2)
	if err := store.Append([]*Record{r2}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, stats, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.TornTail {
		t.Fatalf("recovery after unwind = %+v, want 2 clean records", stats)
	}
	l, err := Open(Options{Store: store2})
	if err != nil {
		t.Fatalf("chain broken after unwound retry: %v", err)
	}
	l.Close()
}

// terminalStore always fails Append with an error marked not retryable.
type terminalStore struct {
	*MemStore
	calls int
}

func (s *terminalStore) Append(recs []*Record) error {
	s.calls++
	return fmt.Errorf("injected: %w", ErrTerminal)
}

// TestTerminalErrorSkipsRetries: an Append failure wrapping ErrTerminal
// must degrade the ledger immediately — retrying a store that could not
// restore its invariants risks duplicating already-written records.
func TestTerminalErrorSkipsRetries(t *testing.T) {
	ts := &terminalStore{MemStore: NewMemStore()}
	degraded := make(chan error, 1)
	l, err := Open(Options{Store: ts, Retries: 8, RetryBase: time.Millisecond,
		OnDegrade: func(err error) { degraded <- err }, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append("k", []byte("{}"), Hash{}, Hash{})
	select {
	case err := <-degraded:
		if !errors.Is(err, ErrTerminal) {
			t.Fatalf("degrade error = %v, want ErrTerminal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ledger never degraded on a terminal error")
	}
	if ts.calls != 1 {
		t.Fatalf("terminal error was retried: %d Append calls, want 1", ts.calls)
	}
}

// replayHookStore runs a hook before delegating Replay, letting a test
// interleave appends between Verify's links snapshot and its store replay.
type replayHookStore struct {
	Store
	before func()
}

func (s *replayHookStore) Replay(fn func(*Record) error) error {
	if s.before != nil {
		s.before()
	}
	return s.Store.Replay(fn)
}

// TestVerifyRacingAppends: records appended and flushed after Verify took
// its in-memory snapshot are legitimate history, not a failure — while a
// store holding records the live chain has never seen still is.
func TestVerifyRacingAppends(t *testing.T) {
	hs := &replayHookStore{Store: NewMemStore()}
	l, err := Open(Options{Store: hs, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 3, 0)
	hs.before = func() {
		hs.before = nil
		appendN(t, l, 2, 3) // lands in the store after Verify's snapshot
	}
	rep := l.Verify()
	if !rep.OK || rep.Records != 5 || rep.HeadSeq != 5 {
		t.Fatalf("verify racing appends = %+v, want OK with 5 records", rep)
	}
	if h := l.Head(); rep.HeadLink != h.Link {
		t.Fatalf("verify head link %s, live head %s", rep.HeadLink, h.Link)
	}

	// A record beyond the live chain head is still tampering.
	l.mu.Lock()
	prevSeq, prevLink := l.lastSeq, l.lastLink
	l.mu.Unlock()
	extra := &Record{Seq: prevSeq + 1, Time: 99, Key: "forged", Payload: []byte("{}")}
	extra.Link = chainLink(prevLink, extra)
	if err := hs.Store.Append([]*Record{extra}); err != nil {
		t.Fatal(err)
	}
	if rep := l.Verify(); rep.OK || !strings.Contains(rep.Error, "beyond the in-memory chain head") {
		t.Fatalf("verify accepted store history beyond the live chain: %+v", rep)
	}
}

// TestConcurrentAppends hammers Append from many goroutines; the chain
// must come out gapless and verifiable.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const G, per = 8, 25
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := []byte(fmt.Sprintf(`{"g":%d,"i":%d}`, g, i))
				l.Append(fmt.Sprintf("k-%d-%d", g, i), p, HashBytes(p), Hash{})
			}
		}(g)
	}
	wg.Wait()
	l.Sync()
	if rep := l.Verify(); !rep.OK || rep.Records != G*per {
		t.Fatalf("verify = %+v, want %d records", rep, G*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// And the whole thing replays cleanly in a fresh process image.
	store2, stats, err := OpenDisk(dir, DiskOptions{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != G*per {
		t.Fatalf("reopen found %d records, want %d", stats.Records, G*per)
	}
	l2, err := Open(Options{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
}

// TestReadDirToleratesTornTail: the offline read path skips a torn active
// tail without repairing it, and reports sealed-segment corruption
// strictly.
func TestReadDirToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Store: store, Now: fixedNow()})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 0)
	l.Close()

	active := filepath.Join(dir, activeName)
	f, _ := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3})
	f.Close()
	before, _ := os.Stat(active)

	var n int
	stats, err := ReadDir(dir, func(r *Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || stats.Records != 4 || !stats.TornTail {
		t.Fatalf("ReadDir n=%d stats=%+v", n, stats)
	}
	after, _ := os.Stat(active)
	if after.Size() != before.Size() {
		t.Fatal("ReadDir modified the ledger (must be read-only)")
	}
}

// TestBackoffSchedule: exponential doubling capped at max, deterministic
// jitter in [0.5, 1.0) of the nominal delay.
func TestBackoffSchedule(t *testing.T) {
	const base, max = 50 * time.Millisecond, 2 * time.Second
	cases := []struct {
		attempt int
		nominal time.Duration
	}{
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 400 * time.Millisecond},
		{5, 800 * time.Millisecond},
		{6, 1600 * time.Millisecond},
		{7, 2 * time.Second}, // capped
		{12, 2 * time.Second},
		{0, 50 * time.Millisecond}, // clamped to attempt 1
	}
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		for _, tc := range cases {
			d := backoffDelay(tc.attempt, base, max, seed)
			if d < tc.nominal/2 || d >= tc.nominal {
				t.Errorf("seed %d attempt %d: delay %v outside [%v, %v)",
					seed, tc.attempt, d, tc.nominal/2, tc.nominal)
			}
			if again := backoffDelay(tc.attempt, base, max, seed); again != d {
				t.Errorf("seed %d attempt %d: nondeterministic (%v then %v)", seed, tc.attempt, d, again)
			}
		}
	}
	// Different seeds must decorrelate at least one attempt (thundering-herd
	// protection is the point of the jitter).
	same := true
	for a := 1; a <= 6; a++ {
		if backoffDelay(a, base, max, 1) != backoffDelay(a, base, max, 2) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical schedules across 6 attempts")
	}
}
