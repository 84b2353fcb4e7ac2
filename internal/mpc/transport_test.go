package mpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// --- codec ------------------------------------------------------------------

// testColumn builds a pooled column holding the given payload cut into
// records of the given shapes, framed the way the outbox frames them.
func testColumn(ints []int64, floats []float64, shapes ...recMeta) *column {
	col := getColumn()
	col.ints = append(col.ints, ints...)
	col.floats = append(col.floats, floats...)
	for _, m := range shapes {
		col.frame(m)
	}
	col.words = len(shapes) + len(ints) + len(floats)
	return col
}

// testBatch builds a batch with one column in each framing state: mixed
// shapes (a per-record index), a single header-only record, and a run of
// one-word records (uniform, no index).
func testBatch() *Batch {
	b := &Batch{Src: 0, Dst: 1}
	b.add(3, 17, testColumn([]int64{1, -2, 1 << 40}, []float64{0.5}, recMeta{2, 0}, recMeta{1, 1}), false)
	b.add(5, 18, testColumn(nil, nil, recMeta{0, 0}), false)
	b.add(6, 17, testColumn([]int64{7, 8, 9}, nil, recMeta{1, 0}, recMeta{1, 0}, recMeta{1, 0}), false)
	return b
}

// testBatchWire is appendBatchPayload(testBatch()) byte for byte: per
// column from, to, nRecs, nInts, nFloats, then one (intLen, floatLen) pair
// per record — written for a uniform column too — then the payload words,
// all little-endian. The wire log and every peer of a sharded run parse
// this, so it must not drift.
var testBatchWire = []byte{
	3, 0, 0, 0, // columns
	// column 0: 3 → 17, two records of different shapes
	3, 0, 0, 0, 17, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0,
	2, 0, 0, 0, 0, 0, 0, 0, // record (2, 0)
	1, 0, 0, 0, 1, 0, 0, 0, // record (1, 1)
	1, 0, 0, 0, 0, 0, 0, 0,
	0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0, 0, 0, 0, 0, 1, 0, 0,
	0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
	// column 1: 5 → 18, one header-only record
	5, 0, 0, 0, 18, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0,
	// column 2: 6 → 17, three one-word records
	6, 0, 0, 0, 17, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
	1, 0, 0, 0, 0, 0, 0, 0,
	1, 0, 0, 0, 0, 0, 0, 0,
	1, 0, 0, 0, 0, 0, 0, 0,
	7, 0, 0, 0, 0, 0, 0, 0,
	8, 0, 0, 0, 0, 0, 0, 0,
	9, 0, 0, 0, 0, 0, 0, 0,
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	b := testBatch()
	if framed, uniform := b.cols[0].col, b.cols[2].col; len(framed.recs) != 2 || len(uniform.recs) != 0 || uniform.n != 3 {
		t.Fatalf("fixture framing: mixed column has %d index entries, uniform column %d for %d records",
			len(framed.recs), len(uniform.recs), uniform.n)
	}
	payload := appendBatchPayload(nil, b)
	if !bytes.Equal(payload, testBatchWire) {
		t.Fatalf("encoded batch drifted from the pinned wire bytes\n got %v\nwant %v", payload, testBatchWire)
	}
	got, err := decodeBatchPayload(0, 1, payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.cols) != len(b.cols) {
		t.Fatalf("decoded %d columns, want %d", len(got.cols), len(b.cols))
	}
	for i := range b.cols {
		w, g := b.cols[i], got.cols[i]
		if w.from != g.from || w.to != g.to || w.col.words != g.col.words {
			t.Fatalf("column %d header mismatch: got (%d,%d,%d) want (%d,%d,%d)",
				i, g.from, g.to, g.col.words, w.from, w.to, w.col.words)
		}
		if !reflectEqualColumn(w.col, g.col) {
			t.Fatalf("column %d payload mismatch", i)
		}
		// The decoder frames through the same helper as the outbox, so a
		// uniform column stays index-free on the receiving side.
		if len(w.col.recs) != len(g.col.recs) {
			t.Fatalf("column %d: decoded with %d index entries, sent with %d", i, len(g.col.recs), len(w.col.recs))
		}
		if cp := cloneColumn(w.col); !reflectEqualColumn(w.col, cp) || cp.words != w.col.words {
			t.Fatalf("column %d: clone differs", i)
		} else {
			putColumn(cp)
		}
	}
	got.recycle()
	b.recycle()
}

func reflectEqualColumn(a, b *column) bool {
	if len(a.ints) != len(b.ints) || len(a.floats) != len(b.floats) || a.n != b.n {
		return false
	}
	for i := range a.ints {
		if a.ints[i] != b.ints[i] {
			return false
		}
	}
	for i := range a.floats {
		if a.floats[i] != b.floats[i] {
			return false
		}
	}
	for i := 0; i < a.n; i++ {
		if a.meta(i) != b.meta(i) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	payload := appendEORPayload(nil, []int32{7, 9, 200})
	frame := appendFrame(nil, 42, frameEOR, 1, 0, payload)
	hdr, got, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if hdr.seq != 42 || hdr.kind != frameEOR || hdr.src != 1 || hdr.dst != 0 {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	armed, err := decodeEORPayload(got)
	if err != nil {
		t.Fatalf("decodeEOR: %v", err)
	}
	if len(armed) != 3 || armed[0] != 7 || armed[1] != 9 || armed[2] != 200 {
		t.Fatalf("armed mismatch: %v", armed)
	}
	// A second read at the clean boundary is io.EOF, not a frame error.
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestFrameFaults: every corruption or truncation of a valid frame is
// detected and wraps errBadFrame.
func TestFrameFaults(t *testing.T) {
	payload := appendEORPayload(nil, []int32{1, 2, 3})
	frame := appendFrame(nil, 7, frameEOR, 0, 1, payload)
	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated header", func(f []byte) []byte { return f[:frameHdrSize-5] }},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)-3] }},
		{"corrupt header", func(f []byte) []byte { f[2] ^= 0x40; return f }},
		{"corrupt payload crc", func(f []byte) []byte { f[13] ^= 0x01; return f }},
		{"corrupt payload byte", func(f []byte) []byte { f[frameHdrSize+2] ^= 0x80; return f }},
	}
	for _, tc := range cases {
		f := tc.mangle(append([]byte(nil), frame...))
		if _, _, err := readFrame(bytes.NewReader(f)); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: got %v, want errBadFrame", tc.name, err)
		}
	}
}

// --- fault injection at the Transport seam ----------------------------------

// faultTransport wraps a working endpoint and injects one failure at a
// chosen round and operation, standing in for every way a real link can
// die: an I/O error on send, a corrupt frame on receive, a protocol
// desync (double barrier).
type faultTransport struct {
	inner Transport
	op    string // "send" | "barrier" | "receive" | "double-barrier"
	at    uint32 // 1-based round to fail in
	err   error
	seq   uint32 // barriers completed
}

func (f *faultTransport) Shard() int    { return f.inner.Shard() }
func (f *faultTransport) Shards() int   { return f.inner.Shards() }
func (f *faultTransport) Retains() bool { return f.inner.Retains() }
func (f *faultTransport) Close() error  { return f.inner.Close() }

func (f *faultTransport) Send(dst int, b *Batch) error {
	if f.op == "send" && f.seq+1 == f.at {
		return f.err
	}
	return f.inner.Send(dst, b)
}

func (f *faultTransport) Barrier(seq uint32, armed []int32) error {
	if f.op == "barrier" && seq == f.at {
		return f.err
	}
	if err := f.inner.Barrier(seq, armed); err != nil {
		return err
	}
	f.seq = seq
	if f.op == "double-barrier" && seq == f.at {
		// The protocol violation itself: the inner endpoint must refuse the
		// replay rather than wedge the fabric.
		return f.inner.Barrier(seq, armed)
	}
	return nil
}

func (f *faultTransport) Receive(seq uint32) (*Exchange, error) {
	if f.op == "receive" && seq == f.at {
		return nil, f.err
	}
	return f.inner.Receive(seq)
}

var errInjected = errors.New("injected transport fault")

// TestRoundSurfacesTransportFaults: every transport failure mode surfaces
// as a wrapped error from Round — never a deadlock, never a panic — and
// poisons the cluster for subsequent rounds.
func TestRoundSurfacesTransportFaults(t *testing.T) {
	mkErr := func(base error) error { return fmt.Errorf("link: %w", base) }
	cases := []struct {
		name   string
		op     string
		err    error
		target error // errors.Is target expected from Round
	}{
		{"send io error", "send", mkErr(errInjected), errInjected},
		{"barrier io error", "barrier", mkErr(errInjected), errInjected},
		{"receive disconnect", "receive", mkErr(io.ErrUnexpectedEOF), io.ErrUnexpectedEOF},
		{"receive truncated frame", "receive", fmt.Errorf("%w: truncated payload", errBadFrame), errBadFrame},
		{"receive bad crc", "receive", fmt.Errorf("%w: payload checksum mismatch", errBadFrame), errBadFrame},
		{"double barrier", "double-barrier", nil, nil}, // inner error expected
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const failRound = 2
			factory := func(k int) ([]Transport, error) {
				eps, err := NewMemGroup(k)
				if err != nil {
					return nil, err
				}
				eps[1] = &faultTransport{inner: eps[1], op: tc.op, at: failRound, err: tc.err}
				return eps, nil
			}
			c := NewCluster(Config{Machines: 8, Shards: 2, Transport: factory})
			defer c.Close()
			scatter := func(m int, in *Inbox, out *Outbox) {
				out.SendInts((m+5)%8, int64(m))
			}
			if err := c.Round(scatter); err != nil {
				t.Fatalf("round 1: %v", err)
			}
			err := c.Round(scatter)
			if err == nil {
				t.Fatal("round 2: fault did not surface")
			}
			if tc.target != nil && !errors.Is(err, tc.target) {
				t.Fatalf("round 2: error %v does not wrap %v", err, tc.target)
			}
			// The cluster is poisoned: later rounds fail fast with the same cause.
			err3 := c.Round(scatter)
			if err3 == nil {
				t.Fatal("round 3: poisoned cluster accepted a round")
			}
			if tc.target != nil && !errors.Is(err3, tc.target) {
				t.Fatalf("round 3: poisoned error %v does not wrap %v", err3, tc.target)
			}
			if err := c.Quiet(); err == nil {
				t.Fatal("Quiet on poisoned cluster succeeded")
			}
		})
	}
}

// TestTransportFactoryErrorSurfaces: a failing factory turns into an error
// from the first Round, not a NewCluster panic.
func TestTransportFactoryErrorSurfaces(t *testing.T) {
	boom := errors.New("no fabric")
	c := NewCluster(Config{Machines: 4, Shards: 2, Transport: func(int) ([]Transport, error) { return nil, boom }})
	defer c.Close()
	if err := c.Round(func(int, *Inbox, *Outbox) {}); !errors.Is(err, boom) {
		t.Fatalf("Round returned %v, want factory error", err)
	}
}

// --- real TCP failure paths -------------------------------------------------

// tcpPair builds a connected 2-node mesh with a short barrier timeout.
func tcpPair(t *testing.T, timeout time.Duration) (*TCPNode, *TCPNode) {
	t.Helper()
	opts := TCPOptions{BarrierTimeout: timeout}
	n0, err := ListenTCP(0, 2, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := ListenTCP(1, 2, "127.0.0.1:0", opts)
	if err != nil {
		n0.Close()
		t.Fatal(err)
	}
	addrs := []string{n0.Addr(), n1.Addr()}
	if err := n0.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := n1.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	return n0, n1
}

// TestTCPPeerDisconnectMidRound: a peer dying between our barrier and its
// own surfaces as an error from Receive within the timeout.
func TestTCPPeerDisconnectMidRound(t *testing.T) {
	n0, n1 := tcpPair(t, 5*time.Second)
	defer n0.Close()
	ep0, err := n0.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep0.Barrier(1, nil); err != nil {
		t.Fatal(err)
	}
	n1.Close() // peer dies without ever ending round 1
	if _, err := ep0.Receive(1); err == nil {
		t.Fatal("Receive succeeded with a dead peer")
	}
}

// TestTCPBarrierTimeout: a peer that never ends the round trips the
// barrier timeout instead of hanging.
func TestTCPBarrierTimeout(t *testing.T) {
	n0, n1 := tcpPair(t, 150*time.Millisecond)
	defer n0.Close()
	defer n1.Close()
	ep0, err := n0.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep0.Barrier(1, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ep0.Receive(1); err == nil {
		t.Fatal("Receive succeeded without the peer's end-of-round")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestTCPCorruptFrameOnWire: a corrupted frame injected into a live
// connection surfaces as errBadFrame from the peer's Receive.
func TestTCPCorruptFrameOnWire(t *testing.T) {
	n0, n1 := tcpPair(t, 5*time.Second)
	defer n0.Close()
	defer n1.Close()
	ep1, err := n1.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, 1, frameEOR, 0, 1, appendEORPayload(nil, nil))
	frame[len(frame)-1] ^= 0xff // flip a payload byte after the CRC was computed
	if err := n0.conns[1].enqueue(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := ep1.Receive(1); !errors.Is(err, errBadFrame) {
		t.Fatalf("Receive returned %v, want errBadFrame", err)
	}
}

// TestMemGroupProtocolGuards: out-of-order barriers and receives are
// refused, and double-close is fine.
func TestMemGroupProtocolGuards(t *testing.T) {
	eps, err := NewMemGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Barrier(2, nil); err == nil {
		t.Fatal("out-of-order barrier accepted")
	}
	if err := eps[0].Barrier(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Barrier(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Receive(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Receive(1); err == nil {
		t.Fatal("double receive accepted")
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving endpoint cannot complete a barrier against a closed
	// peer: error, not deadlock.
	if err := eps[1].Barrier(2, nil); err == nil {
		if _, err := eps[1].Receive(2); err == nil {
			t.Fatal("receive completed against a closed peer")
		}
	}
}
