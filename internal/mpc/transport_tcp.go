package mpc

// This file implements the length-prefixed TCP transport: column batches
// travel as CRC-32C-checksummed frames over a full mesh of reused
// connections, one per unordered shard pair, with pipelined writes (a
// per-connection writer goroutine drains a frame queue, so Send never
// waits on the network) and a per-connection reader goroutine decoding
// frames into pooled columns as they arrive.
//
// # Wire format
//
// Every frame is a 20-byte little-endian header followed by the payload:
//
//	offset  size  field
//	0       4     seq         round sequence number (0 for control frames)
//	4       1     kind        1 batch · 2 end-of-round · 3 hello ·
//	                          4 hello-ack · 5 heartbeat · 6 resume
//	5       1     src         source shard
//	6       1     dst         destination shard
//	7       1     reserved    0
//	8       4     payloadLen
//	12      4     payloadCRC  CRC-32C (Castagnoli) of the payload
//	16      4     headerCRC   CRC-32C of header bytes [0,16)
//
// A batch payload is a column count followed by, per column,
//
//	u32 fromMachine · u32 toMachine · u32 nRecs · u32 nInts · u32 nFloats
//	nRecs × (u32 intLen · u32 floatLen)
//	nInts × u64 · nFloats × u64 (IEEE-754 bits)
//
// — the plane's column layout verbatim, so encode/decode is a handful of
// bulk copies. An end-of-round payload is the armed control column: a u32
// count followed by u32 machine ids. A hello payload (sent by the dialing
// side of each connection) is magic · shard · shard count · flags ·
// nextNeeded; a hello-ack payload is the single u32 wire round the acking
// side still needs from the dialer, and a resume payload is the single u32
// fleet-wide resume round a respawned worker settled on. Heartbeats carry
// no payload.
//
// # Failure detection and recovery
//
// Dial and hello exchange retry with deterministic exponential
// backoff+jitter (see backoffDelay). When TransportOpts.HeartbeatInterval
// is set, idle connections carry heartbeat frames and a peer silent for
// PeerDeadAfter is declared dead mid-round instead of stalling the barrier
// until its timeout.
//
// With TransportOpts.Recover enabled the node keeps a wire log — a bounded
// ring of the last W rounds' outbound frames (see wirelog.go) — and a
// connection failure marks the peer down instead of failing the round: the
// original dialer of the pair redials with backoff, and either side
// accepts a reconnect handshake that replays the logged frames the other
// still needs. A respawned worker rejoins via ReconnectTCP: it dials every
// peer, learns the earliest round any of them still needs from it (the
// hello-ack), announces that round as the fleet-wide resume point, then
// re-executes earlier rounds detached (purely local, deterministic) and
// reattaches to the wire exactly at the resume round while peers replay
// what it missed. Determinism makes replayed frames bit-identical to the
// originals, so receivers drop duplicates by sequence number and the
// recovered run's results, metrics, and traces match the fault-free run
// byte for byte.
//
// The framing discipline — checksummed fixed header, checksummed payload,
// truncation and corruption always detected — follows the graph
// container's (internal/graph/container.go).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

var tcpCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame is the base error for corrupt or truncated transport frames.
var errBadFrame = errors.New("mpc: corrupt transport frame")

const (
	frameHdrSize   = 20
	frameBatch     = 1
	frameEOR       = 2
	frameHello     = 3
	frameHelloAck  = 4
	frameHeartbeat = 5
	frameResume    = 6
	helloMagic     = 0x4d525348 // "MRSH"
	helloLen       = 20
	// helloFlagReconnect marks a hello as a reconnect handshake: the dialer
	// is rejoining an established mesh and expects a hello-ack (and replay)
	// rather than initial mesh assembly.
	helloFlagReconnect = 1
	// resumeUnknown in a reconnect hello's nextNeeded field means the dialer
	// is a respawned worker that lost its sequence state; it will announce
	// the fleet-wide resume round in a follow-up resume frame.
	resumeUnknown = ^uint32(0)
	// maxFramePayload bounds a frame so a corrupt length prefix cannot ask
	// the decoder to allocate gigabytes.
	maxFramePayload = 1 << 30
)

// frame assembly ------------------------------------------------------------

// appendFrame appends a complete frame (header + payload) to dst.
func appendFrame(dst []byte, seq uint32, kind, src, dstShard byte, payload []byte) []byte {
	off := len(dst)
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], seq)
	hdr[4], hdr[5], hdr[6], hdr[7] = kind, src, dstShard, 0
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, tcpCastagnoli))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], tcpCastagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst[:off+frameHdrSize], payload...)
}

// frameHeader is a decoded frame header.
type frameHeader struct {
	seq              uint32
	kind, src, dst   byte
	payloadLen, pcrc uint32
}

// readFrame reads one frame. io.EOF is returned only at a clean frame
// boundary; any mid-frame truncation or checksum mismatch wraps
// errBadFrame.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frameHeader{}, nil, io.EOF
		}
		return frameHeader{}, nil, fmt.Errorf("%w: truncated header: %v", errBadFrame, err)
	}
	if got, want := crc32.Checksum(hdr[:16], tcpCastagnoli), binary.LittleEndian.Uint32(hdr[16:]); got != want {
		return frameHeader{}, nil, fmt.Errorf("%w: header checksum mismatch (got %08x, want %08x)", errBadFrame, got, want)
	}
	h := frameHeader{
		seq:        binary.LittleEndian.Uint32(hdr[0:]),
		kind:       hdr[4],
		src:        hdr[5],
		dst:        hdr[6],
		payloadLen: binary.LittleEndian.Uint32(hdr[8:]),
		pcrc:       binary.LittleEndian.Uint32(hdr[12:]),
	}
	if h.payloadLen > maxFramePayload {
		return frameHeader{}, nil, fmt.Errorf("%w: payload length %d exceeds limit", errBadFrame, h.payloadLen)
	}
	payload := make([]byte, h.payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frameHeader{}, nil, fmt.Errorf("%w: truncated payload: %v", errBadFrame, err)
	}
	if got := crc32.Checksum(payload, tcpCastagnoli); got != h.pcrc {
		return frameHeader{}, nil, fmt.Errorf("%w: payload checksum mismatch (got %08x, want %08x)", errBadFrame, got, h.pcrc)
	}
	return h, payload, nil
}

// appendHelloPayload encodes a hello: magic, shard, shard count, flags,
// and the next wire round the dialer still needs from the accepting side
// (meaningful only with helloFlagReconnect).
func appendHelloPayload(dst []byte, shard, shards int, flags, nextNeeded uint32) []byte {
	var u [helloLen]byte
	binary.LittleEndian.PutUint32(u[0:], helloMagic)
	binary.LittleEndian.PutUint32(u[4:], uint32(shard))
	binary.LittleEndian.PutUint32(u[8:], uint32(shards))
	binary.LittleEndian.PutUint32(u[12:], flags)
	binary.LittleEndian.PutUint32(u[16:], nextNeeded)
	return append(dst, u[:]...)
}

// helloInfo is a decoded hello payload.
type helloInfo struct {
	peer, k           int
	flags, nextNeeded uint32
}

func decodeHello(p []byte) (helloInfo, bool) {
	if len(p) != helloLen || binary.LittleEndian.Uint32(p) != helloMagic {
		return helloInfo{}, false
	}
	return helloInfo{
		peer:       int(binary.LittleEndian.Uint32(p[4:])),
		k:          int(binary.LittleEndian.Uint32(p[8:])),
		flags:      binary.LittleEndian.Uint32(p[12:]),
		nextNeeded: binary.LittleEndian.Uint32(p[16:]),
	}, true
}

// appendBatchPayload encodes a batch's columns.
func appendBatchPayload(dst []byte, b *Batch) []byte {
	var u [8]byte
	p32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u[:4], v)
		dst = append(dst, u[:4]...)
	}
	p32(uint32(len(b.cols)))
	for _, bc := range b.cols {
		col := bc.col
		p32(uint32(bc.from))
		p32(uint32(bc.to))
		p32(uint32(col.n))
		p32(uint32(len(col.ints)))
		p32(uint32(len(col.floats)))
		for i := 0; i < col.n; i++ {
			rm := col.meta(i)
			p32(uint32(rm.intLen))
			p32(uint32(rm.floatLen))
		}
		for _, v := range col.ints {
			binary.LittleEndian.PutUint64(u[:], uint64(v))
			dst = append(dst, u[:]...)
		}
		for _, f := range col.floats {
			binary.LittleEndian.PutUint64(u[:], math.Float64bits(f))
			dst = append(dst, u[:]...)
		}
	}
	return dst
}

// decodeBatchPayload rebuilds a batch from a frame payload, columns drawn
// from the plane's pool. The payload has already passed its CRC, so errors
// here mean a malformed encoding, not line noise.
func decodeBatchPayload(src, dst int, payload []byte) (*Batch, error) {
	rd := payloadReader{buf: payload}
	n, err := rd.u32()
	if err != nil {
		return nil, err
	}
	b := &Batch{Src: src, Dst: dst}
	for i := uint32(0); i < n; i++ {
		from, err1 := rd.u32()
		to, err2 := rd.u32()
		nRecs, err3 := rd.u32()
		nInts, err4 := rd.u32()
		nFlts, err5 := rd.u32()
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			b.recycle()
			return nil, err
		}
		if rd.remaining() < int64(nRecs)*8+int64(nInts)*8+int64(nFlts)*8 {
			b.recycle()
			return nil, fmt.Errorf("%w: batch column overruns payload", errBadFrame)
		}
		col := getColumn()
		sumInt, sumFlt := 0, 0
		for r := uint32(0); r < nRecs; r++ {
			il, _ := rd.u32()
			fl, _ := rd.u32()
			col.frame(recMeta{int32(il), int32(fl)})
			sumInt += int(il)
			sumFlt += int(fl)
		}
		if sumInt != int(nInts) || sumFlt != int(nFlts) {
			putColumn(col)
			b.recycle()
			return nil, fmt.Errorf("%w: batch record framing inconsistent with payload lengths", errBadFrame)
		}
		for v := uint32(0); v < nInts; v++ {
			x, _ := rd.u64()
			col.ints = append(col.ints, int64(x))
		}
		for v := uint32(0); v < nFlts; v++ {
			x, _ := rd.u64()
			col.floats = append(col.floats, math.Float64frombits(x))
		}
		col.words = int(nRecs) + int(nInts) + int(nFlts)
		b.add(int(from), int(to), col, false)
	}
	if rd.remaining() != 0 {
		b.recycle()
		return nil, fmt.Errorf("%w: %d trailing bytes after batch payload", errBadFrame, rd.remaining())
	}
	return b, nil
}

// appendEORPayload encodes the armed control column.
func appendEORPayload(dst []byte, armed []int32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(armed)))
	dst = append(dst, u[:]...)
	for _, m := range armed {
		binary.LittleEndian.PutUint32(u[:], uint32(m))
		dst = append(dst, u[:]...)
	}
	return dst
}

// decodeEORPayload decodes the armed control column.
func decodeEORPayload(payload []byte) ([]int32, error) {
	rd := payloadReader{buf: payload}
	n, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if rd.remaining() != int64(n)*4 {
		return nil, fmt.Errorf("%w: end-of-round armed column length mismatch", errBadFrame)
	}
	if n == 0 {
		return nil, nil
	}
	armed := make([]int32, n)
	for i := range armed {
		v, _ := rd.u32()
		armed[i] = int32(v)
	}
	return armed, nil
}

// payloadReader is a bounds-checked cursor over a frame payload.
type payloadReader struct {
	buf []byte
	off int
}

func (r *payloadReader) remaining() int64 { return int64(len(r.buf) - r.off) }

func (r *payloadReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: payload underrun", errBadFrame)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *payloadReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: payload underrun", errBadFrame)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// node ----------------------------------------------------------------------

// tcpItem is one decoded inbound event: a batch, an end-of-round marker, or
// a connection failure.
type tcpItem struct {
	src   int
	gen   uint64 // connection generation the item arrived on
	seq   uint32
	batch *Batch
	eor   bool
	armed []int32
	err   error
	// eof marks a clean connection close (FIN at a frame boundary), as
	// opposed to a mid-frame truncation or checksum failure. A clean close
	// is legitimate when the peer already delivered its end-of-round marker
	// for the round in flight — a finished worker exits while slower shards
	// are still collecting the final exchange — and an error only if its
	// marker is still owed.
	eof bool
}

// tcpConn is one meshed connection, used bidirectionally between a pair of
// shards. Outbound frames queue through a writer goroutine so the round
// engine's Send returns immediately; a reader goroutine decodes inbound
// frames into the node's receive channel.
type tcpConn struct {
	peer int
	gen  uint64
	c    net.Conn
	br   *bufio.Reader

	// lastHeard / lastSent (unix nanos) feed heartbeat emission and silence
	// detection.
	lastHeard atomic.Int64
	lastSent  atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	q       [][]byte
	werr    error
	closing bool
	running bool
	flushed chan struct{}
}

func newTCPConn(peer int, c net.Conn, br *bufio.Reader) *tcpConn {
	tc := &tcpConn{peer: peer, c: c, br: br, flushed: make(chan struct{})}
	tc.cond = sync.NewCond(&tc.mu)
	now := time.Now().UnixNano()
	tc.lastHeard.Store(now)
	tc.lastSent.Store(now)
	return tc
}

// start launches the writer goroutine.
func (tc *tcpConn) start() {
	tc.mu.Lock()
	tc.running = true
	tc.mu.Unlock()
	go tc.writer()
}

// enqueue hands one encoded frame to the writer goroutine.
func (tc *tcpConn) enqueue(frame []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.werr != nil {
		return tc.werr
	}
	if tc.closing {
		return fmt.Errorf("%w (peer shard %d)", errTransportClosed, tc.peer)
	}
	tc.q = append(tc.q, frame)
	tc.lastSent.Store(time.Now().UnixNano())
	tc.cond.Signal()
	return nil
}

// writer is the connection's write loop: it drains the frame queue in
// order, and on shutdown flushes everything queued before closing the
// socket, so a peer still waiting on our final end-of-round marker gets it.
func (tc *tcpConn) writer() {
	defer close(tc.flushed)
	for {
		tc.mu.Lock()
		for len(tc.q) == 0 && !tc.closing && tc.werr == nil {
			tc.cond.Wait()
		}
		if tc.werr != nil || (tc.closing && len(tc.q) == 0) {
			tc.mu.Unlock()
			tc.c.Close()
			return
		}
		frames := tc.q
		tc.q = nil
		tc.mu.Unlock()
		for _, f := range frames {
			if _, err := tc.c.Write(f); err != nil {
				tc.mu.Lock()
				tc.werr = fmt.Errorf("mpc: tcp transport write to peer shard %d: %w", tc.peer, err)
				tc.mu.Unlock()
				tc.c.Close()
				return
			}
			transportBytesTotal.Add(uint64(len(f)))
		}
	}
}

// shutdown asks the writer to flush and close, then waits for it. A
// connection whose writer never started is simply closed.
func (tc *tcpConn) shutdown() {
	tc.mu.Lock()
	tc.closing = true
	tc.cond.Broadcast()
	running := tc.running
	tc.mu.Unlock()
	if running {
		<-tc.flushed
	} else {
		tc.c.Close()
	}
}

// kill severs the connection immediately: queued frames are dropped, the
// socket closed mid-flight. With recovery enabled the wire log makes the
// dropped frames replayable; without it both sides observe a hard failure.
func (tc *tcpConn) kill(err error) {
	tc.mu.Lock()
	if tc.werr == nil {
		tc.werr = err
	}
	tc.cond.Broadcast()
	tc.mu.Unlock()
	tc.c.Close()
}

// TCPNode is one process's membership in a TCP transport mesh: a listener,
// one reused connection per peer shard, and the per-connection reader and
// writer goroutines. A node outlives individual clusters — Endpoint hands
// out a fresh Transport per cluster run over the same connections (the
// lockstep barrier guarantees the previous cluster's traffic is fully
// drained before the next begins).
type TCPNode struct {
	shard, shards int
	opts          TransportOpts
	ln            net.Listener // nil for a ReconnectTCP node
	recv          chan tcpItem
	pend          []tcpItem
	done          chan struct{}
	closeOnce     sync.Once
	readers       sync.WaitGroup
	wlog          *wireLog // non-nil iff opts.Recover

	// connMu guards the connection table and its down/generation state;
	// swapping a connection takes the write lock, every send or state probe
	// the read lock.
	connMu    sync.RWMutex
	conns     []*tcpConn // by peer shard; nil at own index
	connGen   []uint64   // bumped on every swap-in
	down      []bool     // peer connection failed, awaiting reconnect
	redialing []bool     // redial goroutine in flight
	closing   bool
	addrs     []string // saved at Connect for redials

	// eorSeen[t] is the wire seq of the last end-of-round marker consumed
	// from peer t — exactly the state a reconnect handshake needs to tell
	// the peer what to replay (nextNeeded = eorSeen+1). Written by the
	// round-driving goroutine, read by accept/redial goroutines.
	eorSeen []atomic.Uint32

	// resumeWire, on a ReconnectTCP node, is the first wire seq the
	// respawned worker runs attached; rounds below it replay detached.
	resumeWire uint32

	// seqBase rebases wire sequence numbers across endpoint generations: a
	// long-lived worker node serves one cluster after another, each
	// restarting its round counter at 1, while the wire needs globally
	// monotone seqs so a peer's early next-cluster traffic is stashed
	// instead of misread as a stale frame. Closing a non-owning endpoint
	// advances the base by the rounds it consumed; every replica runs the
	// same clusters for the same rounds, so bases stay in lockstep.
	seqBase uint32
	// gone[t] records a clean close from peer t that arrived after its
	// end-of-round marker: the peer finished and exited. Without recovery,
	// any later round that still needs t fails fast instead of waiting out
	// the barrier timeout; with recovery a respawn may still rejoin.
	gone []atomic.Bool
}

func newTCPNode(shard, shards int, opts TransportOpts) *TCPNode {
	n := &TCPNode{
		shard:     shard,
		shards:    shards,
		opts:      opts,
		recv:      make(chan tcpItem, 4*shards+8),
		done:      make(chan struct{}),
		conns:     make([]*tcpConn, shards),
		connGen:   make([]uint64, shards),
		down:      make([]bool, shards),
		redialing: make([]bool, shards),
		eorSeen:   make([]atomic.Uint32, shards),
		gone:      make([]atomic.Bool, shards),
	}
	if opts.Recover {
		n.wlog = newWireLog(shard, opts.wireLogRounds(), opts.wireLogMemBytes(), opts.WireLogDir)
	}
	return n
}

// ListenTCP creates a transport node for the given shard, listening on
// addr (e.g. "127.0.0.1:0"). Call Connect with every node's address to
// establish the mesh, then Endpoint for each cluster run, and Close when
// the fleet is done.
func ListenTCP(shard, shards int, addr string, opts TransportOpts) (*TCPNode, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("mpc: tcp node shard %d out of range (K=%d)", shard, shards)
	}
	if shards > 256 {
		return nil, fmt.Errorf("mpc: tcp transport supports at most 256 shards, got %d", shards)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpc: tcp node listen: %w", err)
	}
	n := newTCPNode(shard, shards, opts)
	n.ln = ln
	return n, nil
}

// Addr returns the node's listen address ("" for a reconnected node, which
// has no listener).
func (n *TCPNode) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// connectWindow bounds mesh establishment (all dials plus hellos, and the
// accept side's wait for slower fleet members).
func (n *TCPNode) connectWindow() time.Duration {
	return n.opts.dialTimeout() * time.Duration(n.opts.dialRetries()+2)
}

// Connect establishes the full mesh: this node dials every higher-numbered
// shard (addrs indexed by shard; its own entry is ignored) and accepts a
// connection from every lower-numbered shard, identified by a hello frame.
// One connection per unordered pair, reused in both directions and across
// cluster runs. Dials and hello writes retry with deterministic
// backoff+jitter up to the configured retry budget.
func (n *TCPNode) Connect(addrs []string) error {
	if len(addrs) != n.shards {
		return fmt.Errorf("mpc: tcp node connect: %d addresses for %d shards", len(addrs), n.shards)
	}
	n.addrs = append([]string(nil), addrs...)
	type accepted struct {
		peer int
		tc   *tcpConn
		err  error
	}
	lower := n.shard
	acceptCh := make(chan accepted, lower)
	if lower > 0 {
		if d, ok := n.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(n.connectWindow()))
		}
		go func() {
			for i := 0; i < lower; i++ {
				c, err := n.ln.Accept()
				if err != nil {
					acceptCh <- accepted{err: fmt.Errorf("mpc: tcp node accept: %w", err)}
					return
				}
				br := bufio.NewReaderSize(c, 1<<16)
				hdr, payload, err := readFrame(br)
				if err != nil || hdr.kind != frameHello {
					c.Close()
					acceptCh <- accepted{err: fmt.Errorf("mpc: tcp node handshake: bad hello (%v)", err)}
					return
				}
				h, ok := decodeHello(payload)
				if !ok || h.k != n.shards || h.peer < 0 || h.peer >= n.shard || h.flags != 0 {
					c.Close()
					acceptCh <- accepted{err: fmt.Errorf("mpc: tcp node handshake: hello from invalid peer %d (K %d, flags %#x)", h.peer, h.k, h.flags)}
					return
				}
				acceptCh <- accepted{peer: h.peer, tc: newTCPConn(h.peer, c, br)}
			}
		}()
	}
	// Dial every higher shard while the lower ones dial us.
	for t := n.shard + 1; t < n.shards; t++ {
		tc, err := n.dialMesh(t, addrs[t])
		if err != nil {
			return err
		}
		n.conns[t] = tc
	}
	for i := 0; i < lower; i++ {
		a := <-acceptCh
		if a.err != nil {
			return a.err
		}
		if n.conns[a.peer] != nil {
			a.tc.c.Close()
			return fmt.Errorf("mpc: tcp node handshake: duplicate connection from shard %d", a.peer)
		}
		n.conns[a.peer] = a.tc
	}
	if d, ok := n.ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Time{})
	}
	for t, tc := range n.conns {
		if tc == nil {
			continue
		}
		n.connGen[t] = 1
		tc.gen = 1
		tc.start()
		n.readers.Add(1)
		go n.reader(tc)
	}
	// The listener keeps accepting after mesh-up: reconnect handshakes from
	// redialing peers and respawned workers arrive here.
	n.readers.Add(1)
	go n.acceptLoop()
	if n.opts.HeartbeatInterval > 0 {
		n.readers.Add(1)
		go n.heartbeatLoop()
	}
	return nil
}

// dialMesh dials one higher-numbered peer and sends the initial hello,
// retrying the dial-plus-hello exchange on the backoff schedule.
func (n *TCPNode) dialMesh(t int, addr string) (*tcpConn, error) {
	o := n.opts
	seed := o.RetrySeed
	if seed == 0 {
		seed = uint64(n.shard+1)<<16 ^ uint64(t+1)
	}
	attempts := o.dialRetries() + 1
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			transportRetriesTotal.Add(1)
			time.Sleep(backoffDelay(a-1, o.retryBase(), o.retryMax(), seed))
		}
		c, err := net.DialTimeout("tcp", addr, o.dialTimeout())
		if err != nil {
			lastErr = err
			continue
		}
		hello := appendHelloPayload(nil, n.shard, n.shards, 0, 0)
		frame := appendFrame(nil, 0, frameHello, byte(n.shard), byte(t), hello)
		c.SetDeadline(time.Now().Add(o.dialTimeout()))
		if _, err := c.Write(frame); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		c.SetDeadline(time.Time{})
		return newTCPConn(t, c, bufio.NewReaderSize(c, 1<<16)), nil
	}
	return nil, fmt.Errorf("mpc: tcp node dial shard %d (%s) after %d attempts: %w", t, addr, attempts, lastErr)
}

// dialReconnect performs one reconnect dial: hello (with the reconnect
// flag and our nextNeeded), then the peer's hello-ack telling us the first
// wire round it still needs from us.
func (n *TCPNode) dialReconnect(peer int, addr string, nextNeeded uint32) (net.Conn, *bufio.Reader, uint32, error) {
	c, err := net.DialTimeout("tcp", addr, n.opts.dialTimeout())
	if err != nil {
		return nil, nil, 0, err
	}
	c.SetDeadline(time.Now().Add(n.opts.dialTimeout()))
	hello := appendHelloPayload(nil, n.shard, n.shards, helloFlagReconnect, nextNeeded)
	if _, err := c.Write(appendFrame(nil, 0, frameHello, byte(n.shard), byte(peer), hello)); err != nil {
		c.Close()
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(c, 1<<16)
	hdr, payload, err := readFrame(br)
	if err != nil || hdr.kind != frameHelloAck || len(payload) != 4 {
		c.Close()
		return nil, nil, 0, fmt.Errorf("mpc: tcp reconnect to shard %d: bad hello-ack (%v)", peer, err)
	}
	c.SetDeadline(time.Time{})
	return c, br, binary.LittleEndian.Uint32(payload), nil
}

// acceptLoop accepts reconnect handshakes after mesh establishment, until
// the listener closes.
func (n *TCPNode) acceptLoop() {
	defer n.readers.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.handleReconnect(c)
	}
}

// handleReconnect validates one reconnect handshake and swaps the
// connection in, replaying logged frames from the round the peer needs. A
// respawned worker (nextNeeded == resumeUnknown) gets our ack first and
// then tells us the fleet-wide resume round it settled on.
func (n *TCPNode) handleReconnect(c net.Conn) {
	if !n.opts.Recover {
		c.Close()
		return
	}
	c.SetDeadline(time.Now().Add(n.connectWindow()))
	br := bufio.NewReaderSize(c, 1<<16)
	hdr, payload, err := readFrame(br)
	if err != nil || hdr.kind != frameHello {
		c.Close()
		return
	}
	h, ok := decodeHello(payload)
	if !ok || h.k != n.shards || h.peer < 0 || h.peer >= n.shards || h.peer == n.shard || h.flags&helloFlagReconnect == 0 {
		c.Close()
		return
	}
	var ack [4]byte
	binary.LittleEndian.PutUint32(ack[:], n.eorSeen[h.peer].Load()+1)
	if _, err := c.Write(appendFrame(nil, 0, frameHelloAck, byte(n.shard), byte(h.peer), ack[:])); err != nil {
		c.Close()
		return
	}
	replayFrom := h.nextNeeded
	if replayFrom == resumeUnknown {
		rh, rp, err := readFrame(br)
		if err != nil || rh.kind != frameResume || len(rp) != 4 {
			c.Close()
			return
		}
		replayFrom = binary.LittleEndian.Uint32(rp)
	}
	c.SetDeadline(time.Time{})
	n.swapConn(h.peer, c, br, replayFrom, 0)
}

// swapConn replaces the connection to peer with a fresh one, pre-loading
// its queue with the wire log's replay from replayFrom so no logged frame
// can be lost between the swap and the next Send (sends log first, then
// look up the connection: any frame logged before the replay snapshot is
// in the replay, any logged after sees the new connection).
//
// A non-zero replaces makes the swap conditional on the current connection
// still being that generation. The redial path passes the generation it set
// out to replace: its dial can complete after the peer has already dialled
// in — a respawned worker rejoining while our dial to its dying predecessor
// was still in flight — and installing it then would supersede the healthy
// connection with one to a dead process that nobody can redial (a respawned
// worker has no listener). The accept path passes 0: a peer that dials in
// has given up on the old connection itself.
func (n *TCPNode) swapConn(peer int, c net.Conn, br *bufio.Reader, replayFrom uint32, replaces uint64) error {
	n.connMu.Lock()
	if n.closing {
		n.connMu.Unlock()
		c.Close()
		return fmt.Errorf("%w (shard %d)", errTransportClosed, n.shard)
	}
	if replaces != 0 && n.connGen[peer] != replaces {
		n.connMu.Unlock()
		c.Close()
		return fmt.Errorf("mpc: tcp transport: redial of peer shard %d overtaken by its own reconnect", peer)
	}
	var replay [][]byte
	if n.wlog != nil {
		var err error
		replay, err = n.wlog.replayTo(peer, replayFrom)
		if err != nil {
			n.connMu.Unlock()
			c.Close()
			return err
		}
	}
	old := n.conns[peer]
	n.connGen[peer]++
	tc := newTCPConn(peer, c, br)
	tc.gen = n.connGen[peer]
	tc.q = append(tc.q, replay...)
	n.conns[peer] = tc
	n.down[peer] = false
	n.gone[peer].Store(false)
	n.connMu.Unlock()
	if old != nil {
		old.kill(fmt.Errorf("mpc: tcp transport: connection to peer shard %d superseded", peer))
	}
	transportReconnectsTotal.Add(1)
	tc.start()
	n.readers.Add(1)
	go n.reader(tc)
	return nil
}

// markDown records that the connection of generation gen to peer failed
// and, when this node is the original dialer of the pair, kicks off the
// redial loop. The generation is what the caller observed failing: by the
// time its report arrives a reconnect may already have swapped a healthy
// successor in, and marking that one down would strand it — the accept side
// of a pair never redials, so it would swallow every later frame to the peer
// (sendFrame drops frames for a down peer, trusting a replay that nobody is
// going to trigger) and the peer's barrier would wait out its timeout.
func (n *TCPNode) markDown(peer int, gen uint64) {
	if peer < 0 || peer >= n.shards || peer == n.shard {
		return
	}
	n.connMu.Lock()
	if n.closing || gen != n.connGen[peer] {
		n.connMu.Unlock()
		return
	}
	n.down[peer] = true
	spawn := n.opts.Recover && peer > n.shard && !n.redialing[peer] && len(n.addrs) == n.shards
	if spawn {
		n.redialing[peer] = true
	}
	n.connMu.Unlock()
	if spawn {
		go n.redial(peer)
	}
}

// redial re-establishes a failed connection from the dialer side on the
// backoff schedule, aborting if the peer reconnected to us first.
func (n *TCPNode) redial(peer int) {
	healed := false
	defer func() {
		// The connection this goroutine just installed can fail before it
		// gets here (chaos tears it on the very next send): that markDown
		// found redialing still set and spawned nothing, so the hand-over
		// happens under the same lock that clears the flag. An exhausted
		// retry budget is not re-armed — the peer stays down and the barrier
		// timeout reports it.
		n.connMu.Lock()
		again := healed && n.down[peer] && !n.closing
		n.redialing[peer] = again
		n.connMu.Unlock()
		if again {
			go n.redial(peer)
		}
	}()
	o := n.opts
	seed := o.RetrySeed
	if seed == 0 {
		seed = uint64(n.shard+1)<<16 ^ uint64(peer+1)
	}
	attempts := o.dialRetries() + 1
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			transportRetriesTotal.Add(1)
			t := time.NewTimer(backoffDelay(a-1, o.retryBase(), o.retryMax(), seed))
			select {
			case <-t.C:
			case <-n.done:
				t.Stop()
				return
			}
		}
		n.connMu.RLock()
		stillDown := n.down[peer] && !n.closing
		gen := n.connGen[peer]
		addr := n.addrs[peer]
		n.connMu.RUnlock()
		if !stillDown {
			return
		}
		c, br, ackNext, err := n.dialReconnect(peer, addr, n.eorSeen[peer].Load()+1)
		if err != nil {
			continue
		}
		healed = n.swapConn(peer, c, br, ackNext, gen) == nil
		return
	}
}

// heartbeatLoop emits a heartbeat frame on every connection that has been
// idle for the configured interval, so silence detection on the far side
// has a signal to miss.
func (n *TCPNode) heartbeatLoop() {
	defer n.readers.Done()
	iv := n.opts.HeartbeatInterval
	step := iv / 2
	if step < time.Millisecond {
		step = time.Millisecond
	}
	tick := time.NewTicker(step)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		n.connMu.RLock()
		conns := append([]*tcpConn(nil), n.conns...)
		n.connMu.RUnlock()
		for _, tc := range conns {
			if tc == nil || now-tc.lastSent.Load() < int64(iv) {
				continue
			}
			// Best-effort: an enqueue failure means the connection is dying
			// and the reader/down path is already handling it.
			tc.enqueue(appendFrame(nil, 0, frameHeartbeat, byte(n.shard), byte(tc.peer), nil))
		}
	}
}

// sendFrame routes one outbound data frame: logged first (when recovery is
// on — the log, not the socket queue, is the durable buffer), then queued
// on the peer's current connection. With recovery, a missing or failing
// connection swallows the frame (replay will deliver it); without, it
// surfaces as an error.
func (n *TCPNode) sendFrame(peer int, seq uint32, frame []byte) error {
	if n.wlog != nil {
		n.wlog.append(peer, seq, frame)
	}
	n.connMu.RLock()
	tc := n.conns[peer]
	isDown := n.down[peer]
	n.connMu.RUnlock()
	if tc == nil {
		if n.opts.Recover {
			return nil
		}
		return fmt.Errorf("mpc: tcp transport: no connection to peer shard %d", peer)
	}
	if isDown && n.opts.Recover {
		return nil
	}
	if err := tc.enqueue(frame); err != nil {
		if n.opts.Recover {
			n.markDown(peer, tc.gen)
			return nil
		}
		return err
	}
	return nil
}

// reader decodes one connection's inbound frames into the node's receive
// channel until the connection dies.
func (n *TCPNode) reader(tc *tcpConn) {
	defer n.readers.Done()
	for {
		hdr, payload, err := readFrame(tc.br)
		if err != nil {
			clean := err == io.EOF
			if clean {
				err = fmt.Errorf("mpc: tcp transport: peer shard %d disconnected", tc.peer)
			} else {
				err = fmt.Errorf("mpc: tcp transport from peer shard %d: %w", tc.peer, err)
			}
			if !clean && n.opts.Recover {
				// A non-clean death (killed or torn locally) starts the redial
				// immediately, even if this side's engine already finished its
				// rounds and will never call Receive again — a lagging peer
				// may still need the replay. Clean EOFs stay with Receive's
				// round-aware handling so ordinary teardown doesn't redial.
				n.markDown(tc.peer, tc.gen)
			}
			n.push(tcpItem{src: tc.peer, gen: tc.gen, err: err, eof: clean})
			return
		}
		tc.lastHeard.Store(time.Now().UnixNano())
		if hdr.kind == frameHeartbeat {
			// Liveness only; updating lastHeard was the whole effect.
			continue
		}
		if int(hdr.src) != tc.peer || int(hdr.dst) != n.shard {
			n.push(tcpItem{src: tc.peer, gen: tc.gen, err: fmt.Errorf("mpc: tcp transport: frame claims %d->%d on the %d<->%d connection", hdr.src, hdr.dst, tc.peer, n.shard)})
			return
		}
		switch hdr.kind {
		case frameBatch:
			b, derr := decodeBatchPayload(tc.peer, n.shard, payload)
			if derr != nil {
				n.push(tcpItem{src: tc.peer, gen: tc.gen, err: fmt.Errorf("mpc: tcp transport from peer shard %d: %w", tc.peer, derr)})
				return
			}
			n.push(tcpItem{src: tc.peer, gen: tc.gen, seq: hdr.seq, batch: b})
		case frameEOR:
			armed, derr := decodeEORPayload(payload)
			if derr != nil {
				n.push(tcpItem{src: tc.peer, gen: tc.gen, err: fmt.Errorf("mpc: tcp transport from peer shard %d: %w", tc.peer, derr)})
				return
			}
			n.push(tcpItem{src: tc.peer, gen: tc.gen, seq: hdr.seq, eor: true, armed: armed})
		default:
			n.push(tcpItem{src: tc.peer, gen: tc.gen, err: fmt.Errorf("mpc: tcp transport from peer shard %d: unknown frame kind %d", tc.peer, hdr.kind)})
			return
		}
	}
}

// push delivers one inbound item unless the node is shutting down.
func (n *TCPNode) push(it tcpItem) {
	select {
	case n.recv <- it:
	case <-n.done:
		if it.batch != nil {
			it.batch.recycle()
		}
	}
}

// KillConn severs the connection to peer abruptly (a chaos hook): queued
// frames are lost and both sides observe a connection error. With recovery
// enabled the dialer side redials and replay makes the loss invisible;
// without it the round fails, as it would on a real network fault. Reports
// whether a connection existed.
func (n *TCPNode) KillConn(peer int) bool {
	n.connMu.RLock()
	var tc *tcpConn
	if peer >= 0 && peer < len(n.conns) {
		tc = n.conns[peer]
	}
	n.connMu.RUnlock()
	if tc == nil {
		return false
	}
	tc.kill(fmt.Errorf("mpc: chaos: connection %d<->%d killed", n.shard, peer))
	return true
}

// TearConn injects garbage into the connection's byte stream and then
// severs it (a chaos hook): the peer observes a torn write — a checksum or
// framing failure mid-stream — rather than a clean close.
func (n *TCPNode) TearConn(peer int) bool {
	n.connMu.RLock()
	var tc *tcpConn
	if peer >= 0 && peer < len(n.conns) {
		tc = n.conns[peer]
	}
	n.connMu.RUnlock()
	if tc == nil {
		return false
	}
	// Racing the writer goroutine is the point: the garbage lands at an
	// arbitrary offset in the stream, exactly like a torn write.
	tc.c.Write([]byte{0xde, 0xad, 0xfa, 0x11, 0x00, 0xff, 0x00, 0xff})
	tc.kill(fmt.Errorf("mpc: chaos: connection %d<->%d torn", n.shard, peer))
	return true
}

// Abort tears the node down abruptly — no flush, queued frames lost — the
// in-process equivalent of kill -9 for chaos tests. Idempotent with Close.
func (n *TCPNode) Abort() {
	n.closeOnce.Do(func() {
		n.connMu.Lock()
		n.closing = true
		conns := append([]*tcpConn(nil), n.conns...)
		n.connMu.Unlock()
		for _, tc := range conns {
			if tc != nil {
				tc.kill(fmt.Errorf("mpc: tcp transport shard %d aborted", n.shard))
			}
		}
		if n.ln != nil {
			n.ln.Close()
		}
		close(n.done)
		n.readers.Wait()
		n.drainRecv()
		if n.wlog != nil {
			n.wlog.close()
		}
	})
}

// Close tears down the mesh: queued outbound frames are flushed first, so
// peers still collecting the final round observe a clean shutdown.
// Idempotent.
func (n *TCPNode) Close() error {
	n.closeOnce.Do(func() {
		n.connMu.Lock()
		n.closing = true
		conns := append([]*tcpConn(nil), n.conns...)
		n.connMu.Unlock()
		for _, tc := range conns {
			if tc != nil {
				tc.shutdown()
			}
		}
		if n.ln != nil {
			n.ln.Close()
		}
		close(n.done)
		n.readers.Wait()
		n.drainRecv()
		if n.wlog != nil {
			n.wlog.close()
		}
	})
	return nil
}

// drainRecv recycles any columns still parked in the receive queue.
func (n *TCPNode) drainRecv() {
	for {
		select {
		case it := <-n.recv:
			if it.batch != nil {
				it.batch.recycle()
			}
		default:
			return
		}
	}
}

// ReconnectTCP rejoins an established mesh as the respawned incarnation of
// a dead worker. It dials every peer (the node has no listener of its own)
// with a reconnect hello, collects each peer's hello-ack — the first wire
// round that peer still needs from this shard — and announces the minimum
// as the fleet-wide resume round A. Peers replay their logged frames from
// A; this worker re-executes rounds below A detached (purely local — the
// replicated SPMD execution is deterministic, so local state is free) and
// reattaches to the wire exactly at A. Returns the node and A. Recovery is
// forced on regardless of opts.Recover.
//
// Lockstep execution keeps the fleet within one round of the dead worker,
// so A is at most one round behind the most advanced peer and the one-round
// lookahead stash absorbs the spread.
func ReconnectTCP(shard, shards int, addrs []string, opts TransportOpts) (*TCPNode, uint32, error) {
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, 0, fmt.Errorf("mpc: tcp reconnect shard %d out of range (K=%d)", shard, shards)
	}
	if shards > 256 {
		return nil, 0, fmt.Errorf("mpc: tcp transport supports at most 256 shards, got %d", shards)
	}
	if len(addrs) != shards {
		return nil, 0, fmt.Errorf("mpc: tcp reconnect: %d addresses for %d shards", len(addrs), shards)
	}
	opts.Recover = true
	n := newTCPNode(shard, shards, opts)
	n.addrs = append([]string(nil), addrs...)
	type dialed struct {
		tc   *tcpConn
		next uint32
	}
	peers := make([]dialed, shards)
	fail := func(err error) (*TCPNode, uint32, error) {
		for _, d := range peers {
			if d.tc != nil {
				d.tc.c.Close()
			}
		}
		n.wlog.close()
		close(n.done)
		return nil, 0, err
	}
	seed := opts.RetrySeed
	if seed == 0 {
		seed = uint64(shard+1) * 0x9e3779b9
	}
	for t := 0; t < shards; t++ {
		if t == shard {
			continue
		}
		var (
			c    net.Conn
			br   *bufio.Reader
			next uint32
			err  error
		)
		attempts := opts.dialRetries() + 1
		for a := 1; a <= attempts; a++ {
			if a > 1 {
				transportRetriesTotal.Add(1)
				time.Sleep(backoffDelay(a-1, opts.retryBase(), opts.retryMax(), seed^uint64(t)))
			}
			c, br, next, err = n.dialReconnect(t, addrs[t], resumeUnknown)
			if err == nil {
				break
			}
		}
		if err != nil {
			return fail(fmt.Errorf("mpc: tcp reconnect shard %d: peer shard %d: %w", shard, t, err))
		}
		tc := newTCPConn(t, c, br)
		tc.gen = 1
		peers[t] = dialed{tc: tc, next: next}
	}
	resume := uint32(math.MaxUint32)
	for t := range peers {
		if t != shard && peers[t].next < resume {
			resume = peers[t].next
		}
	}
	if shards == 1 {
		resume = 1
	}
	// Announce the agreed resume round, then bring the connections up.
	var rp [4]byte
	binary.LittleEndian.PutUint32(rp[:], resume)
	for t := range peers {
		if t == shard {
			continue
		}
		tc := peers[t].tc
		tc.c.SetDeadline(time.Now().Add(opts.dialTimeout()))
		if _, err := tc.c.Write(appendFrame(nil, 0, frameResume, byte(shard), byte(t), rp[:])); err != nil {
			return fail(fmt.Errorf("mpc: tcp reconnect shard %d: resume to peer shard %d: %w", shard, t, err))
		}
		tc.c.SetDeadline(time.Time{})
	}
	for t := range peers {
		if t == shard {
			continue
		}
		tc := peers[t].tc
		n.connGen[t] = 1
		n.conns[t] = tc
		n.eorSeen[t].Store(resume - 1)
		tc.start()
		n.readers.Add(1)
		go n.reader(tc)
	}
	n.resumeWire = resume
	if opts.HeartbeatInterval > 0 {
		n.readers.Add(1)
		go n.heartbeatLoop()
	}
	workerRespawnsTotal.Add(1)
	return n, resume, nil
}

// Endpoint returns a Transport over the node's mesh for one cluster run
// with an effective shard count of k (clamped shard counts leave the
// higher mesh members as pure replicas: they own no endpoint and exchange
// nothing). The endpoint's sequence tracking is its own, so consecutive
// cluster runs reuse the mesh cleanly.
func (n *TCPNode) Endpoint(k int) (Transport, error) {
	if k < 1 || k > n.shards {
		return nil, fmt.Errorf("mpc: tcp endpoint for %d shards on a %d-shard mesh", k, n.shards)
	}
	if n.shard >= k {
		return nil, fmt.Errorf("mpc: tcp endpoint: shard %d outside effective shard count %d", n.shard, k)
	}
	return &tcpEndpoint{node: n, k: k, base: n.seqBase}, nil
}

// Factory returns a TransportFactory over this node for multi-process
// fleets: the worker's cluster gets this node's endpoint when the
// effective shard count covers the node's shard, and no endpoints (pure
// replica) otherwise.
func (n *TCPNode) Factory() TransportFactory {
	return func(shards int) ([]Transport, error) {
		if shards > n.shards {
			return nil, fmt.Errorf("mpc: cluster wants %d shards, tcp mesh has %d", shards, n.shards)
		}
		if n.shard >= shards {
			return nil, nil
		}
		ep, err := n.Endpoint(shards)
		if err != nil {
			return nil, err
		}
		return []Transport{ep}, nil
	}
}

// tcpEndpoint is one cluster run's Transport over a TCPNode. ownsNode
// marks endpoints that close their node with themselves (the loopback
// group's nodes are owned by their endpoints; a worker process's
// long-lived node is not).
type tcpEndpoint struct {
	node         *TCPNode
	k            int
	base         uint32 // wire seq = base + cluster-relative seq
	lastBarrier  uint32
	lastReceived uint32
	ownsNode     bool
	scratch      []byte
	batchSeen    []bool // per-Receive dedup: one batch per source shard per round
}

func (e *tcpEndpoint) Shard() int    { return e.node.shard }
func (e *tcpEndpoint) Shards() int   { return e.k }
func (e *tcpEndpoint) Retains() bool { return false }

// DetachedRound reports whether cluster-relative round seq predates the
// node's resume point: a respawned worker re-executes those rounds purely
// locally (deterministic replay) with no wire activity. Implements the
// engine's resumable interface.
func (e *tcpEndpoint) DetachedRound(seq uint32) bool {
	return e.base+seq < e.node.resumeWire
}

// NoteDetachedRound records a locally-replayed round so sequence tracking
// (and the seqBase advance on Close) stays aligned with the wire.
func (e *tcpEndpoint) NoteDetachedRound(seq uint32) {
	e.lastBarrier, e.lastReceived = seq, seq
}

// Send implements Transport: the batch is encoded and queued on the
// destination's connection; the writer goroutine pipelines the actual
// socket writes. Ownership of the columns stays with the caller.
func (e *tcpEndpoint) Send(dst int, b *Batch) error {
	if dst < 0 || dst >= e.k || dst == e.node.shard {
		return fmt.Errorf("mpc: tcp transport send from shard %d to invalid shard %d (K=%d)", e.node.shard, dst, e.k)
	}
	transportBatchesTotal.Add(1)
	payload := appendBatchPayload(e.scratch[:0], b)
	e.scratch = payload[:0]
	wseq := e.base + e.lastBarrier + 1
	frame := appendFrame(nil, wseq, frameBatch, byte(e.node.shard), byte(dst), payload)
	return e.node.sendFrame(dst, wseq, frame)
}

// Barrier implements Transport: one end-of-round frame, carrying the armed
// control column, to every effective peer. Barriering round seq also
// evicts wire-log rounds no replay can need anymore.
func (e *tcpEndpoint) Barrier(seq uint32, armed []int32) error {
	if seq != e.lastBarrier+1 {
		return fmt.Errorf("mpc: tcp transport shard %d: barrier for round %d out of order (expected %d)", e.node.shard, seq, e.lastBarrier+1)
	}
	e.lastBarrier = seq
	payload := appendEORPayload(e.scratch[:0], armed)
	e.scratch = payload[:0]
	wseq := e.base + seq
	for t := 0; t < e.k; t++ {
		if t == e.node.shard {
			continue
		}
		frame := appendFrame(nil, wseq, frameEOR, byte(e.node.shard), byte(t), payload)
		if err := e.node.sendFrame(t, wseq, frame); err != nil {
			return err
		}
	}
	if e.node.wlog != nil {
		e.node.wlog.evict(wseq)
	}
	return nil
}

// Receive implements Transport: it drains the node's inbound queue until
// every effective peer's end-of-round marker for seq has arrived, staging
// any early next-round traffic for the following call. Replayed duplicates
// from reconnecting peers are dropped by sequence number (determinism makes
// them bit-identical to what was already consumed). Connection failures,
// protocol desyncs, and the barrier timeout surface as errors — except with
// recovery enabled, where a connection failure marks the peer down and the
// wait continues while redial/replay heal the mesh, bounded by the barrier
// timeout. With heartbeats configured, a peer silent past PeerDeadAfter is
// declared dead mid-round instead of stalling until that timeout.
func (e *tcpEndpoint) Receive(seq uint32) (*Exchange, error) {
	if seq != e.lastReceived+1 {
		return nil, fmt.Errorf("mpc: tcp transport shard %d: receive for round %d out of order (expected %d)", e.node.shard, seq, e.lastReceived+1)
	}
	n := e.node
	recov := n.opts.Recover
	want := e.k - 1
	wseq := e.base + seq
	ex := &Exchange{Armed: make([][]int32, e.k)}
	eors := 0
	if cap(e.batchSeen) < e.k {
		e.batchSeen = make([]bool, e.k)
	}
	e.batchSeen = e.batchSeen[:e.k]
	for i := range e.batchSeen {
		e.batchSeen[i] = false
	}
	consume := func(it tcpItem) error {
		switch {
		case it.err != nil:
			n.connMu.RLock()
			cur := n.connGen[it.src]
			n.connMu.RUnlock()
			if it.gen < cur {
				// A superseded connection's death is history, not news.
				return nil
			}
			if it.eof && it.src < e.k && ex.Armed[it.src] != nil {
				// The peer closed cleanly after delivering this round's
				// marker: it finished the job and exited first.
				n.gone[it.src].Store(true)
				return nil
			}
			if recov {
				n.markDown(it.src, it.gen)
				return nil
			}
			return it.err
		case it.seq < wseq:
			// A replayed duplicate of a round already consumed: a
			// reconnecting peer resends conservatively, and determinism
			// guarantees the copy we consumed was bit-identical.
			if it.batch != nil {
				it.batch.recycle()
			}
			staleFramesDropped.Add(1)
			return nil
		case it.seq == wseq+1:
			// Peer already finished its next round's compute; keep for the
			// next Receive.
			n.pend = append(n.pend, it)
			return nil
		case it.seq != wseq:
			return fmt.Errorf("mpc: tcp transport shard %d: round-%d traffic from peer shard %d while receiving round %d", n.shard, it.seq, it.src, wseq)
		case it.eor:
			if it.src >= e.k {
				return fmt.Errorf("mpc: tcp transport shard %d: end-of-round from shard %d outside effective shard count %d", n.shard, it.src, e.k)
			}
			if ex.Armed[it.src] != nil {
				// Duplicate marker from a replay overlap.
				staleFramesDropped.Add(1)
				return nil
			}
			if it.armed == nil {
				it.armed = []int32{}
			}
			ex.Armed[it.src] = it.armed
			n.eorSeen[it.src].Store(wseq)
			eors++
			return nil
		default:
			if it.src < e.k && e.batchSeen[it.src] {
				// Duplicate batch from a replay overlap; at most one batch
				// per source shard per round leaves the engine.
				it.batch.recycle()
				staleFramesDropped.Add(1)
				return nil
			}
			if it.src < e.k {
				e.batchSeen[it.src] = true
			}
			ex.Batches = append(ex.Batches, it.batch)
			return nil
		}
	}
	fail := func(err error) (*Exchange, error) {
		for _, b := range ex.Batches {
			b.recycle()
		}
		return nil, err
	}
	// First replay traffic that arrived early during the previous round.
	if len(n.pend) > 0 {
		staged := n.pend
		n.pend = nil
		for i, it := range staged {
			if err := consume(it); err != nil {
				n.pend = append(n.pend, staged[i+1:]...)
				return fail(err)
			}
		}
	}
	// A peer that already finished and exited can never deliver this
	// round's marker: without recovery, fail now rather than waiting out
	// the timeout (with recovery a respawn may still rejoin).
	if !recov {
		for t := 0; t < e.k; t++ {
			if t != n.shard && n.gone[t].Load() && ex.Armed[t] == nil {
				return fail(fmt.Errorf("mpc: tcp transport: peer shard %d disconnected", t))
			}
		}
	}
	timer := time.NewTimer(n.opts.barrierTimeout())
	defer timer.Stop()
	var silence <-chan time.Time
	pd := n.opts.peerDeadAfter()
	if pd > 0 {
		step := pd / 4
		if step < time.Millisecond {
			step = time.Millisecond
		}
		st := time.NewTicker(step)
		defer st.Stop()
		silence = st.C
	}
	for eors < want {
		select {
		case it := <-n.recv:
			if err := consume(it); err != nil {
				return fail(err)
			}
		case <-silence:
			now := time.Now().UnixNano()
			for t := 0; t < e.k; t++ {
				if t == n.shard || ex.Armed[t] != nil {
					continue
				}
				n.connMu.RLock()
				tc := n.conns[t]
				isDown := n.down[t]
				n.connMu.RUnlock()
				if tc == nil || isDown || now-tc.lastHeard.Load() <= int64(pd) {
					continue
				}
				err := fmt.Errorf("mpc: tcp transport shard %d: peer shard %d silent for over %v during round %d (missed heartbeats)", n.shard, t, pd, seq)
				if recov {
					// Declare the connection dead; the down/redial path
					// takes over.
					tc.kill(err)
					n.markDown(t, tc.gen)
					continue
				}
				return fail(err)
			}
		case <-timer.C:
			return fail(fmt.Errorf("mpc: tcp transport shard %d: barrier timeout after %v waiting for round %d (%d/%d end-of-round markers)", n.shard, n.opts.barrierTimeout(), seq, eors, want))
		case <-n.done:
			return fail(fmt.Errorf("%w (shard %d)", errTransportClosed, n.shard))
		}
	}
	e.lastReceived = seq
	sortBatches(ex.Batches)
	return ex, nil
}

// Close implements Transport. A non-owning endpoint (a worker process's
// long-lived node) leaves the node open for the next cluster and advances
// its wire-seq base past the rounds this cluster consumed.
func (e *tcpEndpoint) Close() error {
	if e.ownsNode {
		return e.node.Close()
	}
	e.node.seqBase = e.base + e.lastReceived
	return nil
}

// TCPLoopback returns a TransportFactory that builds a complete in-process
// TCP mesh over the loopback interface: K nodes listening on 127.0.0.1:0,
// fully connected, one endpoint per node, all owned by (and closed with)
// the cluster. It exercises the real wire path — framing, checksums,
// socket scheduling — without any other process.
func TCPLoopback(opts TransportOpts) TransportFactory {
	return func(shards int) ([]Transport, error) {
		nodes := make([]*TCPNode, shards)
		fail := func(err error) ([]Transport, error) {
			for _, nd := range nodes {
				if nd != nil {
					nd.Close()
				}
			}
			return nil, err
		}
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			nd, err := ListenTCP(i, shards, "127.0.0.1:0", opts)
			if err != nil {
				return fail(err)
			}
			nodes[i] = nd
			addrs[i] = nd.Addr()
		}
		for _, nd := range nodes {
			if err := nd.Connect(addrs); err != nil {
				return fail(err)
			}
		}
		eps := make([]Transport, shards)
		for i, nd := range nodes {
			ep, err := nd.Endpoint(shards)
			if err != nil {
				return fail(err)
			}
			ep.(*tcpEndpoint).ownsNode = true
			eps[i] = ep
		}
		return eps, nil
	}
}
