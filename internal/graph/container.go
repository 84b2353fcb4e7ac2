package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// This file implements the binary graph container: a versioned, checksummed,
// directly-mappable on-disk form of the CSR kernel. The text format (io.go)
// re-parses every edge on load; the container stores the built slabs
// verbatim, so a cold load is O(header) — OpenMapped (mmap.go) serves the
// kernel accessors as zero-copy views straight off the page cache. There is
// one reader of those bytes, containerGraph: OpenMapped and OpenVerified run
// it on the mapping, ReadContainer on the container read into one heap
// buffer.
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	header     magic "MRGRAPH1" | n u64 | m u64 | flags u32 = 0 | nsec u32 = 5
//	table      5 × { kind u32 | _ u32 | off u64 | len u64 | crc32c u32 | _ u32 }
//	headerCRC  crc32c over header+table | _ u32
//	sections   zero-padded to 8-byte boundaries, in table order
//
// The five sections of a built graph, kinds 1 to 5 in this order:
//
//	adjStart  (n+1) × i32      CSR offsets
//	adjNbr    2m × i32         neighbour vertex ids, slab order
//	adjEdge   2m × i32         edge indices, positional with adjNbr
//	adjW      2m × f64         edge weights, positional with adjNbr
//	edges     m × {u i64, v i64, w f64}   the edge list, input order
//
// This is the only layout: the table is a fixed function of (n, m)
// (rawLayout), and readers refuse any other table, whatever its checksum —
// only the section CRCs vary between containers of the same dimensions. The
// delta-varint variant (flags bit 0, ".mrgz") is no longer written or read.
// The edge record layout equals the in-memory Edge struct on 64-bit
// little-endian hosts, so a mapping aliases g.Edges too. Section checksums
// are CRC-32C; ReadContainer and OpenVerified (ReadFile's path for
// containers) verify them on every load, OpenMapped verifies the header
// checksum only (for a file the process has just written itself) — use
// VerifyContainer for a full offline check.

// ContainerMagic identifies the binary container format, version 1 ("1" is
// the version byte: bump it for incompatible layout changes).
var ContainerMagic = [8]byte{'M', 'R', 'G', 'R', 'A', 'P', 'H', '1'}

// Section kinds, which are also table positions plus one: section kind k
// is containerHeader.sections[k-1].
const (
	secAdjStart = iota + 1
	secAdjNbr
	secAdjEdge
	secAdjW
	secEdges
	numSections = secEdges
)

const (
	headerSize   = 32 // magic + n + m + flags + nsec
	sectionSize  = 32 // kind + pad + off + len + crc + pad
	headerCRCLen = 8  // crc32c + pad
	// prologueLen is the length of the header, table and header CRC.
	prologueLen = headerSize + numSections*sectionSize + headerCRCLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one table entry.
type section struct {
	kind uint32
	off  uint64
	len  uint64
	crc  uint32
}

// checkSections compares the checksum of every section in a container's
// bytes with the table's.
func checkSections(data []byte, h containerHeader) error {
	for _, s := range h.sections {
		if crc := crc32.Checksum(data[s.off:s.off+s.len], castagnoli); crc != s.crc {
			return fmt.Errorf("graph: container section kind %d checksum mismatch (%08x != %08x)", s.kind, crc, s.crc)
		}
	}
	return nil
}

// containerHeader is the parsed fixed prologue.
type containerHeader struct {
	n, m     uint64
	sections [numSections]section
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// rawLayout computes the container layout for a graph with n vertices and
// m edges. Checksums are zero; writers fill them. The sizes are computed in
// uint64, where n+1 and 2m cannot overflow on a 32-bit host.
func rawLayout(n, m int) containerHeader {
	h := containerHeader{n: uint64(n), m: uint64(m)}
	sizes := [numSections]uint64{
		(h.n + 1) * 4, // adjStart
		2 * h.m * 4,   // adjNbr
		2 * h.m * 4,   // adjEdge
		2 * h.m * 8,   // adjW
		h.m * 24,      // edges
	}
	off := uint64(prologueLen)
	for i, size := range sizes {
		off = align8(off)
		h.sections[i] = section{kind: uint32(i + 1), off: off, len: size}
		off += size
	}
	return h
}

// totalSize returns the container file size the header describes.
func (h containerHeader) totalSize() uint64 {
	last := h.sections[numSections-1]
	return last.off + last.len
}

// marshal serializes the prologue (header + table + header CRC).
func (h containerHeader) marshal() []byte {
	buf := make([]byte, prologueLen)
	copy(buf, ContainerMagic[:])
	le := binary.LittleEndian
	le.PutUint64(buf[8:], h.n)
	le.PutUint64(buf[16:], h.m)
	le.PutUint32(buf[28:], numSections)
	for i, s := range h.sections {
		b := buf[headerSize+i*sectionSize:]
		le.PutUint32(b, s.kind)
		le.PutUint64(b[8:], s.off)
		le.PutUint64(b[16:], s.len)
		le.PutUint32(b[24:], s.crc)
	}
	crcOff := prologueLen - headerCRCLen
	le.PutUint32(buf[crcOff:], crc32.Checksum(buf[:crcOff], castagnoli))
	return buf
}

// parseHeaderBytes validates and parses a serialized prologue, refusing
// every table but rawLayout(n, m): a short prefix is an error at the first
// field it lacks.
func parseHeaderBytes(b []byte) (containerHeader, error) {
	var h containerHeader
	if len(b) < headerSize {
		return h, fmt.Errorf("graph: container truncated in header (%d bytes)", len(b))
	}
	if string(b[:8]) != string(ContainerMagic[:]) {
		return h, fmt.Errorf("graph: bad container magic %q", b[:8])
	}
	le := binary.LittleEndian
	if flags := le.Uint32(b[24:]); flags != 0 {
		return h, fmt.Errorf("graph: container has flags %#x: compressed .mrgz containers are no longer read; use .mrg, or .mrg.gz for a smaller file", flags)
	}
	if nsec := le.Uint32(b[28:]); nsec != numSections {
		return h, fmt.Errorf("graph: container declares %d sections, want %d", nsec, numSections)
	}
	if len(b) < prologueLen {
		return h, fmt.Errorf("graph: container truncated in section table (%d bytes)", len(b))
	}
	crcOff := prologueLen - headerCRCLen
	if got, want := crc32.Checksum(b[:crcOff], castagnoli), le.Uint32(b[crcOff:]); got != want {
		return h, fmt.Errorf("graph: container header checksum mismatch (%08x != %08x)", got, want)
	}
	n, m := le.Uint64(b[8:]), le.Uint64(b[16:])
	if err := csrBounds(n, m); err != nil {
		return h, err
	}
	h = rawLayout(int(n), int(m))
	for i := range h.sections {
		e, want := b[headerSize+i*sectionSize:], &h.sections[i]
		got := section{kind: le.Uint32(e), off: le.Uint64(e[8:]), len: le.Uint64(e[16:])}
		if got != *want {
			return h, fmt.Errorf("graph: container section %d is (kind %d, [%d,+%d)), the layout for n=%d m=%d has (kind %d, [%d,+%d))",
				i, got.kind, got.off, got.len, n, m, want.kind, want.off, want.len)
		}
		want.crc = le.Uint32(e[24:])
	}
	return h, nil
}

// --- encoding ---

// crcWriter streams bytes to an io.Writer while maintaining a CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	cw.n += uint64(len(p))
	if cw.w == nil {
		return len(p), nil
	}
	return cw.w.Write(p)
}

// sectionEncoder writes one section's payload in the canonical byte layout,
// via a reused little-endian scratch buffer (works on any host byte order).
type sectionEncoder struct {
	cw      crcWriter
	scratch [1 << 13]byte
	fill    int
	err     error
}

func (se *sectionEncoder) reset(w io.Writer) {
	se.cw = crcWriter{w: w}
	se.fill = 0
	se.err = nil
}

func (se *sectionEncoder) flush() {
	if se.err == nil && se.fill > 0 {
		_, se.err = se.cw.Write(se.scratch[:se.fill])
	}
	se.fill = 0
}

func (se *sectionEncoder) need(n int) []byte {
	if se.fill+n > len(se.scratch) {
		se.flush()
	}
	b := se.scratch[se.fill : se.fill+n]
	se.fill += n
	return b
}

func (se *sectionEncoder) putUint32(v uint32) { binary.LittleEndian.PutUint32(se.need(4), v) }
func (se *sectionEncoder) putUint64(v uint64) { binary.LittleEndian.PutUint64(se.need(8), v) }

func (se *sectionEncoder) putInt32s(vs []int32) {
	for _, v := range vs {
		se.putUint32(uint32(v))
	}
}

func (se *sectionEncoder) putEdge(e Edge) {
	b := se.need(24)
	le := binary.LittleEndian
	le.PutUint64(b, uint64(int64(e.U)))
	le.PutUint64(b[8:], uint64(int64(e.V)))
	le.PutUint64(b[16:], math.Float64bits(e.W))
}

// finish flushes and returns the section checksum and byte count.
func (se *sectionEncoder) finish() (uint32, uint64, error) {
	se.flush()
	return se.cw.crc, se.cw.n, se.err
}

// rawSections enumerates the five payloads of a built graph in layout
// order; the writer and the checksum pass share it. The adjW section is
// gathered from the edge list through adjEdge, in slab order — the bytes
// the weight slab would hold — so encoding never fills g's slab.
func rawSections(g *Graph) []func(se *sectionEncoder) {
	return []func(se *sectionEncoder){
		func(se *sectionEncoder) { se.putInt32s(g.adjStart) },
		func(se *sectionEncoder) { se.putInt32s(g.adjNbr) },
		func(se *sectionEncoder) { se.putInt32s(g.adjEdge) },
		func(se *sectionEncoder) {
			for _, id := range g.adjEdge {
				se.putUint64(math.Float64bits(g.Edges[id].W))
			}
		},
		func(se *sectionEncoder) {
			for _, e := range g.Edges {
				se.putEdge(e)
			}
		},
	}
}

// EncodeContainer writes g to w as a mappable binary container. The
// encoding is canonical: the same graph — same N, edge list and edge order —
// produces byte-identical output everywhere, whatever format it was decoded
// from (ConvertFile relies on this, and BuildExternal emits the same bytes
// without ever holding the graph in memory).
func EncodeContainer(w io.Writer, g *Graph) error {
	if err := checkCSRBounds(g.N, len(g.Edges)); err != nil {
		return err
	}
	g.Build()
	h := rawLayout(g.N, len(g.Edges))
	parts := rawSections(g)

	// Pass 1: checksums (the table precedes the payload on the wire).
	var se sectionEncoder
	for i, part := range parts {
		se.reset(nil)
		part(&se)
		crc, n, err := se.finish()
		if err != nil {
			return err
		}
		if n != h.sections[i].len {
			return fmt.Errorf("graph: container section %d encoded %d bytes, layout promises %d", i, n, h.sections[i].len)
		}
		h.sections[i].crc = crc
	}

	// Pass 2: stream prologue, padding and payloads.
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(h.marshal()); err != nil {
		return err
	}
	pos := uint64(prologueLen)
	for i, part := range parts {
		for ; pos < h.sections[i].off; pos++ {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
		}
		se.reset(bw)
		part(&se)
		if _, _, err := se.finish(); err != nil {
			return err
		}
		pos += h.sections[i].len
	}
	return bw.Flush()
}

// WriteContainerFile saves g to path as a binary container.
func WriteContainerFile(path string, g *Graph) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeContainer(fh, g); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// --- decoding ---

// readProlog reads and parses the prologue from a sequential reader, and
// refuses a container larger than this host can address.
func readProlog(r io.Reader) (containerHeader, error) {
	buf := make([]byte, prologueLen)
	k, err := io.ReadFull(r, buf)
	h, perr := parseHeaderBytes(buf[:k])
	if perr != nil && err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return h, fmt.Errorf("graph: container prologue: %v", err)
	}
	if perr == nil && h.totalSize() > math.MaxInt {
		perr = fmt.Errorf("graph: container of %d bytes exceeds this host's address space", h.totalSize())
	}
	return h, perr
}

// containerGraph builds the graph a container holds from its bytes: data is
// the whole container, 8-byte aligned, and h its parsed prologue. With
// verify it checks every section checksum first and the slab invariants
// (validateSlabs) last; without, it trusts the bytes, as OpenMapped does.
// The slabs and the edge list view data where the host's layout is the
// file's (loadSections), so the graph then keeps data alive.
func containerGraph(data []byte, h containerHeader, verify bool) (*Graph, error) {
	sec := func(kind int) []byte {
		s := h.sections[kind-1]
		return data[s.off : s.off+s.len]
	}
	if verify {
		if err := checkSections(data, h); err != nil {
			return nil, err
		}
	}
	g := New(int(h.n))
	g.loadSections(sec, hostLittleEndian, edgeLayoutMatches)
	g.built = true
	g.wBuilt = true
	if verify {
		if err := g.validateSlabs(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// loadSections sets g's slabs and edge list from the sections sec returns:
// as zero-copy views when the host's layout is the file's, else copied out
// field by field from the little-endian bytes. Slabs alias on a
// little-endian host, the edge list only where edgeLayoutMatches; a 32-bit
// host copies the edges, a big-endian one everything.
func (g *Graph) loadSections(sec func(kind int) []byte, aliasSlabs, aliasEdges bool) {
	if aliasSlabs {
		g.adjStart = viewInt32(sec(secAdjStart))
		g.adjNbr = viewInt32(sec(secAdjNbr))
		g.adjEdge = viewInt32(sec(secAdjEdge))
		g.adjW = viewFloat64(sec(secAdjW))
	} else {
		g.adjStart = copyOut(sec(secAdjStart), 4, leInt32)
		g.adjNbr = copyOut(sec(secAdjNbr), 4, leInt32)
		g.adjEdge = copyOut(sec(secAdjEdge), 4, leInt32)
		g.adjW = copyOut(sec(secAdjW), 8, leFloat64)
	}
	if aliasEdges {
		g.Edges = viewEdges(sec(secEdges))
	} else {
		g.Edges = copyOut(sec(secEdges), 24, leEdge)
	}
}

// copyOut is the byte-order fallback: it decodes b, a run of size-byte
// little-endian records, into a fresh slice one record at a time.
func copyOut[T any](b []byte, size int, decode func(rec []byte) T) []T {
	out := make([]T, len(b)/size)
	for i := range out {
		out[i] = decode(b[size*i:])
	}
	return out
}

func leInt32(b []byte) int32     { return int32(binary.LittleEndian.Uint32(b)) }
func leFloat64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func leEdge(b []byte) Edge {
	le := binary.LittleEndian
	return Edge{U: int(int64(le.Uint64(b))), V: int(int64(le.Uint64(b[8:]))), W: leFloat64(b[16:])}
}

// ReadContainer decodes a binary container from a sequential reader into a
// heap graph, with the checks OpenVerified makes: every section checksum,
// then the slab invariants. The graph arrives fully built: the slabs are
// read, not recomputed.
func ReadContainer(r io.Reader) (*Graph, error) { return readContainer(r, inputSize(r)) }

// readContainer is ReadContainer for an input of size bytes (< 0: unknown).
// It reads the container into one heap buffer and builds the graph on it as
// OpenVerified does on a mapping. The header's n and m are believed only as
// far as the bytes go: a sized input shorter than the layout is refused
// before the buffer is allocated, and an unsized one grows its buffer only
// as bytes arrive.
func readContainer(r io.Reader, size int64) (*Graph, error) {
	h, err := readProlog(r)
	if err != nil {
		return nil, err
	}
	total := h.totalSize()
	if size >= 0 && uint64(size) < total {
		return nil, fmt.Errorf("graph: container truncated: %d bytes, header promises %d", size, total)
	}
	first := total
	if size < 0 {
		first = min(total, 8*unsizedPresize) // unsizedPresize 8-byte words
	}
	data := alignedBytes(first)
	for have := prologueLen; uint64(have) < total; {
		if have == len(data) {
			grown := alignedBytes(min(2*uint64(have), total))
			copy(grown, data)
			data = grown
		}
		k, err := io.ReadFull(r, data[have:])
		have += k
		if err != nil {
			return nil, fmt.Errorf("graph: container truncated at byte %d of %d: %v", have, total, err)
		}
	}
	return containerGraph(data, h, true)
}

// alignedBytes returns n zero bytes starting at an 8-byte boundary, so that
// the container's 8-aligned sections can be viewed as typed slices.
func alignedBytes(n uint64) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// validateSlabs checks slabs loaded from external bytes against the edge
// list: edge endpoints inside [0,n), a monotone adjStart covering exactly 2m
// half-edges, and each vertex's entries exactly its incident edges in
// ascending edge id, with the other endpoint as neighbour and the edge's
// weight — the CSR that Build would make from the edges. The checksums
// catch corruption; this catches well-formed containers that lie, which
// would otherwise run differently from the text upload of the same edges.
func (g *Graph) validateSlabs() error {
	m := len(g.Edges)
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N || e.U == e.V {
			return fmt.Errorf("graph: container edge %d = (%d,%d) invalid for n=%d", i, e.U, e.V, g.N)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: container edge %d has non-finite weight", i)
		}
	}
	if len(g.adjNbr) != 2*m || len(g.adjEdge) != 2*m || len(g.adjW) != 2*m ||
		len(g.adjStart) != g.N+1 || int(g.adjStart[g.N]) != 2*m || g.adjStart[0] != 0 {
		return fmt.Errorf("graph: container adjacency index does not cover 2m=%d half-edges", 2*m)
	}
	for v := 0; v < g.N; v++ {
		if g.adjStart[v] > g.adjStart[v+1] {
			return fmt.Errorf("graph: container adjacency index not monotone at vertex %d", v)
		}
	}
	for _, u := range g.adjNbr {
		if u < 0 || int(u) >= g.N {
			return fmt.Errorf("graph: container neighbour id %d out of range", u)
		}
	}
	// Replay Build's fill: taking the edges in id order, the next entry of
	// each endpoint's range must be this edge, with the other endpoint as
	// neighbour and the edge's weight. The 2m entries are then all consumed,
	// so each range is exactly its vertex's incident edges, ascending. The
	// edge list is read in order and each range front to back, which keeps
	// the pass near Build's own cost rather than a random lookup per entry.
	fill := make([]int32, g.N)
	copy(fill, g.adjStart[:g.N])
	for id := range g.Edges {
		e := &g.Edges[id]
		ku, kv := fill[e.U], fill[e.V]
		if ku == g.adjStart[e.U+1] || int(g.adjEdge[ku]) != id || int(g.adjNbr[ku]) != e.V ||
			math.Float64bits(g.adjW[ku]) != math.Float64bits(e.W) {
			return fmt.Errorf("graph: container adjacency of vertex %d disagrees with the edge list at edge %d", e.U, id)
		}
		if kv == g.adjStart[e.V+1] || int(g.adjEdge[kv]) != id || int(g.adjNbr[kv]) != e.U ||
			math.Float64bits(g.adjW[kv]) != math.Float64bits(e.W) {
			return fmt.Errorf("graph: container adjacency of vertex %d disagrees with the edge list at edge %d", e.V, id)
		}
		fill[e.U], fill[e.V] = ku+1, kv+1
	}
	return nil
}

// VerifyContainer checks every checksum of the container at path — the full
// offline integrity check that OpenMapped deliberately skips.
func VerifyContainer(path string) error {
	m, h, err := mapContainer(path)
	if err != nil {
		return err
	}
	defer m.close()
	return checkSections(m.data, h)
}
