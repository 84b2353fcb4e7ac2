package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// This file implements the binary graph container: a versioned, checksummed,
// directly-mappable on-disk form of the CSR kernel. The text format (io.go)
// re-parses every edge on load; the container stores the built slabs
// verbatim, so a cold load is O(header) — OpenMapped (mmap.go) serves the
// kernel accessors as zero-copy views straight off the page cache, and
// ReadContainer rebuilds a heap graph with a single sequential read.
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	header     magic "MRGRAPH1" | n u64 | m u64 | flags u32 | nsec u32
//	table      nsec × { kind u32 | _ u32 | off u64 | len u64 | crc32c u32 | _ u32 }
//	headerCRC  crc32c over header+table | _ u32
//	sections   zero-padded to 8-byte boundaries, in offset order
//
// Raw containers (flags == 0) carry the five sections of a built graph:
//
//	adjStart  (n+1) × i32      CSR offsets
//	adjNbr    2m × i32         neighbour vertex ids, slab order
//	adjEdge   2m × i32         edge indices, positional with adjNbr
//	adjW      2m × f64         edge weights, positional with adjNbr
//	edges     m × {u i64, v i64, w f64}   the edge list, input order
//
// The edge record layout equals the in-memory Edge struct on 64-bit
// little-endian hosts, so a mapping aliases g.Edges too. Compressed
// containers (flagCompressed, WriteFile ".mrgz") replace all five with one
// delta-varint edge stream for cold storage; they are not mappable and
// decode through the heap path. Section checksums are CRC-32C; ReadContainer
// and OpenVerified (ReadFile's path for raw containers) verify them on every
// load, OpenMapped verifies the header checksum only (for a file the
// process has just written itself) — use VerifyContainer for a full offline
// check.

// ContainerMagic identifies the binary container format, version 1 ("1" is
// the version byte: bump it for incompatible layout changes).
var ContainerMagic = [8]byte{'M', 'R', 'G', 'R', 'A', 'P', 'H', '1'}

// Container flags.
const (
	// flagCompressed marks a delta-varint edge-stream container (cold
	// storage; not mappable).
	flagCompressed = 1 << 0
	// flagUnitWeights marks a compressed container whose edges all weigh 1;
	// the weight column is omitted from the stream.
	flagUnitWeights = 1 << 1
)

// Section kinds.
const (
	secAdjStart = 1
	secAdjNbr   = 2
	secAdjEdge  = 3
	secAdjW     = 4
	secEdges    = 5
	secVarint   = 6
)

const (
	headerSize   = 32 // magic + n + m + flags + nsec
	sectionSize  = 32 // kind + pad + off + len + crc + pad
	headerCRCLen = 8  // crc32c + pad
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one table entry.
type section struct {
	kind uint32
	off  uint64
	len  uint64
	crc  uint32
}

// containerHeader is the parsed fixed prologue.
type containerHeader struct {
	n, m     uint64
	flags    uint32
	sections []section
}

// headerLen returns the total prologue length for nsec sections.
func headerLen(nsec int) int { return headerSize + nsec*sectionSize + headerCRCLen }

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// rawLayout computes the five-section layout of a raw container for a graph
// with n vertices and m edges. Checksums are zero; writers fill them.
func rawLayout(n, m int) containerHeader {
	h := containerHeader{n: uint64(n), m: uint64(m)}
	off := uint64(headerLen(5))
	add := func(kind uint32, size uint64) {
		off = align8(off)
		h.sections = append(h.sections, section{kind: kind, off: off, len: size})
		off += size
	}
	add(secAdjStart, uint64(n+1)*4)
	add(secAdjNbr, uint64(2*m)*4)
	add(secAdjEdge, uint64(2*m)*4)
	add(secAdjW, uint64(2*m)*8)
	add(secEdges, uint64(m)*24)
	return h
}

// totalSize returns the container file size the header describes.
func (h containerHeader) totalSize() uint64 {
	end := uint64(headerLen(len(h.sections)))
	for _, s := range h.sections {
		if s.off+s.len > end {
			end = s.off + s.len
		}
	}
	return end
}

// find returns the section of the given kind.
func (h containerHeader) find(kind uint32) (section, bool) {
	for _, s := range h.sections {
		if s.kind == kind {
			return s, true
		}
	}
	return section{}, false
}

// marshal serializes the prologue (header + table + header CRC).
func (h containerHeader) marshal() []byte {
	buf := make([]byte, headerLen(len(h.sections)))
	copy(buf, ContainerMagic[:])
	le := binary.LittleEndian
	le.PutUint64(buf[8:], h.n)
	le.PutUint64(buf[16:], h.m)
	le.PutUint32(buf[24:], h.flags)
	le.PutUint32(buf[28:], uint32(len(h.sections)))
	for i, s := range h.sections {
		b := buf[headerSize+i*sectionSize:]
		le.PutUint32(b, s.kind)
		le.PutUint64(b[8:], s.off)
		le.PutUint64(b[16:], s.len)
		le.PutUint32(b[24:], s.crc)
	}
	crcOff := headerSize + len(h.sections)*sectionSize
	le.PutUint32(buf[crcOff:], crc32.Checksum(buf[:crcOff], castagnoli))
	return buf
}

// parseHeaderBytes validates and parses a serialized prologue. prefix must
// hold at least headerSize bytes; the full prologue length is returned so
// callers with a short prefix can re-read.
func parseHeaderBytes(prefix []byte) (containerHeader, int, error) {
	var h containerHeader
	if len(prefix) < headerSize {
		return h, 0, fmt.Errorf("graph: container truncated in header (%d bytes)", len(prefix))
	}
	if string(prefix[:8]) != string(ContainerMagic[:]) {
		return h, 0, fmt.Errorf("graph: bad container magic %q", prefix[:8])
	}
	le := binary.LittleEndian
	h.n = le.Uint64(prefix[8:])
	h.m = le.Uint64(prefix[16:])
	h.flags = le.Uint32(prefix[24:])
	nsec := int(le.Uint32(prefix[28:]))
	if nsec < 1 || nsec > 16 {
		return h, 0, fmt.Errorf("graph: container declares %d sections", nsec)
	}
	total := headerLen(nsec)
	if len(prefix) < total {
		return h, total, nil // caller must supply the full prologue
	}
	crcOff := headerSize + nsec*sectionSize
	want := le.Uint32(prefix[crcOff:])
	if got := crc32.Checksum(prefix[:crcOff], castagnoli); got != want {
		return h, total, fmt.Errorf("graph: container header checksum mismatch (%08x != %08x)", got, want)
	}
	if h.n > math.MaxInt32 || h.m > math.MaxInt32/2 {
		return h, total, fmt.Errorf("graph: %v", errCSRBounds(int(h.n), int(h.m)))
	}
	for i := 0; i < nsec; i++ {
		b := prefix[headerSize+i*sectionSize:]
		s := section{
			kind: le.Uint32(b),
			off:  le.Uint64(b[8:]),
			len:  le.Uint64(b[16:]),
			crc:  le.Uint32(b[24:]),
		}
		if s.off < uint64(total) || s.off%8 != 0 || s.off+s.len < s.off {
			return h, total, fmt.Errorf("graph: container section %d has bad bounds [%d,+%d)", i, s.off, s.len)
		}
		h.sections = append(h.sections, s)
	}
	if err := h.checkSections(); err != nil {
		return h, total, err
	}
	return h, total, nil
}

// checkSections verifies the section set matches the flags and the declared
// n/m, so readers can index sections without further bounds checks.
func (h containerHeader) checkSections() error {
	if h.flags&flagCompressed != 0 {
		if _, ok := h.find(secVarint); !ok {
			return fmt.Errorf("graph: compressed container missing edge stream section")
		}
		return nil
	}
	want := []struct {
		kind uint32
		len  uint64
	}{
		{secAdjStart, (h.n + 1) * 4},
		{secAdjNbr, 2 * h.m * 4},
		{secAdjEdge, 2 * h.m * 4},
		{secAdjW, 2 * h.m * 8},
		{secEdges, h.m * 24},
	}
	for _, w := range want {
		s, ok := h.find(w.kind)
		if !ok {
			return fmt.Errorf("graph: container missing section kind %d", w.kind)
		}
		if s.len != w.len {
			return fmt.Errorf("graph: container section kind %d has %d bytes, header promises %d",
				w.kind, s.len, w.len)
		}
	}
	return nil
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

func (se *sectionEncoder) putFloat64s(vs []float64) {
	for _, v := range vs {
		se.putUint64(math.Float64bits(v))
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

// rawSections enumerates the five raw payloads of a built graph in layout
// order; the writer and the checksum pass share it.
func rawSections(g *Graph) []func(se *sectionEncoder) {
	return []func(se *sectionEncoder){
		func(se *sectionEncoder) { se.putInt32s(g.adjStart) },
		func(se *sectionEncoder) { se.putInt32s(g.adjNbr) },
		func(se *sectionEncoder) { se.putInt32s(g.adjEdge) },
		func(se *sectionEncoder) { se.putFloat64s(g.adjW) },
		func(se *sectionEncoder) {
			for _, e := range g.Edges {
				se.putEdge(e)
			}
		},
	}
}

// EncodeContainer writes g to w as a raw (mappable) binary container. The
// encoding is canonical: the same graph — same N, edge list and edge order —
// produces byte-identical output everywhere, whatever format it was decoded
// from (ConvertFile relies on this, and BuildExternal emits the same bytes
// without ever holding the graph in memory).
func EncodeContainer(w io.Writer, g *Graph) error {
	if err := checkCSRBounds(g.N, len(g.Edges)); err != nil {
		return err
	}
	g.Build()
	g.buildWeights()
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
	pos := uint64(headerLen(len(h.sections)))
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

// EncodeContainerCompressed writes g to w as a delta-varint compressed
// container: one edge-stream section (zigzag delta of U, delta of V from U,
// raw float64 weight — omitted entirely when every weight is 1). Compressed
// containers are for cold storage: they are typically several times smaller
// than raw but decode through the heap path, never via mmap.
func EncodeContainerCompressed(w io.Writer, g *Graph) error {
	if err := checkCSRBounds(g.N, len(g.Edges)); err != nil {
		return err
	}
	h := containerHeader{n: uint64(g.N), m: uint64(len(g.Edges)), flags: flagCompressed}
	unit := true
	for _, e := range g.Edges {
		if e.W != 1 {
			unit = false
			break
		}
	}
	if unit {
		h.flags |= flagUnitWeights
	}

	encode := func(se *sectionEncoder) {
		var varint [binary.MaxVarintLen64]byte
		putVarint := func(v int64) {
			n := binary.PutVarint(varint[:], v)
			copy(se.need(n), varint[:n])
		}
		prevU := 0
		for _, e := range g.Edges {
			putVarint(int64(e.U - prevU))
			putVarint(int64(e.V - e.U))
			if !unit {
				se.putUint64(math.Float64bits(e.W))
			}
			prevU = e.U
		}
	}

	var se sectionEncoder
	se.reset(nil)
	encode(&se)
	crc, n, err := se.finish()
	if err != nil {
		return err
	}
	h.sections = []section{{kind: secVarint, off: align8(uint64(headerLen(1))), len: n, crc: crc}}

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(h.marshal()); err != nil {
		return err
	}
	for pos := uint64(headerLen(1)); pos < h.sections[0].off; pos++ {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	se.reset(bw)
	encode(&se)
	if _, _, err := se.finish(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteContainerFile saves g to path as a raw binary container.
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

// readFullProlog reads and parses the prologue from a sequential reader.
func readFullProlog(r io.Reader) (containerHeader, int, error) {
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		return containerHeader{}, 0, fmt.Errorf("graph: container header: %v", err)
	}
	_, total, err := parseHeaderBytes(head)
	if err != nil {
		return containerHeader{}, 0, err
	}
	full := make([]byte, total)
	copy(full, head)
	if _, err := io.ReadFull(r, full[headerSize:]); err != nil {
		return containerHeader{}, 0, fmt.Errorf("graph: container section table: %v", err)
	}
	h, _, err := parseHeaderBytes(full)
	return h, total, err
}

// sectionDecoder reads one section's payload sequentially, verifying its
// checksum at the end.
type sectionDecoder struct {
	r       io.Reader
	crc     uint32
	scratch [1 << 13]byte
	buf     []byte // unread slice of scratch
}

func (sd *sectionDecoder) next(n int) ([]byte, error) {
	for len(sd.buf) < n {
		// Refill: compact the remainder to the front, then read.
		rem := copy(sd.scratch[:], sd.buf)
		k, err := sd.r.Read(sd.scratch[rem:])
		if k > 0 {
			sd.crc = crc32.Update(sd.crc, castagnoli, sd.scratch[rem:rem+k])
		}
		sd.buf = sd.scratch[:rem+k]
		if len(sd.buf) >= n {
			break
		}
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	out := sd.buf[:n]
	sd.buf = sd.buf[n:]
	return out, nil
}

func (sd *sectionDecoder) uint32() (uint32, error) {
	b, err := sd.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (sd *sectionDecoder) uint64() (uint64, error) {
	b, err := sd.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// decodeSection runs body over exactly s.len payload bytes and verifies the
// checksum. The reader must be positioned at the section start.
func decodeSection(r io.Reader, s section, body func(sd *sectionDecoder) error) error {
	sd := sectionDecoder{r: io.LimitReader(r, int64(s.len))}
	if err := body(&sd); err != nil {
		return fmt.Errorf("graph: container section kind %d: %v", s.kind, err)
	}
	if len(sd.buf) != 0 {
		return fmt.Errorf("graph: container section kind %d has %d trailing bytes", s.kind, len(sd.buf))
	}
	if sd.crc != s.crc {
		return fmt.Errorf("graph: container section kind %d checksum mismatch (%08x != %08x)", s.kind, sd.crc, s.crc)
	}
	return nil
}

// ReadContainer decodes a binary container (raw or compressed) from a
// sequential reader into a heap graph, verifying every section checksum.
// Raw containers arrive fully built (the slabs are read, not recomputed);
// compressed containers carry only the edge stream and rebuild the CSR index
// lazily like any other graph.
func ReadContainer(r io.Reader) (*Graph, error) { return readContainer(r, inputSize(r)) }

// readContainer is ReadContainer for an input of size bytes (< 0: unknown).
// Every slab is allocated when its section is reached, sized by presize, so
// the header's n and m are believed only as far as size can back them.
func readContainer(r io.Reader, size int64) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	h, total, err := readFullProlog(br)
	if err != nil {
		return nil, err
	}
	pos := uint64(total)
	skipTo := func(off uint64) error {
		if off < pos {
			return fmt.Errorf("graph: container sections out of order")
		}
		if _, err := io.CopyN(io.Discard, br, int64(off-pos)); err != nil {
			return fmt.Errorf("graph: container padding: %v", err)
		}
		pos = off
		return nil
	}

	g := New(int(h.n))
	if h.flags&flagCompressed != 0 {
		s, _ := h.find(secVarint)
		if err := skipTo(s.off); err != nil {
			return nil, err
		}
		err := decodeSection(br, s, func(sd *sectionDecoder) error {
			unit := 2 // two one-byte varints
			if h.flags&flagUnitWeights == 0 {
				unit += 8
			}
			g.Edges = make([]Edge, 0, presize(int(h.m), unit, size))
			byteReader := &sectionByteReader{sd: sd}
			prevU := 0
			for i := uint64(0); i < h.m; i++ {
				du, err := binary.ReadVarint(byteReader)
				if err != nil {
					return err
				}
				dv, err := binary.ReadVarint(byteReader)
				if err != nil {
					return err
				}
				u := prevU + int(du)
				v := u + int(dv)
				w := 1.0
				if h.flags&flagUnitWeights == 0 {
					bits, err := sd.uint64()
					if err != nil {
						return err
					}
					w = math.Float64frombits(bits)
				}
				if u < 0 || u >= g.N || v < 0 || v >= g.N || u == v {
					return fmt.Errorf("invalid edge (%d,%d) for n=%d", u, v, g.N)
				}
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("non-finite weight on edge (%d,%d)", u, v)
				}
				g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
				prevU = u
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return g, nil
	}

	// Raw: read the five sections in offset order into fresh slabs.
	n, m := int(h.n), int(h.m)
	readInt32s := func(dst *[]int32, count int) func(sd *sectionDecoder) error {
		return func(sd *sectionDecoder) error {
			*dst = make([]int32, 0, presize(count, 4, size))
			for i := 0; i < count; i++ {
				v, err := sd.uint32()
				if err != nil {
					return err
				}
				*dst = append(*dst, int32(v))
			}
			return nil
		}
	}
	bodies := map[uint32]func(sd *sectionDecoder) error{
		secAdjStart: readInt32s(&g.adjStart, n+1),
		secAdjNbr:   readInt32s(&g.adjNbr, 2*m),
		secAdjEdge:  readInt32s(&g.adjEdge, 2*m),
		secAdjW: func(sd *sectionDecoder) error {
			g.adjW = make([]float64, 0, presize(2*m, 8, size))
			for i := 0; i < 2*m; i++ {
				bits, err := sd.uint64()
				if err != nil {
					return err
				}
				g.adjW = append(g.adjW, math.Float64frombits(bits))
			}
			return nil
		},
		secEdges: func(sd *sectionDecoder) error {
			g.Edges = make([]Edge, 0, presize(m, 24, size))
			for i := 0; i < m; i++ {
				b, err := sd.next(24)
				if err != nil {
					return err
				}
				le := binary.LittleEndian
				g.Edges = append(g.Edges, Edge{
					U: int(int64(le.Uint64(b))),
					V: int(int64(le.Uint64(b[8:]))),
					W: math.Float64frombits(le.Uint64(b[16:])),
				})
			}
			return nil
		},
	}
	for _, s := range h.sections {
		if err := skipTo(s.off); err != nil {
			return nil, err
		}
		body, ok := bodies[s.kind]
		if !ok {
			// Unknown section kinds are skipped, not rejected: a newer
			// writer may append sections an old reader can ignore.
			if _, err := io.CopyN(io.Discard, br, int64(s.len)); err != nil {
				return nil, fmt.Errorf("graph: container section kind %d: %v", s.kind, err)
			}
			pos += s.len
			continue
		}
		if err := decodeSection(br, s, body); err != nil {
			return nil, err
		}
		pos += s.len
	}
	if err := g.validateSlabs(); err != nil {
		return nil, err
	}
	g.built = true
	g.wBuilt = true
	return g, nil
}

// sectionByteReader adapts a sectionDecoder to io.ByteReader for varints.
type sectionByteReader struct{ sd *sectionDecoder }

func (r *sectionByteReader) ReadByte() (byte, error) {
	b, err := r.sd.next(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// validateSlabs sanity-checks slabs loaded from external bytes: monotone
// adjStart covering exactly 2m half-edges, in-range neighbour ids and edge
// indices, and edge endpoints inside [0,n). The checksums catch corruption;
// this catches well-formed containers that lie.
func (g *Graph) validateSlabs() error {
	m := len(g.Edges)
	if len(g.adjStart) != g.N+1 || int(g.adjStart[g.N]) != 2*m || g.adjStart[0] != 0 {
		return fmt.Errorf("graph: container adjacency index does not cover 2m=%d half-edges", 2*m)
	}
	for v := 0; v < g.N; v++ {
		if g.adjStart[v] > g.adjStart[v+1] {
			return fmt.Errorf("graph: container adjacency index not monotone at vertex %d", v)
		}
	}
	for k := range g.adjNbr {
		if u := g.adjNbr[k]; u < 0 || int(u) >= g.N {
			return fmt.Errorf("graph: container neighbour id %d out of range", u)
		}
		if id := g.adjEdge[k]; id < 0 || int(id) >= m {
			return fmt.Errorf("graph: container edge index %d out of range", id)
		}
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N || e.U == e.V {
			return fmt.Errorf("graph: container edge %d = (%d,%d) invalid for n=%d", i, e.U, e.V, g.N)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: container edge %d has non-finite weight", i)
		}
	}
	return nil
}

// VerifyContainer checks every checksum of the container at path — the full
// offline integrity check that OpenMapped deliberately skips.
func VerifyContainer(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 1<<16)
	h, total, err := readFullProlog(br)
	if err != nil {
		return err
	}
	pos := uint64(total)
	for _, s := range h.sections {
		if s.off < pos {
			return fmt.Errorf("graph: container sections out of order")
		}
		if _, err := io.CopyN(io.Discard, br, int64(s.off-pos)); err != nil {
			return err
		}
		crc := uint32(0)
		buf := make([]byte, 1<<16)
		remaining := s.len
		for remaining > 0 {
			chunk := buf
			if uint64(len(chunk)) > remaining {
				chunk = chunk[:remaining]
			}
			k, err := io.ReadFull(br, chunk)
			if err != nil {
				return fmt.Errorf("graph: container section kind %d truncated: %v", s.kind, err)
			}
			crc = crc32.Update(crc, castagnoli, chunk[:k])
			remaining -= uint64(k)
		}
		if crc != s.crc {
			return fmt.Errorf("graph: container section kind %d checksum mismatch (%08x != %08x)", s.kind, crc, s.crc)
		}
		pos = s.off + s.len
	}
	return nil
}
