package graph

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// This file implements a small deterministic text format for graphs so that
// instances can be saved, shared and re-run (cmd/mrrun accepts them, and
// cmd/mrserve serves uploaded instances). The format is line-oriented:
//
//	graph <n> <m>
//	e <u> <v> <w>
//	...
//
// Weights are serialized with full float64 round-trip precision. The file
// helpers sniff formats transparently: ReadFile and DecodeAuto accept the
// text format, the binary container (container.go), and gzip wrappings of
// either, dispatching on the leading magic bytes, so every ingest point
// (mrrun -load, mrserve uploads, fixtures) speaks all formats through this
// one path. WriteFile picks the output format from the extension (.mrg
// container, .gz gzip).

// Encode writes g to w in the text format, with edges in their current
// order. Call SortEdges first for a canonical encoding. Each line is built
// in one reused buffer, so Encode allocates the same few buffers whatever
// the graph's size.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	line := make([]byte, 0, 64)
	line = append(line, "graph "...)
	line = strconv.AppendInt(line, int64(g.N), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(g.M()), 10)
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, e := range g.Edges {
		line = append(line[:0], 'e', ' ')
		line = strconv.AppendInt(line, int64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.V), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, e.W, 'g', -1, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// textStream is a streaming parser for the text format: header first, then
// one edge per Next call.
type textStream struct {
	sc   *bufio.Scanner
	n, m int
	read int
}

// newTextStream parses the header line.
func newTextStream(r io.Reader) (*textStream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty input")
	}
	var n, m int64 // a 32-bit int cannot hold every header csrBounds must refuse
	if _, err := fmt.Sscanf(sc.Text(), "graph %d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("graph: bad header %q: %v", sc.Text(), err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative dimensions in header")
	}
	if err := csrBounds(uint64(n), uint64(m)); err != nil {
		return nil, err
	}
	return &textStream{sc: sc, n: int(n), m: int(m)}, nil
}

// Next returns the next edge. After exactly m edges it verifies the
// trailing input and returns io.EOF. Lines in the shape Encode writes take
// fastEdgeLine, which allocates nothing; every other line, and every line
// that would be an error, takes parseEdgeLine.
func (t *textStream) Next() (Edge, error) {
	for t.sc.Scan() {
		e, ok := fastEdgeLine(t.sc.Bytes(), t.n)
		if !ok {
			line := strings.TrimSpace(t.sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var err error
			if e, err = parseEdgeLine(line, t.n); err != nil {
				return Edge{}, err
			}
		}
		if t.read >= t.m {
			return Edge{}, fmt.Errorf("graph: header promises %d edges, found more", t.m)
		}
		t.read++
		return e, nil
	}
	if err := t.sc.Err(); err != nil {
		return Edge{}, err
	}
	if t.read != t.m {
		return Edge{}, fmt.Errorf("graph: header promises %d edges, found %d", t.m, t.read)
	}
	return Edge{}, io.EOF
}

// parseEdgeLine parses one trimmed, non-blank, non-comment line as an edge
// of a graph on n vertices. It is the general parser: any whitespace
// between fields, signed endpoints, every float syntax ParseFloat accepts.
func parseEdgeLine(line string, n int) (Edge, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "e" {
		return Edge{}, fmt.Errorf("graph: bad edge line %q", line)
	}
	u, err := strconv.Atoi(fields[1])
	if err != nil {
		return Edge{}, fmt.Errorf("graph: bad endpoint %q", fields[1])
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		return Edge{}, fmt.Errorf("graph: bad endpoint %q", fields[2])
	}
	wt, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return Edge{}, fmt.Errorf("graph: bad weight %q", fields[3])
	}
	if math.IsNaN(wt) || math.IsInf(wt, 0) {
		return Edge{}, fmt.Errorf("graph: non-finite weight %q on edge (%d,%d)", fields[3], u, v)
	}
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		return Edge{}, fmt.Errorf("graph: invalid edge (%d,%d) for n=%d", u, v, n)
	}
	return Edge{U: u, V: v, W: wt}, nil
}

// fastEdgeLine parses the line shape Encode writes — "e <u> <v> <w>" with
// single ASCII spaces, unsigned decimal endpoints and a weight made of
// digits, '.', 'e', 'E', '+' and '-' — and reports ok only for a valid edge
// of a graph on n vertices. It declines everything else (blank lines,
// comments, other whitespace, signs or overflow in an endpoint, non-finite
// or unparsable weights, invalid edges), so an accepted line yields exactly
// the edge parseEdgeLine returns for it and every error comes from
// parseEdgeLine.
func fastEdgeLine(b []byte, n int) (Edge, bool) {
	if len(b) < 2 || b[0] != 'e' || b[1] != ' ' {
		return Edge{}, false
	}
	b = b[2:]
	u, b, ok := fastEndpoint(b, n)
	if !ok {
		return Edge{}, false
	}
	v, b, ok := fastEndpoint(b, n)
	if !ok || u == v || len(b) == 0 {
		return Edge{}, false
	}
	for _, c := range b {
		if (c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-' {
			return Edge{}, false
		}
	}
	wt, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsInf(wt, 0) {
		return Edge{}, false
	}
	return Edge{U: u, V: v, W: wt}, true
}

// fastEndpoint parses an unsigned decimal below n followed by one space and
// returns the rest of b. More than maxEndpointDigits digits declines, which
// rules out overflow (n never exceeds MaxInt32).
func fastEndpoint(b []byte, n int) (int, []byte, bool) {
	const maxEndpointDigits = 10
	var x int64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i == maxEndpointDigits {
			return 0, nil, false
		}
		x = x*10 + int64(b[i]-'0')
	}
	if i == 0 || i == len(b) || b[i] != ' ' || x >= int64(n) {
		return 0, nil, false
	}
	return int(x), b[i+1:], true
}

// minEdgeLine is the fewest input bytes a text edge line takes: "e u v w"
// with one-character fields, plus its line break.
const minEdgeLine = 8

// Decode reads a graph in the text format produced by Encode.
func Decode(r io.Reader) (*Graph, error) { return decodeText(r, inputSize(r)) }

// decodeText is Decode for an input of size bytes (< 0: unknown). The
// header's edge count sizes the edge list only as far as size can back it.
func decodeText(r io.Reader, size int64) (*Graph, error) {
	t, err := newTextStream(r)
	if err != nil {
		return nil, err
	}
	return t.graph(size)
}

// graph collects the stream's edges into a heap graph; size is as for
// decodeText.
func (t *textStream) graph(size int64) (*Graph, error) {
	g := New(t.n)
	g.Edges = make([]Edge, 0, presize(t.m, minEdgeLine, size))
	for {
		e, err := t.Next()
		if err == io.EOF {
			return g, nil
		}
		if err != nil {
			return nil, err
		}
		g.Edges = append(g.Edges, e)
	}
}

// gzipMagic is the two-byte gzip member header (RFC 1952).
var gzipMagic = [2]byte{0x1f, 0x8b}

// sniff classifies the head bytes of a graph stream.
type streamKind int

const (
	kindText streamKind = iota
	kindGzip
	kindContainer
)

func sniff(head []byte) streamKind {
	if len(head) >= 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		return kindGzip
	}
	if len(head) >= len(ContainerMagic) && string(head[:len(ContainerMagic)]) == string(ContainerMagic[:]) {
		return kindContainer
	}
	return kindText
}

// DecodeAuto reads a graph in any of the three supported encodings — the
// Encode text format, the binary container, or a gzip wrapping of either —
// sniffing the format from the first bytes. This is the one ingest path:
// mrrun -load, mrbench fixtures and mrserve instance uploads all accept all
// formats through it. The result is always a heap graph; use ReadFile or
// OpenMapped on a file path to get the zero-copy mapped form of a
// container.
func DecodeAuto(r io.Reader) (*Graph, error) {
	size := inputSize(r)
	br := bufio.NewReader(r)
	head, _ := br.Peek(len(ContainerMagic))
	switch sniff(head) {
	case kindGzip:
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: gzip: %v", err)
		}
		defer zr.Close()
		g, err := DecodeAuto(zr) // the wrapped stream is sniffed again
		if err != nil {
			return nil, err
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("graph: gzip: %v", err)
		}
		return g, nil
	case kindContainer:
		return readContainer(br, size)
	default:
		return decodeText(br, size)
	}
}

// inputSize returns how many bytes r has left when r can tell without being
// read — an in-memory reader's Len, a regular file's size past its offset —
// and -1 otherwise.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		st, err := r.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return st.Size() - off
	}
	return -1
}

// unsizedPresize caps how many items a decoder allocates ahead of reading
// them when the input size is unknown.
const unsizedPresize = 1 << 12

// presize is the capacity a decoder may allocate for count items of at
// least unit input bytes each before reading them: no more than an input of
// size bytes can hold, or unsizedPresize items when size < 0. A header that
// claims more than the bytes behind it thus costs at most a constant factor
// of the input; the slice grows as items actually arrive.
func presize(count, unit int, size int64) int {
	limit := int64(unsizedPresize)
	if size >= 0 {
		limit = size / int64(unit)
	}
	return int(min(int64(count), limit))
}

// ReadFile loads a graph from path in any supported format. Binary
// containers are opened via OpenVerified — zero-copy, with every checksum
// and slab invariant checked once — so callers automatically get the
// out-of-core form when the file provides it; text and gzip decode into
// the heap.
func ReadFile(path string) (*Graph, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, len(ContainerMagic))
	k, _ := fh.ReadAt(head, 0)
	if sniff(head[:k]) == kindContainer {
		fh.Close()
		return OpenVerified(path)
	}
	defer fh.Close()
	return DecodeAuto(fh)
}

// WriteFile saves g to path in the format the extension selects:
//
//	.mrg          binary container (mappable; OpenMapped serves it)
//	.gz           gzip-wrapped — applied to the inner extension's format
//	.mrgz         refused: the compressed container is no longer written
//	anything else Encode text
func WriteFile(path string, g *Graph) error {
	inner := strings.TrimSuffix(path, ".gz")
	encode := Encode
	switch {
	case strings.HasSuffix(inner, ".mrg"):
		encode = EncodeContainer
	case strings.HasSuffix(inner, ".mrgz"):
		return fmt.Errorf("graph: %s: compressed .mrgz containers are no longer written; use .mrg, or .mrg.gz for a smaller file", path)
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(fh)
		if err := encode(zw, g); err != nil {
			fh.Close()
			return err
		}
		if err := zw.Close(); err != nil {
			fh.Close()
			return err
		}
	} else if err := encode(fh, g); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// ConvertFile rewrites the graph at src — any format ReadFile accepts — as
// a binary container at dst; the output is byte-identical to
// WriteContainerFile(dst, ReadFile(src)). A container source is opened with
// every checksum and slab invariant checked (through OpenVerified's
// mapping) and re-encoded. A text source, plain or gzipped, whose container
// is at most 256 MiB (about 4.7 M edges) decodes to the heap and is written
// with WriteContainerFile, peaking at about the container's size in memory;
// a larger one streams through BuildExternal under cfg, so its peak memory
// stays at the chunk budget. A nil cfg uses the defaults.
func ConvertFile(src, dst string, cfg *ExtBuildConfig) error {
	fh, err := os.Open(src)
	if err != nil {
		return err
	}
	defer fh.Close()
	head := make([]byte, len(ContainerMagic))
	k, _ := fh.ReadAt(head, 0)
	kind := sniff(head[:k])
	if kind == kindContainer {
		g, err := OpenVerified(src)
		if err != nil {
			return err
		}
		defer g.Close()
		return WriteContainerFile(dst, g)
	}

	size := inputSize(fh)
	r := bufio.NewReaderSize(fh, 1<<16)
	if kind == kindGzip {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return fmt.Errorf("graph: gzip: %v", err)
		}
		defer zr.Close()
		r, size = bufio.NewReaderSize(zr, 1<<16), -1
		if inner, _ := r.Peek(len(ContainerMagic)); sniff(inner) != kindText {
			g, err := DecodeAuto(r)
			if err != nil {
				return err
			}
			return WriteContainerFile(dst, g)
		}
	}
	t, err := newTextStream(r)
	if err != nil {
		return err
	}
	if int64(rawLayout(t.n, t.m).totalSize()) > convertInMemoryBytes {
		return t.buildExternal(dst, cfg)
	}
	g, err := t.graph(size)
	if err != nil {
		return err
	}
	return WriteContainerFile(dst, g)
}

// convertInMemoryBytes is the largest container ConvertFile builds from text
// in memory. A variable only so tests can send small graphs down the
// external path.
var convertInMemoryBytes int64 = 1 << 28

// buildExternal streams the rest of t through BuildExternal into dst and
// then checks that the input holds no edge past the header's count, as
// Decode does. On any error dst is removed.
func (t *textStream) buildExternal(dst string, cfg *ExtBuildConfig) error {
	err := BuildExternal(dst, t.n, t.m, t.Next, cfg)
	if err == nil {
		if _, err = t.Next(); err == io.EOF {
			return nil
		}
	}
	os.Remove(dst)
	return err
}
