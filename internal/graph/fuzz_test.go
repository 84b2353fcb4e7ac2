package graph

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// allocBytes returns how many heap bytes f allocated.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedContainer returns a bare container prologue — header, section table
// and a valid header checksum, no section bodies — claiming n vertices, m
// edges and the given flag word.
func forgedContainer(n, m uint64, flags uint32) []byte {
	b := rawLayout(int(n), int(m)).marshal()
	binary.LittleEndian.PutUint32(b[24:], flags)
	return resealHeader(b)
}

// boundInputs are headers that claim far more than the bytes behind them.
func boundInputs() map[string][]byte {
	return map[string][]byte{
		"text":  []byte("graph 10 1073741823\n"),
		"flags": forgedContainer(10, math.MaxInt32/2, flagCompressedV1),
		"raw":   forgedContainer(math.MaxInt32, math.MaxInt32/2, 0),
		// An unsized stream: the container reader cannot see its length.
		"raw.gz": gzipBytes(forgedContainer(math.MaxInt32, math.MaxInt32/2, 0)),
	}
}

// TestDecodeBelievesHeadersOnlyAsFarAsBytes: a header claiming ~10^9 edges
// over a few bytes of input is an error, not a multi-gigabyte allocation —
// whether or not the decoder can see the input's length.
func TestDecodeBelievesHeadersOnlyAsFarAsBytes(t *testing.T) {
	for name, data := range boundInputs() {
		for _, sized := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(data)
			if !sized {
				r = io.MultiReader(r) // hides Len
			}
			var err error
			alloc := allocBytes(func() { _, err = DecodeAuto(r) })
			if err == nil {
				t.Errorf("%s (sized=%v): forged header decoded without error", name, sized)
			}
			if alloc > 1<<20 {
				t.Errorf("%s (sized=%v): decoding %d bytes allocated %d bytes", name, sized, len(data), alloc)
			}
		}
	}
}

// goldenEncodings returns the golden fixture in every encoding DecodeAuto
// reads: container, text, and gzip of each.
func goldenEncodings(t testing.TB) [][]byte {
	raw, err := os.ReadFile("testdata/golden.mrg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadContainer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	return [][]byte{raw, text.Bytes(), gzipBytes(raw), gzipBytes(text.Bytes())}
}

// gzipBytes returns plain wrapped in gzip.
func gzipBytes(plain []byte) []byte {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(plain)
	zw.Close()
	return z.Bytes()
}

// inflated returns data with every gzip layer removed (up to a cap): the
// bytes a decoder actually reads.
func inflated(data []byte) []byte {
	for sniff(data) == kindGzip {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return data
		}
		inner, _ := io.ReadAll(io.LimitReader(zr, 64<<20))
		data = inner
	}
	return data
}

// checkDecoded is the fuzz oracle: a decoder that returns no error must
// return a graph the kernel can trust — dimensions inside the CSR bounds,
// every edge in range and finite, a loaded CSR index that covers it — and
// that survives a text round trip unchanged.
func checkDecoded(t *testing.T, g *Graph) {
	t.Helper()
	if err := checkCSRBounds(g.N, g.M()); g.N < 0 || err != nil {
		t.Fatalf("decoded dimensions n=%d m=%d: %v", g.N, g.M(), err)
	}
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N || e.U == e.V ||
			math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			t.Fatalf("decoded edge %d = %+v invalid for n=%d", i, e, g.N)
		}
	}
	if g.built {
		// ReadContainer checked the weight section and dropped the slab:
		// refill it from the edge list so the other slab checks run.
		g.buildWeights()
		if err := g.validateSlabs(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	again, err := Decode(&buf)
	if err != nil {
		t.Fatalf("re-decoding the text encoding: %v", err)
	}
	if again.N != g.N || again.M() != g.M() {
		t.Fatalf("text round trip changed dimensions: (%d,%d) -> (%d,%d)", g.N, g.M(), again.N, again.M())
	}
	for i := range g.Edges {
		if again.Edges[i] != g.Edges[i] {
			t.Fatalf("text round trip changed edge %d: %+v -> %+v", i, g.Edges[i], again.Edges[i])
		}
	}
}

// fuzzDecode runs one decoder over data: it must error or pass
// checkDecoded, allocating no more than a constant factor of the bytes it
// reads (1 MB of fixed buffers aside).
func fuzzDecode(t *testing.T, data []byte, decode func(io.Reader) (*Graph, error)) {
	var g *Graph
	var err error
	alloc := allocBytes(func() { g, err = decode(bytes.NewReader(data)) })
	if bound := uint64(1<<20 + 64*len(inflated(data))); alloc > bound {
		t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), alloc, bound)
	}
	if err == nil {
		checkDecoded(t, g)
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(goldenEncodings(f)[1])
	f.Add(boundInputs()["text"])
	f.Add([]byte("graph 3 2\n# comment\n\ne 0 1 2.5\ne 1 2 -1\n"))
	f.Add([]byte("graph 2147483647 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecode(t, data, Decode) })
}

func FuzzDecodeAuto(f *testing.F) {
	for _, data := range goldenEncodings(f) {
		f.Add(data)
	}
	for _, data := range boundInputs() {
		f.Add(data)
	}
	// A one-edge raw container whose section bodies are all zero bytes.
	tiny := forgedContainer(2, 1, 0)
	f.Add(append(tiny, make([]byte, rawLayout(2, 1).totalSize()-uint64(len(tiny)))...))
	f.Add(binary.LittleEndian.AppendUint64(ContainerMagic[:], 3))
	// The retired compressed layout, plain and gzipped: refused, but its
	// mutations probe the flags and section-count checks.
	mrgz, err := os.ReadFile(goldenMrgz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mrgz)
	f.Add(gzipBytes(mrgz))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzDecode(t, data, DecodeAuto) })
}

// FuzzTextLine is the differential oracle for the text parser's fast path:
// on any line, fastEdgeLine either declines or returns exactly the edge
// parseEdgeLine returns for the trimmed line, bit for bit, without error.
func FuzzTextLine(f *testing.F) {
	golden := strings.Split(string(goldenEncodings(f)[1]), "\n")
	for _, line := range golden[:min(len(golden), 32)] {
		f.Add(line, 1000)
	}
	for _, line := range []string{
		"e 0 1 -0", "e 0 1 1e-320", "e 0 1 +1", "e +1 2 1", "e 0 1 1.",
		"e 0\t1 1", "e 0 1 1\r", "e 0 1 1 ", "e 0 1 1", " e 0 1 1",
		"e 0 1 1 ", "e 00 1 2", "e 12345678901 1 1", "e 4294967297 1 1",
		"e 0 1 1e400", "e 0 1 1e-400", "e 0 1 0x1p-2", "e 0 1 1_0",
		"e 0 1 inf", "e 0 1 NaN", "e 1 1 1", "e 0 1000 1", "e 0 1", "e  0 1 1",
		"# e 0 1 1", "",
	} {
		f.Add(line, 1000)
	}
	f.Add("e 2147483646 0 1", math.MaxInt32)
	f.Fuzz(func(t *testing.T, line string, n int) {
		if n < 0 || n > math.MaxInt32 {
			return
		}
		fast, ok := fastEdgeLine([]byte(line), n)
		if !ok {
			return
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			t.Fatalf("fast path accepted a blank or comment line %q", line)
		}
		want, err := parseEdgeLine(trimmed, n)
		if err != nil {
			t.Fatalf("fast path accepted %q as %+v; the general parser says %v", line, fast, err)
		}
		if fast.U != want.U || fast.V != want.V || math.Float64bits(fast.W) != math.Float64bits(want.W) {
			t.Fatalf("line %q: fast path %+v, general parser %+v", line, fast, want)
		}
	})
}
