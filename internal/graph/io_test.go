package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(90)
	g := GNM(30, 80, r)
	g.AssignUniformWeights(r, 0.001, 1e6)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != g.N || h.M() != g.M() {
		t.Fatalf("dims: got (%d,%d), want (%d,%d)", h.N, h.M(), g.N, g.M())
	}
	for i := range g.Edges {
		if g.Edges[i] != h.Edges[i] {
			t.Fatalf("edge %d: got %+v, want %+v (weights must round-trip exactly)",
				i, h.Edges[i], g.Edges[i])
		}
	}
}

func TestDecodeCommentsAndBlanks(t *testing.T) {
	in := "graph 3 2\n# a comment\ne 0 1 1.5\n\ne 1 2 2.5\n"
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Edges[1].W != 2.5 {
		t.Fatalf("decoded %+v", g.Edges)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "graf 3 2\n",
		"negative dims": "graph -1 0\n",
		"bad edge":      "graph 3 1\nx 0 1 1\n",
		"bad endpoint":  "graph 3 1\ne a 1 1\n",
		"bad weight":    "graph 3 1\ne 0 1 zzz\n",
		"out of range":  "graph 3 1\ne 0 5 1\n",
		"self loop":     "graph 3 1\ne 1 1 1\n",
		"count miss":    "graph 3 5\ne 0 1 1\n",
		"excess edges":  "graph 3 1\ne 0 1 1\ne 1 2 1\n",
		"negative u":    "graph 3 1\ne -1 1 1\n",
		"nan weight":    "graph 3 1\ne 0 1 NaN\n",
		"+inf weight":   "graph 3 1\ne 0 1 +Inf\n",
		"-inf weight":   "graph 3 1\ne 0 1 -Inf\n",
		"inf weight":    "graph 3 1\ne 0 1 Infinity\n",
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	r := rng.New(7)
	g := GNM(40, 120, r)
	g.AssignUniformWeights(r, 0.5, 50)

	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.txt.gz"} {
		path := dir + "/" + name
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.N != g.N || h.M() != g.M() {
			t.Fatalf("%s: dims (%d,%d), want (%d,%d)", name, h.N, h.M(), g.N, g.M())
		}
		for i := range g.Edges {
			if g.Edges[i] != h.Edges[i] {
				t.Fatalf("%s: edge %d: got %+v, want %+v", name, i, h.Edges[i], g.Edges[i])
			}
		}
	}

	// The .gz file really is gzip: sniffable magic, and decodes through
	// DecodeAuto from a plain reader too.
	raw, err := os.ReadFile(dir + "/g.txt.gz")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("g.txt.gz does not start with the gzip magic: % x", raw[:2])
	}
	h, err := DecodeAuto(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Fatalf("DecodeAuto(gzip bytes): m=%d, want %d", h.M(), g.M())
	}
}

func TestDecodeAutoPlain(t *testing.T) {
	g, err := DecodeAuto(strings.NewReader("graph 2 1\ne 0 1 3.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.Edges[0].W != 3.25 {
		t.Fatalf("decoded %+v", g.Edges)
	}
}

func TestDecodeAutoTruncatedGzip(t *testing.T) {
	if _, err := DecodeAuto(bytes.NewReader([]byte{0x1f, 0x8b})); err == nil {
		t.Fatal("expected error for truncated gzip input")
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, New(4)); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M() != 0 {
		t.Fatal("empty graph round trip")
	}
}

func TestCanonicalEncoding(t *testing.T) {
	// Two graphs with the same edge set in different orders encode equally
	// after SortEdges.
	a := New(4)
	a.AddEdge(2, 3, 1)
	a.AddEdge(0, 1, 1)
	b := New(4)
	b.AddEdge(1, 0, 1)
	b.AddEdge(3, 2, 1)
	a.SortEdges()
	b.SortEdges()
	var ba, bb bytes.Buffer
	if err := Encode(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&bb, b); err != nil {
		t.Fatal(err)
	}
	sa, sb := ba.String(), bb.String()
	// Canonical up to endpoint orientation within an edge.
	if len(sa) != len(sb) {
		t.Fatalf("canonical encodings differ:\n%s\nvs\n%s", sa, sb)
	}
}

// convertPaths calls f for both ways ConvertFile builds from text: in
// memory (every test graph fits the budget), then through the external
// sort, forced by a negative budget, with runs of chunk half-edges.
func convertPaths(dir string, chunk int, f func(path string, cfg *ExtBuildConfig)) {
	f("in-memory", nil)
	defer func(budget int64) { convertInMemoryBytes = budget }(convertInMemoryBytes)
	convertInMemoryBytes = -1
	f("external", &ExtBuildConfig{ChunkEdges: chunk, TmpDir: dir})
}

// TestConvertFile checks every source format converts to the same container
// bytes as writing the in-heap graph directly, on both text paths, and that
// both paths refuse a text with more or fewer edges than its header
// promises. The second error's wording tells which path ran.
func TestConvertFile(t *testing.T) {
	r := rng.New(7)
	g := GNM(300, 1500, r)
	g.AssignUniformWeights(r, 1, 10)
	dir := t.TempDir()

	want := filepath.Join(dir, "want.mrg")
	if err := WriteContainerFile(want, g); err != nil {
		t.Fatal(err)
	}
	wantB, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]string{"excess": "graph 3 1\ne 0 1 1\ne 1 2 1\n", "short": "graph 3 2\ne 0 1 1\n"}
	for name, text := range bad {
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	badErr := map[string]map[string]string{
		"in-memory": {"excess": "found more", "short": "header promises 2 edges, found 1"},
		"external":  {"excess": "found more", "short": "edge stream ended at edge 1 of 2"},
	}

	convertPaths(dir, 101, func(path string, cfg *ExtBuildConfig) {
		for _, src := range []string{"g.txt", "g.txt.gz", "g.mrg", "g.mrg.gz"} {
			srcPath := filepath.Join(dir, src)
			if err := WriteFile(srcPath, g); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			dst := filepath.Join(dir, "conv-"+src+".mrg")
			if err := ConvertFile(srcPath, dst, cfg); err != nil {
				t.Fatalf("%s, %s: %v", path, src, err)
			}
			gotB, err := os.ReadFile(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantB, gotB) {
				t.Fatalf("%s, %s: converted container differs from direct encoding", path, src)
			}
		}
		for name, want := range badErr[path] {
			dst := filepath.Join(dir, name+".mrg")
			err := ConvertFile(filepath.Join(dir, name+".txt"), dst, cfg)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: converting the %s text: %v, want an error containing %q", path, name, err, want)
			}
			if _, err := os.Stat(dst); !os.IsNotExist(err) {
				t.Fatalf("%s: a failed conversion left %s behind: %v", path, dst, err)
			}
		}
	})
}

// corruptNeighbour writes a 120-vertex raw container to dir and flips the
// high byte of adjNbr[0], so the mapped Neighbors(0)[0] reads 2^30 past a
// real vertex id while the header and its checksum stay intact.
func corruptNeighbour(t *testing.T, dir string) string {
	t.Helper()
	r := rng.New(5)
	g := GNM(120, 600, r)
	g.AssignUniformWeights(r, 1, 10)
	path := filepath.Join(dir, "bad.mrg")
	if err := WriteContainerFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[rawLayout(g.N, g.M()).sections[1].off+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptMappedContainerRejected: a raw container whose section body is
// corrupt still opens through the unverified OpenMapped, but ReadFile
// (mrrun -load, mrserve -preload) and ConvertFile refuse it instead of
// serving, or re-checksumming, a neighbour id out of range.
func TestCorruptMappedContainerRejected(t *testing.T) {
	dir := t.TempDir()
	path := corruptNeighbour(t, dir)
	if g, err := OpenMapped(path); err != nil {
		t.Fatalf("OpenMapped checks only the header, yet failed: %v", err)
	} else {
		if nb := g.Neighbors(0)[0]; nb < int32(g.N) {
			t.Fatalf("corruption did not reach the mapping: Neighbors(0)[0] = %d", nb)
		}
		g.Close()
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ReadFile of a corrupt container: %v, want a checksum mismatch", err)
	}
	if _, err := OpenVerified(path); err == nil {
		t.Fatal("OpenVerified accepted a corrupt container")
	}
	dst := filepath.Join(dir, "out.mrg")
	if err := ConvertFile(path, dst, nil); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("ConvertFile of a corrupt container: %v, want a checksum mismatch", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("ConvertFile left %s behind for a corrupt source: %v", dst, err)
	}
}

// TestDecodeTextAllocsBounded pins the text parser's allocations: decoding
// the serve graph's text (~300 000 lines) allocates a fixed handful of
// buffers, not one or more per line.
func TestDecodeTextAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var text bytes.Buffer
	if err := Encode(&text, serveGraph()); err != nil {
		t.Fatal(err)
	}
	data := text.Bytes()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("decoding %d bytes of text made %.0f allocations, want <= 64", len(data), allocs)
	}
}

// TestEncodeAllocsConstant: Encode's allocations do not grow with the graph.
func TestEncodeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := rng.New(3)
	small, large := GNM(10, 20, r), GNM(2000, 40000, r)
	large.AssignUniformWeights(r, 1, 100)
	count := func(g *Graph) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := Encode(io.Discard, g); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := count(small), count(large); s != l || l > 4 {
		t.Fatalf("Encode allocations: %.0f for 20 edges, %.0f for 40000, want equal and <= 4", s, l)
	}
}

// BenchmarkEncodeText, BenchmarkDecodeText and BenchmarkConvertText time
// the three codec layers of the serve workload's set-up on its graph.
func BenchmarkEncodeText(b *testing.B) {
	g := serveGraph()
	var text bytes.Buffer
	if err := Encode(&text, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeText(b *testing.B) {
	var text bytes.Buffer
	if err := Encode(&text, serveGraph()); err != nil {
		b.Fatal(err)
	}
	data := text.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvertText(b *testing.B) {
	dir := b.TempDir()
	src, dst := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.mrg")
	if err := WriteFile(src, serveGraph()); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConvertFile(src, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenVerifiedChecksSlabs: a container that lies consistently — its
// adjacency slabs edited, with every checksum recomputed to match — gets
// past the checksums and is refused by the slab check of ReadContainer and
// OpenVerified. Drivers read the adjacency beside the edge list, so one
// that is not what Build makes from the edges would run differently from
// the text upload of the same edges, which hashes to the same instance id.
func TestOpenVerifiedChecksSlabs(t *testing.T) {
	g := New(4) // path 0-1-2-3; vertex 1's entries are k = 1 (edge 0), 2 (edge 1)
	g.Edges = []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}}
	var buf bytes.Buffer
	if err := EncodeContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	h, err := parseHeaderBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	swap32 := func(s []byte, i, j int) {
		a, b := le.Uint32(s[4*i:]), le.Uint32(s[4*j:])
		le.PutUint32(s[4*i:], b)
		le.PutUint32(s[4*j:], a)
	}
	cases := []struct {
		name   string
		want   string // in the error, when set
		mutate func(sec func(kind uint32) []byte)
	}{
		{"neighbour-out-of-range", "out of range", func(sec func(uint32) []byte) {
			le.PutUint32(sec(secAdjNbr), 1<<30)
		}},
		{"descending", "", func(sec func(uint32) []byte) {
			swap32(sec(secAdjNbr), 1, 2)
			swap32(sec(secAdjEdge), 1, 2)
			w := sec(secAdjW)
			a, b := le.Uint64(w[8:]), le.Uint64(w[16:])
			le.PutUint64(w[8:], b)
			le.PutUint64(w[16:], a)
		}},
		{"duplicate-edge", "", func(sec func(uint32) []byte) { // edge 1 left out at vertex 1
			le.PutUint32(sec(secAdjEdge)[8:], 0)
			le.PutUint32(sec(secAdjNbr)[8:], 0)
			le.PutUint64(sec(secAdjW)[16:], math.Float64bits(1))
		}},
		{"foreign-edge", "", func(sec func(uint32) []byte) { le.PutUint32(sec(secAdjEdge), 2) }},
		{"wrong-neighbour", "", func(sec func(uint32) []byte) { le.PutUint32(sec(secAdjNbr)[4:], 2) }},
		{"wrong-weight", "", func(sec func(uint32) []byte) {
			le.PutUint64(sec(secAdjW)[8:], math.Float64bits(5))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, hb := append([]byte(nil), good...), h
			sec := func(kind uint32) []byte {
				s := hb.sections[kind-1]
				return data[s.off : s.off+s.len]
			}
			tc.mutate(sec)
			for i := range hb.sections {
				hb.sections[i].crc = crc32.Checksum(sec(uint32(i+1)), castagnoli)
			}
			copy(data, hb.marshal())
			path := filepath.Join(t.TempDir(), "lie.mrg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := VerifyContainer(path); err != nil {
				t.Fatalf("the forged container should pass its checksums: %v", err)
			}
			if _, err := ReadContainer(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadContainer of a container whose slabs lie: %v, want an error containing %q", err, tc.want)
			}
			if _, err := OpenVerified(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenVerified of a container whose slabs lie: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
