package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// testGraph builds a moderately sized weighted random graph.
func testGraph(t testing.TB) *Graph {
	t.Helper()
	r := rng.New(17)
	g := GNM(500, 3000, r)
	g.AssignUniformWeights(r, 1, 100)
	return g
}

// graphsEquivalent compares two graphs on every kernel accessor.
func graphsEquivalent(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.N != want.N || got.M() != want.M() {
		t.Fatalf("dimensions differ: got (%d,%d) want (%d,%d)", got.N, got.M(), want.N, want.M())
	}
	if !edgesEqual(got.Edges, want.Edges) {
		t.Fatal("edge lists differ")
	}
	for v := 0; v < want.N; v++ {
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("v=%d: degree %d != %d", v, got.Degree(v), want.Degree(v))
		}
		gn, gw := got.NeighborsW(v)
		wn, ww := want.NeighborsW(v)
		gi, wi := got.IncidentEdges(v), want.IncidentEdges(v)
		for k := range wn {
			if gn[k] != wn[k] || gw[k] != ww[k] || gi[k] != wi[k] {
				t.Fatalf("v=%d slot %d: (%d,%g,%d) != (%d,%g,%d)",
					v, k, gn[k], gw[k], gi[k], wn[k], ww[k], wi[k])
			}
		}
	}
}

// TestContainerRoundTrip checks encode → decode and encode → open-mapped
// against the in-heap graph on all accessors.
func TestContainerRoundTrip(t *testing.T) {
	g := testGraph(t)

	var raw bytes.Buffer
	if err := EncodeContainer(&raw, g); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadContainer(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	graphsEquivalent(t, g, dec)

	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Fatal("OpenMapped graph does not report Mapped")
	}
	graphsEquivalent(t, g, mapped)
	if err := VerifyContainer(path); err != nil {
		t.Fatalf("VerifyContainer: %v", err)
	}
}

// TestContainerRejectsCorrupt checks that malformed containers are rejected
// by the sequential reader, both mapped openers and the offline verifier.
// The forged tables keep every section's bytes consistent with their entry,
// so a reader that interpreted the table instead of checking it against
// rawLayout would accept them.
func TestContainerRejectsCorrupt(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := EncodeContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	h, err := parseHeaderBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	nbrSec := h.sections[secAdjNbr-1]
	table := func() []section { return append([]section(nil), h.sections[:]...) }

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		mapped bool // OpenMapped must also reject it
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"truncated-header", func(b []byte) []byte { return b[:16] }, true},
		{"truncated-table", func(b []byte) []byte { return b[:headerSize+10] }, true},
		{"truncated-section", func(b []byte) []byte { return b[:len(b)-9] }, true},
		{"header-bit-flip", func(b []byte) []byte { b[9] ^= 1; return b }, true}, // n changes, CRC catches it
		{"section-checksum", func(b []byte) []byte { b[nbrSec.off] ^= 1; return b }, false},
		{"zero-sections", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[28:], 0)
			return b
		}, true},
		{"section-out-of-bounds", func(b []byte) []byte {
			// Grow a section length; the header CRC must be recomputed so
			// only the layout check can catch it.
			binary.LittleEndian.PutUint64(b[headerSize+16:], uint64(len(b))*2)
			return resealHeader(b)
		}, true},
		{"nonzero-flags", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], flagCompressedV1)
			return resealHeader(b)
		}, true},
		{"sixth-section", func([]byte) []byte {
			t := table()
			for i := range t {
				t[i].off += sectionSize
			}
			t = append(t, section{kind: numSections + 1, off: align8(h.totalSize() + sectionSize), len: 8})
			return forgeTable(good, h, t)
		}, true},
		{"sections-swapped", func([]byte) []byte {
			t := table()
			t[1], t[2] = t[2], t[1]
			return forgeTable(good, h, t)
		}, true},
		{"offset-moved", func([]byte) []byte {
			t := table()
			t[secEdges-1].off += 8
			return forgeTable(good, h, t)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(append([]byte(nil), good...))
			if _, err := ReadContainer(bytes.NewReader(bad)); err == nil {
				t.Fatal("ReadContainer accepted a corrupt container")
			}
			path := filepath.Join(t.TempDir(), "bad.mrg")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.mapped {
				if _, err := OpenMapped(path); err == nil {
					t.Fatal("OpenMapped accepted a corrupt container")
				}
			}
			if _, err := OpenVerified(path); err == nil {
				t.Fatal("OpenVerified accepted a corrupt container")
			}
			// VerifyContainer checks payload checksums too, so it must
			// reject every corruption in the table.
			if err := VerifyContainer(path); err == nil {
				t.Fatal("VerifyContainer accepted a corrupt container")
			}
		})
	}
}

// flagCompressedV1 is the flag word of the retired delta-varint container.
const flagCompressedV1 = 1

// resealHeader recomputes the header checksum of a container's prologue as
// written by the one layout (five table entries), so only the check that a
// test targets can refuse the edited header.
func resealHeader(b []byte) []byte {
	crcOff := prologueLen - headerCRCLen
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.Checksum(b[:crcOff], castagnoli))
	return b
}

// forgeTable returns a container with good's dimensions, the given table
// and a valid header checksum. Each entry of a kind good has carries that
// section's bytes and checksum from good at the entry's offset; other bytes
// are zero.
func forgeTable(good []byte, h containerHeader, table []section) []byte {
	le := binary.LittleEndian
	plen := headerSize + len(table)*sectionSize + headerCRCLen
	end := uint64(plen)
	for _, s := range table {
		end = max(end, s.off+s.len)
	}
	b := make([]byte, end)
	copy(b, good[:headerSize])
	le.PutUint32(b[28:], uint32(len(table)))
	for i, s := range table {
		if s.kind >= 1 && s.kind <= numSections {
			src := h.sections[s.kind-1]
			copy(b[s.off:s.off+s.len], good[src.off:src.off+src.len])
			s.crc = src.crc
		}
		e := b[headerSize+i*sectionSize:]
		le.PutUint32(e, s.kind)
		le.PutUint64(e[8:], s.off)
		le.PutUint64(e[16:], s.len)
		le.PutUint32(e[24:], s.crc)
	}
	crcOff := plen - headerCRCLen
	le.PutUint32(b[crcOff:], crc32.Checksum(b[:crcOff], castagnoli))
	return b
}

// TestWriteFileExtensions checks the extension-driven format selection and
// that ReadFile transparently maps raw containers.
func TestWriteFileExtensions(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		mapped bool
	}{
		{"g.txt", false},
		{"g.txt.gz", false},
		{"g.mrg", true},
		{"g.mrg.gz", false}, // gzip-wrapped container decodes to the heap
	} {
		path := filepath.Join(dir, tc.name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Mapped() != tc.mapped {
			t.Fatalf("%s: Mapped()=%v, want %v", tc.name, got.Mapped(), tc.mapped)
		}
		graphsEquivalent(t, g, got)
		got.Close()
	}
}

// TestMappedGraphImmutable checks the in-place mutators panic with a clear
// error instead of faulting on the read-only pages, and that Clone yields a
// mutable heap copy.
func TestMappedGraphImmutable(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := WriteContainerFile(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	for name, mutate := range map[string]func(){
		"AddEdge":              func() { mapped.AddEdge(0, 1, 1) },
		"AssignUnitWeights":    func() { mapped.AssignUnitWeights() },
		"AssignUniformWeights": func() { mapped.AssignUniformWeights(rng.New(1), 0, 1) },
		"SortEdges":            func() { mapped.SortEdges() },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic on a mapped graph", name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "mapped") {
					t.Fatalf("%s panicked with %v, want a mapped-graph error", name, r)
				}
			}()
			mutate()
		}()
	}

	clone := mapped.Clone()
	if clone.Mapped() {
		t.Fatal("Clone of a mapped graph is still mapped")
	}
	clone.AssignUnitWeights() // must not panic
	if clone.M() != g.M() {
		t.Fatal("clone lost edges")
	}
}

// TestCSRBoundsRejected checks the overflow hardening: dimensions whose
// slab offsets exceed int32 are rejected with a clear error by the decode
// paths and with a panic carrying the same error by Build.
func TestCSRBoundsRejected(t *testing.T) {
	big := int64(math.MaxInt32)/2 + 1 // 2m overflows int32
	text := "graph 10 " + formatInt(big) + "\n"
	if _, err := Decode(strings.NewReader(text)); err == nil ||
		!strings.Contains(err.Error(), "CSR kernel") {
		t.Fatalf("Decode accepted 2m > MaxInt32: %v", err)
	}
	hugeN := "graph " + formatInt(int64(math.MaxInt32)+1) + " 0\n"
	if _, err := Decode(strings.NewReader(hugeN)); err == nil ||
		!strings.Contains(err.Error(), "CSR kernel") {
		t.Fatalf("Decode accepted n > MaxInt32: %v", err)
	}

	if err := BuildExternal(filepath.Join(t.TempDir(), "x.mrg"), 10, int(big),
		func() (Edge, error) { return Edge{}, nil }, nil); err == nil ||
		!strings.Contains(err.Error(), "CSR kernel") {
		t.Fatalf("BuildExternal accepted 2m > MaxInt32: %v", err)
	}

	// A crafted container header promising overflowing dimensions must be
	// rejected before any allocation.
	g := Path(3)
	var buf bytes.Buffer
	if err := EncodeContainer(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[16:], uint64(big)) // m
	if _, err := ReadContainer(bytes.NewReader(resealHeader(b))); err == nil ||
		!strings.Contains(err.Error(), "CSR kernel") {
		t.Fatalf("ReadContainer accepted an overflowing header: %v", err)
	}

	// Build panics with the same clear error. A vertex count past MaxInt32
	// does not fit a 32-bit int, so there is nothing to build there.
	if strconv.IntSize < 64 {
		return
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build did not panic on overflowing dimensions")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "CSR kernel") {
			t.Fatalf("Build panicked with %v, want the CSR bounds error", r)
		}
	}()
	n := int64(math.MaxInt32) + 1
	huge := &Graph{N: int(n)}
	huge.Build()
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// TestGoldenContainer pins the on-disk format: the committed fixture must
// decode to the expected graph and re-encode byte-identically.
func TestGoldenContainer(t *testing.T) {
	const golden = "testdata/golden.mrg"
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with go generate or scripts): %v", err)
	}
	g, err := ReadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden container no longer decodes: %v", err)
	}
	want := goldenGraph()
	graphsEquivalent(t, want, g)

	var re bytes.Buffer
	if err := EncodeContainer(&re, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), data) {
		t.Fatal("re-encoding the golden graph changed the bytes: the on-disk format drifted")
	}

	mapped, err := OpenMapped(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	graphsEquivalent(t, want, mapped)
}

// TestCopyFallbackMatchesViews runs the byte-order fallback of big-endian
// and 32-bit hosts (loadSections copying every section out field by field)
// on whatever host runs the tests: on the golden fixture and on a Density
// graph's container it must give exactly the slabs and edge list that
// containerGraph's own loading gives, views on a 64-bit little-endian host.
func TestCopyFallbackMatchesViews(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.mrg")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	g := Density(2000, 0.3, r)
	g.AssignUniformWeights(r, 1, 100)
	var dense bytes.Buffer
	if err := EncodeContainer(&dense, g); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"golden": golden, "density": dense.Bytes()} {
		h, err := parseHeaderBytes(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := alignedBytes(uint64(len(raw)))
		copy(data, raw)
		sec := func(kind int) []byte {
			s := h.sections[kind-1]
			return data[s.off : s.off+s.len]
		}
		var views, copies Graph
		views.loadSections(sec, hostLittleEndian, edgeLayoutMatches)
		copies.loadSections(sec, false, false)
		if !slices.Equal(views.adjStart, copies.adjStart) || !slices.Equal(views.adjNbr, copies.adjNbr) ||
			!slices.Equal(views.adjEdge, copies.adjEdge) {
			t.Errorf("%s: copied int32 slabs differ from the views", name)
		}
		if len(views.adjW) != len(copies.adjW) || len(views.adjW) != 2*int(h.m) {
			t.Fatalf("%s: weight slabs of %d and %d entries, want %d", name, len(views.adjW), len(copies.adjW), 2*h.m)
		}
		for k := range views.adjW {
			if math.Float64bits(views.adjW[k]) != math.Float64bits(copies.adjW[k]) {
				t.Fatalf("%s: copied weight %d is %g, the view %g", name, k, copies.adjW[k], views.adjW[k])
			}
		}
		if len(views.Edges) != int(h.m) || !edgesEqual(views.Edges, copies.Edges) {
			t.Errorf("%s: copied edge list differs from the view", name)
		}
	}
}

// goldenMrgz is a container in the retired delta-varint layout: golden.mrg's
// graph, written by the compressed encoder this package used to have, and
// its SHA-256.
const (
	goldenMrgz       = "testdata/golden.mrgz"
	goldenMrgzSHA256 = "261c02171f43515c5ba122522ee3b5c3b442b5f81a3b01b1473a8c2e88e8a913"
)

// TestCompressedContainerRefused: every reader refuses the compressed
// fixture with the flags error, ConvertFile writes nothing for it, and
// WriteFile refuses the .mrgz extension instead of writing text under it.
func TestCompressedContainerRefused(t *testing.T) {
	data, err := os.ReadFile(goldenMrgz)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != goldenMrgzSHA256 {
		t.Fatalf("%s has SHA-256 %s, want %s", goldenMrgz, got, goldenMrgzSHA256)
	}
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.mrg")
	const flagsErr = "compressed .mrgz containers are no longer read"
	for name, read := range map[string]func() error{
		"ReadContainer":   func() error { _, err := ReadContainer(bytes.NewReader(data)); return err },
		"DecodeAuto":      func() error { _, err := DecodeAuto(bytes.NewReader(data)); return err },
		"ReadFile":        func() error { _, err := ReadFile(goldenMrgz); return err },
		"OpenMapped":      func() error { _, err := OpenMapped(goldenMrgz); return err },
		"OpenVerified":    func() error { _, err := OpenVerified(goldenMrgz); return err },
		"VerifyContainer": func() error { return VerifyContainer(goldenMrgz) },
		"ConvertFile":     func() error { return ConvertFile(goldenMrgz, dst, nil) },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), flagsErr) {
			t.Errorf("%s of the .mrgz fixture: %v, want an error containing %q", name, err, flagsErr)
		}
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("ConvertFile left %s behind for a .mrgz source: %v", dst, err)
	}
	out := filepath.Join(dir, "x.mrgz")
	if err := WriteFile(out, goldenGraph()); err == nil {
		t.Error("WriteFile wrote a .mrgz file")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused WriteFile left %s behind: %v", out, err)
	}
}

// goldenGraph is the fixture's content; regenerating the fixture must use
// exactly this graph (see TestGoldenContainer and scripts in CI).
func goldenGraph() *Graph {
	r := rng.New(20180617)
	g := GNM(64, 256, r)
	g.AssignUniformWeights(r, 1, 100)
	return g
}

// BenchmarkMmapScan is BenchmarkNeighborScanCSR over the slabs of the same
// graph opened as a mapped container: the two must stay within ~1.5x of each
// other (the views are the same int32 slices, so the only possible gap is
// page-fault noise on first touch).
func BenchmarkMmapScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.mrg")
	if err := WriteContainerFile(path, neighborScanGraph()); err != nil {
		b.Fatal(err)
	}
	g, err := OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	benchAliveScan(b, g)
}

// BenchmarkContainerLoad{Text,Binary} time cold-loading the scan graph from
// the text format, and opening it as a mapped binary container: O(header)
// work, so the binary load must be at least an order of magnitude faster.
func benchContainerLoad(b *testing.B, name string, mapped bool) {
	path := filepath.Join(b.TempDir(), name)
	if err := WriteFile(path, neighborScanGraph()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if g.N == 0 || g.Mapped() != mapped {
			b.Fatalf("%s loaded %d vertices, mapped %v", name, g.N, g.Mapped())
		}
		g.Close()
	}
}

func BenchmarkContainerLoadText(b *testing.B)   { benchContainerLoad(b, "scan.txt", false) }
func BenchmarkContainerLoadBinary(b *testing.B) { benchContainerLoad(b, "scan.mrg", true) }

// TestEncodeContainerWithoutWeightSlab checks that the container writer's
// bytes are the same whether or not NeighborsW filled the weight slab, on a
// G(n, m) graph and on a multigraph whose parallel edges differ in weight,
// and that encoding leaves an unfilled slab unfilled.
func TestEncodeContainerWithoutWeightSlab(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph func() *Graph
	}{
		{"gnm", func() *Graph { return testGraph(t) }},
		{"multigraph", func() *Graph {
			g := New(6)
			for _, e := range []Edge{{0, 1, 1.5}, {0, 1, 2.5}, {1, 2, 3}, {2, 0, 4}, {3, 2, 5}, {1, 0, 7}, {4, 3, 0.25}} {
				g.AddEdge(e.U, e.V, e.W)
			}
			return g
		}},
	} {
		plain, filled := tc.graph(), tc.graph()
		filled.NeighborsW(0)
		var a, b bytes.Buffer
		if err := EncodeContainer(&a, plain); err != nil {
			t.Fatal(err)
		}
		if err := EncodeContainer(&b, filled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the container differs with the weight slab filled", tc.name)
		}
		if plain.wBuilt || plain.adjW != nil {
			t.Errorf("%s: EncodeContainer filled the weight slab", tc.name)
		}
	}
}

// TestResidentBytes checks Graph.ResidentBytes on a heap graph before and
// after Build, after NeighborsW fills the weight slab (16 B more an edge),
// and on a mapped graph, whose views of the mapping count nothing: on a
// 64-bit little-endian host that is every slice, on a 32-bit one the edge
// list is copied out to the heap, and a big-endian host copies everything.
func TestResidentBytes(t *testing.T) {
	g := GNM(300, 2000, rng.New(5))
	n, m := int64(g.N), int64(g.M())
	edges := m * int64(unsafe.Sizeof(Edge{}))
	if got := g.ResidentBytes(); got != edges {
		t.Fatalf("unbuilt graph holds %d bytes, want the edge list's %d", got, edges)
	}
	built := edges + 4*(n+1) + 2*4*2*m // adjStart, adjNbr and adjEdge
	g.Build()
	if got := g.ResidentBytes(); got != built {
		t.Fatalf("built graph holds %d bytes, want %d", got, built)
	}
	g.NeighborsW(0)
	if got := g.ResidentBytes(); got != built+16*m {
		t.Fatalf("with the weight slab the graph holds %d bytes, want %d", got, built+16*m)
	}

	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := WriteContainerFile(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var want int64
	switch {
	case !hostLittleEndian:
		want = built + 16*m
	case !edgeLayoutMatches:
		want = edges
	}
	if got := mapped.ResidentBytes(); got != want {
		t.Fatalf("mapped graph holds %d heap bytes, want %d", got, want)
	}
}
