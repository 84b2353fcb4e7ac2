package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// serveGraph is the graph the end-to-end harness's serve workload writes,
// converts and uploads: Density(16000, 0.3) with weights uniform in [1,100),
// both drawn from rng.New(1).
func serveGraph() *Graph {
	gen := rng.New(1)
	g := Density(16000, 0.3, gen.Split())
	g.AssignUniformWeights(gen.Split(), 1, 100)
	return g
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// codecPins are SHA-256 digests of the text encoding and of ConvertFile's
// container, taken on the commit before the codec was rewritten (fmt-based
// Encode, a field-splitting parser and the external-sort converter). A
// match means the rewrite writes the same bytes.
var codecPins = []struct {
	name            string
	graph           func(testing.TB) *Graph
	text, container string
}{
	{"serve", func(testing.TB) *Graph { return serveGraph() },
		"686058c1d018096be23565175e5b203e396d89982280213c6c667ef382226f86",
		"991290e19c8e725d7077ae02377db4e4bf9f2a62809830cf789aa25fb6875014"},
	{"golden", func(t testing.TB) *Graph {
		g, err := ReadContainer(mustOpen(t, "testdata/golden.mrg"))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, "5d7fc30dafc8e7e549fcceee1b0d5521e2a85bb515676e90811fef6f15a3305d",
		"186a2d157df9a5a2d8e9dc3e7ff625214208ef3a368ddbe2cf263705757f4573"},
}

func mustOpen(t testing.TB, path string) *os.File {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fh.Close() })
	return fh
}

// TestEncodeDigests pins Encode's bytes on the serve graph and the golden
// fixture.
func TestEncodeDigests(t *testing.T) {
	for _, tc := range codecPins {
		var text bytes.Buffer
		if err := Encode(&text, tc.graph(t)); err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(text.Bytes()); got != tc.text {
			t.Errorf("%s: Encode digest %s, want %s", tc.name, got, tc.text)
		}
	}
}

// TestConvertFileDigests pins ConvertFile's output on the same two graphs
// from a text, a gzip-wrapped text and a raw container source, with text
// built both in memory and through the external sort.
func TestConvertFileDigests(t *testing.T) {
	for _, tc := range codecPins {
		g := tc.graph(t)
		dir := t.TempDir()
		for _, src := range []string{"g.txt", "g.txt.gz", "g.mrg"} {
			srcPath := filepath.Join(dir, src)
			if err := WriteFile(srcPath, g); err != nil {
				t.Fatal(err)
			}
			convertPaths(dir, 1<<16, func(path string, cfg *ExtBuildConfig) {
				dst := filepath.Join(dir, "out.mrg")
				if err := ConvertFile(srcPath, dst, cfg); err != nil {
					t.Fatalf("%s from %s, %s: %v", tc.name, src, path, err)
				}
				out, err := os.ReadFile(dst)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha256Hex(out); got != tc.container {
					t.Errorf("%s from %s, %s: container digest %s, want %s", tc.name, src, path, got, tc.container)
				}
			})
		}
	}
}
