package graph

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
)

// edgeFeeder replays a fixed edge list through BuildExternal's callback.
func edgeFeeder(edges []Edge) func() (Edge, error) {
	i := 0
	return func() (Edge, error) {
		if i >= len(edges) {
			return Edge{}, errors.New("exhausted")
		}
		e := edges[i]
		i++
		return e, nil
	}
}

// TestBuildExternalByteIdentical is the acceptance criterion: a chunk budget
// far smaller than the edge list (forcing many spilled runs and a wide
// merge) must produce a container byte-identical to the in-heap encoder.
func TestBuildExternalByteIdentical(t *testing.T) {
	r := rng.New(99)
	g := GNM(800, 6000, r)
	g.AssignUniformWeights(r, 1, 50)

	dir := t.TempDir()
	want := filepath.Join(dir, "heap.mrg")
	if err := WriteContainerFile(want, g); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{0 /* default: single in-memory chunk */, 257, 2, 4096} {
		got := filepath.Join(dir, "ext.mrg")
		err := BuildExternal(got, g.N, g.M(), edgeFeeder(g.Edges),
			&ExtBuildConfig{ChunkEdges: chunk, TmpDir: dir})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		wantB, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantB, gotB) {
			t.Fatalf("chunk=%d: external container differs from in-heap container", chunk)
		}
	}

	// No run files may leak.
	runs, err := filepath.Glob(filepath.Join(dir, "mrg-extsort-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("leaked %d temporary run files", len(runs))
	}
}

// TestBuildExternalValidation checks the streaming validator matches the
// in-heap rules: bad endpoints, self-loops, non-finite weights, short
// streams.
func TestBuildExternalValidation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.mrg")
	cases := []struct {
		name  string
		n, m  int
		edges []Edge
		want  string
	}{
		{"endpoint-range", 3, 1, []Edge{{U: 0, V: 3, W: 1}}, "invalid edge"},
		{"negative", 3, 1, []Edge{{U: -1, V: 2, W: 1}}, "invalid edge"},
		{"self-loop", 3, 1, []Edge{{U: 1, V: 1, W: 1}}, "invalid edge"},
		{"non-finite", 3, 1, []Edge{{U: 0, V: 1, W: math.Inf(1)}}, "non-finite"},
		{"short-stream", 3, 2, []Edge{{U: 0, V: 1, W: 1}}, "edge stream ended"},
		{"negative-m", 3, -1, nil, "negative dimensions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := BuildExternal(out, tc.n, tc.m, edgeFeeder(tc.edges), &ExtBuildConfig{TmpDir: dir})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}
