package main

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
)

// TestLoadedVertexCoverMatchesGenerated saves a generated vertexcover
// instance's graph, loads it back as -load does, and runs the vertexcover
// job on both: the loaded instance must carry the vertex weights the spec
// built, so the two runs print the same result.
func TestLoadedVertexCoverMatchesGenerated(t *testing.T) {
	spec := service.InstanceSpec{Type: "vertexcover", N: 300, C: 0.3, Seed: 1}
	built, err := service.BuildInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := graph.WriteFile(path, built.Graph); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadInput(path, core.InputVertexCover, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Graph.Close() })
	if !slices.Equal(loaded.Cover.Weights, built.Cover.Weights) {
		t.Fatal("the loaded instance's vertex weights differ from the generated instance's")
	}
	alg, _ := core.LookupAlgorithm("vertexcover")
	p := core.Params{Mu: 0.2, Seed: spec.Seed}
	want, err := alg.Run(built, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alg.Run(loaded, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != want.Summary {
		t.Fatalf("loaded: %s\ngenerated: %s", got.Summary, want.Summary)
	}
}
