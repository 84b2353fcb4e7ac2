package service

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestInstancesStayResident holds a shared graph instance to the slabs the
// algorithms read: the edge list, adjStart, adjNbr and adjEdge, and not the
// 16 B an edge weight slab that NeighborsW fills. Every registry graph
// algorithm reads a weight as Edges[id].W, and encoding the instance
// gathers the container's weight section from the edge list, so neither
// moves the figure. A driver that starts reading NeighborsW fails here,
// and materialize must then force the slab before the instance is shared.
// The same graph uploaded as a binary container holds the same bytes: the
// container's weight section streams through its checks and is not kept.
func TestInstancesStayResident(t *testing.T) {
	in, err := BuildInstance(InstanceSpec{Type: "density", N: 600, C: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := in.Graph
	n, m := int64(g.N), int64(g.M())
	want := m*int64(unsafe.Sizeof(graph.Edge{})) + 4*(n+1) + 2*4*2*m
	if got := g.ResidentBytes(); got != want {
		t.Fatalf("built instance holds %d bytes, want %d (n=%d m=%d, no weight slab)", got, want, n, m)
	}
	for _, a := range core.Algorithms() {
		if a.Input != core.InputGraph {
			continue
		}
		if _, err := a.Run(in, core.Params{Mu: 0.2, Seed: 1}, nil); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if got := g.ResidentBytes(); got != want {
			t.Fatalf("after %s the instance holds %d bytes, want %d", a.Name, got, want)
		}
	}
	var container bytes.Buffer
	if err := graph.EncodeContainer(&container, g); err != nil {
		t.Fatal(err)
	}
	if got := g.ResidentBytes(); got != want {
		t.Fatalf("after EncodeContainer the instance holds %d bytes, want %d", got, want)
	}
	up, err := BuildInstance(InstanceSpec{Type: "upload", Data: container.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if got := up.Graph.ResidentBytes(); got != want {
		t.Fatalf("the container upload holds %d bytes, want %d", got, want)
	}
}

// TestBuildInstanceBytesBounded pins what BuildInstance allocates for one
// density spec, measured as core.TestAllocCeilings measures: one warm-up
// call, one runtime.GC(), then three calls with the collector off, all on
// one P, where the generator and Build take their sequential paths. The
// ceiling is 1.25× the reading beside it. At m = 125 892 that is 57 B an
// edge: the edge list's 24, adjNbr and adjEdge's 16 and the generator's
// duplicate set's 16.7. A weight slab filled during the build adds 16 and
// fails the pin.
func TestBuildInstanceBytesBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ceiling = 8929504.0 // 1.25 × 7 143 603
	spec := InstanceSpec{Type: "density", N: 1000, C: 0.7, Seed: 1}
	run := func() {
		if _, err := BuildInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	bytes := func() float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 3
	}()
	if bytes > ceiling {
		t.Errorf("BuildInstance(%+v): %.0f bytes per call, want <= %.0f", spec, bytes, ceiling)
	}
	t.Logf("BuildInstance(%+v): %.0f bytes per call", spec, bytes)
}

// TestInstanceListingCountsResidentBytes ties the instance listing's words
// to what a built instance holds: the graph's Graph.ResidentBytes in words,
// rounded up, plus the set system's words for a vertex cover instance.
func TestInstanceListingCountsResidentBytes(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	specs := []InstanceSpec{
		{Type: "density", N: 600, C: 0.3, Seed: 3},
		{Type: "vertexcover", N: 600, C: 0.3, Seed: 3},
	}
	for _, spec := range specs {
		alg := "mis"
		if spec.Type == "vertexcover" {
			alg = "vertexcover"
		}
		finished(t, e, mustSubmit(t, e, JobRequest{Instance: spec, Alg: alg, Seed: 1}))
	}
	listed := map[string]int64{}
	for _, info := range e.Instances() {
		listed[info.ID] = info.Words
	}
	for _, spec := range specs {
		in, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := (in.Graph.ResidentBytes() + 7) / 8
		if c := in.Cover; c != nil {
			want += int64(c.NumSets()) + 2*int64(c.TotalSize())
		}
		id, _ := SpecID(spec)
		if got := listed[id]; got != want {
			t.Errorf("%s: listed %d words, want %d (%d resident graph bytes)", spec.Type, got, want, in.Graph.ResidentBytes())
		}
	}
}
