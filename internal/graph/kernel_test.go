package graph

import (
	"testing"

	"repro/internal/rng"
)

// edgesEqual compares two edge lists exactly (order, endpoints, weights).
func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGeneratorDeterminismAcrossWorkers checks the parallel-generation
// contract: for every Workers setting the generators produce the identical
// edge list AND leave the caller's RNG at the identical stream position
// (callers keep drawing from it, e.g. for weights).
func TestGeneratorDeterminismAcrossWorkers(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	gens := []struct {
		name string
		run  func(r *rng.RNG) *Graph
	}{
		// Sizes chosen above genParallelMin so the speculative path engages.
		{"GNM-sparse", func(r *rng.RNG) *Graph { return GNM(1000, 20000, r) }},
		{"GNM-dense", func(r *rng.RNG) *Graph { return GNM(200, 15000, r) }},
		{"Density", func(r *rng.RNG) *Graph { return Density(500, 0.6, r) }},
		{"RMAT", func(r *rng.RNG) *Graph { return RMATDefault(12, 20000, r) }},
		{"Bipartite", func(r *rng.RNG) *Graph { return RandomBipartite(400, 400, 20000, r) }},
	}
	for _, gen := range gens {
		t.Run(gen.name, func(t *testing.T) {
			SetParallelism(1)
			rSeq := rng.New(71)
			want := gen.run(rSeq)
			wantNext := rSeq.Uint64()
			for _, w := range []int{2, 4, 7} {
				SetParallelism(w)
				r := rng.New(71)
				got := gen.run(r)
				if !edgesEqual(got.Edges, want.Edges) {
					t.Fatalf("workers=%d: edge list differs from sequential", w)
				}
				if next := r.Uint64(); next != wantNext {
					t.Fatalf("workers=%d: RNG left at a different stream position", w)
				}
			}
		})
	}
}

// TestBuildParallelMatchesSequential checks that the parallel CSR build
// produces slab-identical adjacency (same neighbour order, weights, and
// edge ids per vertex) for every worker count.
func TestBuildParallelMatchesSequential(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	r := rng.New(5)
	g := GNM(2000, 40000, r) // above buildParallelMin
	g.AssignUniformWeights(r, 1, 10)

	SetParallelism(1)
	g.Invalidate()
	g.Build()
	type adj struct {
		nbr []int32
		w   []float64
		ids []int32
	}
	want := make([]adj, g.N)
	for v := 0; v < g.N; v++ {
		nbrs, ws := g.NeighborsW(v)
		want[v] = adj{
			nbr: append([]int32(nil), nbrs...),
			w:   append([]float64(nil), ws...),
			ids: append([]int32(nil), g.IncidentEdges(v)...),
		}
	}
	for _, workers := range []int{2, 3, 8} {
		SetParallelism(workers)
		g.Invalidate()
		g.Build()
		for v := 0; v < g.N; v++ {
			nbrs, ws := g.NeighborsW(v)
			ids := g.IncidentEdges(v)
			if len(nbrs) != len(want[v].nbr) {
				t.Fatalf("workers=%d v=%d: degree differs", workers, v)
			}
			for i := range nbrs {
				if nbrs[i] != want[v].nbr[i] || ws[i] != want[v].w[i] || ids[i] != want[v].ids[i] {
					t.Fatalf("workers=%d v=%d slot %d: (%d,%g,%d) != (%d,%g,%d)",
						workers, v, i, nbrs[i], ws[i], ids[i],
						want[v].nbr[i], want[v].w[i], want[v].ids[i])
				}
			}
		}
	}
}

// TestNeighborsIncidentEdgesAgreement checks the positional contract on a
// multigraph with parallel edges: entry i of Neighbors(v), NeighborsW(v)
// and IncidentEdges(v) all describe the same incident edge, and multiplicity
// is preserved.
func TestNeighborsIncidentEdgesAgreement(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(0, 1, 2.5) // parallel edge
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 0, 4)
	g.AddEdge(3, 2, 5)
	for v := 0; v < g.N; v++ {
		ids := g.IncidentEdges(v)
		nbrs, ws := g.NeighborsW(v)
		if len(ids) != len(nbrs) || len(ws) != len(nbrs) || len(nbrs) != g.Degree(v) {
			t.Fatalf("v=%d: slab lengths disagree", v)
		}
		if len(g.Neighbors(v)) != len(nbrs) {
			t.Fatalf("v=%d: Neighbors and NeighborsW disagree", v)
		}
		for i, id := range ids {
			e := g.Edges[id]
			if e.Other(v) != int(nbrs[i]) {
				t.Fatalf("v=%d slot %d: neighbour %d but edge %d is (%d,%d)",
					v, i, nbrs[i], id, e.U, e.V)
			}
			if e.W != ws[i] {
				t.Fatalf("v=%d slot %d: weight %g but edge has %g", v, i, ws[i], e.W)
			}
		}
	}
	if g.Degree(0) != 3 || g.Degree(1) != 3 {
		t.Fatalf("multiplicity lost: deg(0)=%d deg(1)=%d", g.Degree(0), g.Degree(1))
	}
	// The two parallel (0,1) edges must appear as distinct slots with their
	// own weights and edge ids.
	seen := map[int32]bool{}
	for _, id := range g.IncidentEdges(0) {
		if seen[id] {
			t.Fatal("edge id repeated within one incidence list")
		}
		seen[id] = true
	}
}

// TestWeightMutationInvalidatesSlabs checks that the weight-assignment
// helpers refresh the CSR weight slab.
func TestWeightMutationInvalidatesSlabs(t *testing.T) {
	g := Path(4)
	_, ws := g.NeighborsW(0)
	if ws[0] != 1 {
		t.Fatalf("initial weight %g", ws[0])
	}
	g.AssignUniformWeights(rng.New(1), 5, 6)
	_, ws = g.NeighborsW(0)
	if ws[0] < 5 || ws[0] >= 6 {
		t.Fatalf("stale weight slab after AssignUniformWeights: %g", ws[0])
	}
	g.AssignUnitWeights()
	_, ws = g.NeighborsW(0)
	if ws[0] != 1 {
		t.Fatalf("stale weight slab after AssignUnitWeights: %g", ws[0])
	}
	g.Edges[0].W = 9
	g.Invalidate()
	_, ws = g.NeighborsW(0)
	if ws[0] != 9 {
		t.Fatalf("stale weight slab after Invalidate: %g", ws[0])
	}
}

// TestVertexSet checks the bitmap→map conversion helper.
func TestVertexSet(t *testing.T) {
	set := VertexSet([]bool{true, false, true, false, false, true})
	if len(set) != 3 || !set[0] || !set[2] || !set[5] || set[1] {
		t.Fatalf("VertexSet = %v", set)
	}
	if len(VertexSet(nil)) != 0 {
		t.Fatal("VertexSet(nil) not empty")
	}
}

// neighborScanGraph is the kernel benchmarks' graph: 4000 vertices at
// density c = 0.45, weighted, with its CSR slabs built.
func neighborScanGraph() *Graph {
	r := rng.New(42)
	g := Density(4000, 0.45, r)
	g.AssignUniformWeights(r, 1, 100)
	g.Build()
	return g
}

// benchAliveScan times the alive-neighbour accumulation every algorithm in
// this repository runs per machine, over g's contiguous Neighbors slab.
func benchAliveScan(b *testing.B, g *Graph) {
	alive := make([]bool, g.N)
	for v := range alive {
		alive[v] = v%3 != 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkNeighborScanCSR(b *testing.B) { benchAliveScan(b, neighborScanGraph()) }

func BenchmarkNeighborScanWeightedCSR(b *testing.B) {
	g := neighborScanGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for v := 0; v < g.N; v++ {
			nbrs, ws := g.NeighborsW(v)
			for k, u := range nbrs {
				if int(u) > v {
					sum += ws[k]
				}
			}
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkNeighborScanValidateMIS times the same kernel inside
// IsMaximalIndependentSet, on the index-order greedy MIS (seq.GreedyMIS's
// set; seq imports this package, so it is rebuilt here).
func BenchmarkNeighborScanValidateMIS(b *testing.B) {
	g := neighborScanGraph()
	in, blocked := make([]bool, g.N), make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		if !blocked[v] {
			in[v] = true
			for _, u := range g.Neighbors(v) {
				blocked[u] = true
			}
		}
	}
	set := VertexSet(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !IsMaximalIndependentSet(g, set) {
			b.Fatal("invalid MIS")
		}
	}
}

// BenchmarkGraphBuild{Seq,Par4} time the CSR build itself, sequential and on
// the package's parallel path (identical slabs, see
// TestBuildParallelMatchesSequential).
func benchGraphBuild(b *testing.B, workers int) {
	defer SetParallelism(SetParallelism(workers))
	g := neighborScanGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Invalidate()
		g.Build()
	}
}

func BenchmarkGraphBuildSeq(b *testing.B)  { benchGraphBuild(b, 1) }
func BenchmarkGraphBuildPar4(b *testing.B) { benchGraphBuild(b, 4) }
