package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// colouringDigests pins the SHA-256 of the full %+v result (every colour,
// the colour count, κ, the largest group degree and every metric) of both
// Algorithm 5 variants on a Density(1500, 0.5) graph with weights in
// [1, 100). There κ is 5 at µ = 0.05 and 4 at µ = 0.1, so the groups are
// coloured concurrently on a multi-worker executor. They were taken before
// the two variants were rewritten around one group–route–colour–emit
// driver, which must leave every draw, round and word where it was.
var colouringDigests = map[string]string{
	"EdgeColouring/seed=1/mu=0.05":   "c2d734399c1c608aa6360be77175e7b532cf23a35d36d7d635ac0f1f16e153b7",
	"EdgeColouring/seed=1/mu=0.1":    "f8d0fecec76ffb78025b7f0a140c3e90d41527bbbb565b145237f8f628fa66a6",
	"EdgeColouring/seed=2/mu=0.05":   "7aa16d68c42d80e90a1fbf48c6c7dc4ce07b64fc7dd6404fcb1b81f03536b85b",
	"EdgeColouring/seed=2/mu=0.1":    "50aa55dee8867f51c16688a5b38d526b840833919bcd7a57f65f9741b017244b",
	"VertexColouring/seed=1/mu=0.05": "2ae9fbdef8cb680642636307f69ebbae99f3288acdc6d0cbbcbb8e9230a2620d",
	"VertexColouring/seed=1/mu=0.1":  "ca87a786998f39e5fd00060ed99b183bb939751c659ac1fdc179ef1105bdad67",
	"VertexColouring/seed=2/mu=0.05": "647ff2aa00c1e76b708f2810d3d75daf030f0cd306199507332a3addb15d3d56",
	"VertexColouring/seed=2/mu=0.1":  "b63878cadc288510de15f92df3be1847a5a5cbd2c745323a700223ca478c6217",
}

func TestColouringDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		g := graph.Density(1500, 0.5, r)
		g.AssignUniformWeights(r, 1, 100)
		for _, mu := range []float64{0.05, 0.1} {
			runs := []struct {
				name string
				f    func(p Params) (interface{}, error)
			}{
				{"VertexColouring", func(p Params) (interface{}, error) { return VertexColouring(g, p) }},
				{"EdgeColouring", func(p Params) (interface{}, error) { return EdgeColouring(g, p) }},
			}
			for _, rn := range runs {
				key := fmt.Sprintf("%s/seed=%d/mu=%v", rn.name, seed, mu)
				for _, workers := range []int{1, 4} {
					res, err := rn.f(Params{Mu: mu, Seed: seed, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if got := resultDigest(res); got != colouringDigests[key] {
						t.Errorf("%s workers=%d: digest %s, pinned %s", key, workers, got, colouringDigests[key])
					}
				}
			}
		}
	}
}

// TestColouringAllocsBounded pins what one Algorithm 5 call allocates, in
// mallocs and in bytes, for both variants at the benchmark's density and µ
// (c = 0.3, µ = 0.2; κ = 1 at n = 2000, 2 at n = 8000). The ceilings are
// 1.25× the mallocs and 1.5× the bytes measured when it was written, warm
// (vertex/edge: 82/91 mallocs and 1.45/4.45 MB at n = 2000, 123/148 and
// 5.13/28.6 MB at n = 8000), with machines walking their edges as a
// stride, the group lists in one slab each and the colours counted in a
// bitmap. Per-machine lists grown by append and a radix count took 147/152
// and 238/253 mallocs, and 2.29/5.99 and 10.7/39.6 MB.
func TestColouringAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		n                  int
		vMallocs, eMallocs float64
		vBytes, eBytes     float64
	}{
		{2000, 102, 113, 2.18e6, 6.68e6},
		{8000, 153, 185, 7.70e6, 42.9e6},
	} {
		g := graph.Density(tc.n, 0.3, rng.New(71))
		p := Params{Mu: 0.2, Seed: 1}
		for _, alg := range []struct {
			name           string
			colour         func(*graph.Graph, Params) (*ColouringResult, error)
			mallocs, bytes float64
		}{
			{"VertexColouring", VertexColouring, tc.vMallocs, tc.vBytes},
			{"EdgeColouring", EdgeColouring, tc.eMallocs, tc.eBytes},
		} {
			run := func() {
				if _, err := alg.colour(g, p); err != nil {
					t.Fatal(err)
				}
			}
			run()
			mallocs := testing.AllocsPerRun(5, run)
			bytes := bytesPerRun(5, run)
			if mallocs > alg.mallocs || bytes > alg.bytes {
				t.Errorf("%s m=%d: %v mallocs and %.0f bytes per call, want <= %v and <= %.0f",
					alg.name, g.M(), mallocs, bytes, alg.mallocs, alg.bytes)
			}
			t.Logf("%s m=%d: %v mallocs, %.0f bytes per call", alg.name, g.M(), mallocs, bytes)
		}
	}
}

// bytesPerRun returns the heap bytes one call of run allocates, averaged
// over runs calls, on one P as testing.AllocsPerRun measures.
func bytesPerRun(runs int, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
