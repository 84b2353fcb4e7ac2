package core

import (
	"fmt"
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
