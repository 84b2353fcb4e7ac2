package core

import (
	"fmt"
	"testing"
)

// filteringDigests pins the SHA-256 of the full %+v result (edge ids,
// cover, weight, iterations and every metric) of both Lattanzi et al.
// filtering baselines on the plane instance (a Density(800, 0.3) graph with
// weights in [1, 100), 5 943 edges) at µ ∈ {0, 0.05}. There η is 800 and
// 1 118 words, below both the edge count and the size of the heaviest weight
// class [64·w_min, 100) (about 2 100 edges), so every run samples with
// p < 1, inside a weight class for the weighted baseline. They were taken
// before the two baselines were rewritten around one filtering loop, which
// must leave every draw, round and word where it was.
var filteringDigests = map[string]string{
	"FilteringMatching/seed=1/mu=0":            "e83a514f326219d396eb2e5012907f62a31863deda5887b810bca9e0e9561435",
	"FilteringMatching/seed=1/mu=0.05":         "72388811ebaca1a971afc7b3ccf8a321471928d07513395c220c8cccaf45e0c7",
	"FilteringMatching/seed=2/mu=0":            "cfd9f6aba80f5f9ee1904ea8804fdb6d5c811812750961674e454fe97db1ba88",
	"FilteringMatching/seed=2/mu=0.05":         "8dfa2cbc8cb5d2129fe6b8a85e83aac2a2d43ba59aabc7ac9da7422b4012a2d2",
	"FilteringWeightedMatching/seed=1/mu=0":    "6ce96c7c88f6dd6c5472e70d34b40645be049a4917909f8df8e314136059a463",
	"FilteringWeightedMatching/seed=1/mu=0.05": "001e818c97a291c4bc191e745ac4137737ba25e284fa7a205ce5ae7b4327ca34",
	"FilteringWeightedMatching/seed=2/mu=0":    "f4c0a6e637314c490180da0997acc6e6d4c223cdd12964f0b4b0af216eb6b216",
	"FilteringWeightedMatching/seed=2/mu=0.05": "2f2461dbcbf4e552859fece18be249344b3984f22473fb268bdf8bcc0c0dd0f1",
}

func TestFilteringDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		g := planeInput(InputGraph, seed).Graph
		for _, mu := range []float64{0, 0.05} {
			p := Params{Mu: mu, Seed: seed}
			runs := []struct {
				name string
				f    func() (interface{}, error)
			}{
				{"FilteringMatching", func() (interface{}, error) { return FilteringMatching(g, p) }},
				{"FilteringWeightedMatching", func() (interface{}, error) { return FilteringWeightedMatching(g, p) }},
			}
			for _, rn := range runs {
				key := fmt.Sprintf("%s/seed=%d/mu=%v", rn.name, seed, mu)
				res, err := rn.f()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := resultDigest(res); got != filteringDigests[key] {
					t.Errorf("%s: digest %s, pinned %s", key, got, filteringDigests[key])
				}
			}
		}
	}
}
