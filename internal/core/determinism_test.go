package core

// Every algorithm must be exactly reproducible from its seed (the property
// the experiment harness depends on) and must handle degenerate inputs.
// Reproducibility is also required *across executors*: the parallel round
// executor must produce the same results and the same measured metrics as
// the sequential one, machine for machine and word for word.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

func TestDeterminismAllAlgorithms(t *testing.T) {
	p := Params{Mu: 0.25, Seed: 77}
	for _, in := range equivInstances() {
		for _, rn := range equivRuns {
			var digests [2]string
			for i := range digests {
				res, err := rn.f(in, p)
				if err != nil {
					t.Fatalf("%s/%s run %d: %v", in.name, rn.name, i+1, err)
				}
				digests[i] = resultDigest(res)
			}
			if digests[0] != digests[1] {
				t.Fatalf("%s/%s not deterministic: digest %s, then %s", in.name, rn.name, digests[0], digests[1])
			}
		}
	}
}

// equivInstance is one input of TestExecutorEquivalence: a weighted graph,
// its vertex-cover set system, and a general set-cover instance.
type equivInstance struct {
	name   string
	g      *graph.Graph
	vc, sc *setcover.Instance
}

// equivInstances returns the dense random graph the suite has always used
// and a preferential-attachment graph, whose skewed degrees leave a few hub
// owners busy while the other machines go dormant.
func equivInstances() []equivInstance {
	build := func(name string, g *graph.Graph, r *rng.RNG, sc func(*rng.RNG) *setcover.Instance) equivInstance {
		g.AssignUniformWeights(r, 1, 10)
		w := make([]float64, g.N)
		for i := range w {
			w[i] = r.UniformWeight(1, 10)
		}
		return equivInstance{name: name, g: g, vc: setcover.FromVertexCover(g, w), sc: sc(r)}
	}
	r := rng.New(424242)
	density := build("density", graph.Density(180, 0.35, r), r, func(r *rng.RNG) *setcover.Instance {
		return setcover.RandomSized(320, 64, 8, 5, r)
	})
	r = rng.New(5150)
	pa := build("pa", graph.PreferentialAttachment(300, 4, r), r, func(r *rng.RNG) *setcover.Instance {
		return setcover.RandomFrequency(400, 80, 3, 5, r)
	})
	return []equivInstance{density, pa}
}

// equivRuns lists every algorithm (and option variant) of the package as a
// function of an instance and the parameters.
var equivRuns = []struct {
	name string
	f    func(in equivInstance, p Params) (interface{}, error)
}{
	{"RLRMatching", func(in equivInstance, p Params) (interface{}, error) {
		return RLRMatching(in.g, p, MatchingOptions{})
	}},
	{"BMatching", func(in equivInstance, p Params) (interface{}, error) {
		return BMatching(in.g, p, BMatchingOptions{Eps: 0.2})
	}},
	{"RLRSetCover-VC", func(in equivInstance, p Params) (interface{}, error) {
		return RLRSetCover(in.vc, p, CoverOptions{VertexCoverMode: true})
	}},
	{"RLRSetCover-general", func(in equivInstance, p Params) (interface{}, error) {
		return RLRSetCover(in.vc, p, CoverOptions{})
	}},
	{"HGSetCover", func(in equivInstance, p Params) (interface{}, error) {
		return HGSetCover(in.sc, p, HGCoverOptions{Eps: 0.2})
	}},
	{"HGSetCover-preprocess", func(in equivInstance, p Params) (interface{}, error) {
		return HGSetCover(in.sc, p, HGCoverOptions{Eps: 0.2, Preprocess: true})
	}},
	{"MIS", func(in equivInstance, p Params) (interface{}, error) { return MIS(in.g, p) }},
	{"MISFast", func(in equivInstance, p Params) (interface{}, error) { return MISFast(in.g, p) }},
	{"LubyMIS", func(in equivInstance, p Params) (interface{}, error) { return LubyMIS(in.g, p) }},
	{"MaximalClique", func(in equivInstance, p Params) (interface{}, error) { return MaximalClique(in.g, p) }},
	{"VertexColouring", func(in equivInstance, p Params) (interface{}, error) { return VertexColouring(in.g, p) }},
	{"EdgeColouring", func(in equivInstance, p Params) (interface{}, error) { return EdgeColouring(in.g, p) }},
	{"FilteringMatching", func(in equivInstance, p Params) (interface{}, error) { return FilteringMatching(in.g, p) }},
	{"FilteringWeighted", func(in equivInstance, p Params) (interface{}, error) {
		return FilteringWeightedMatching(in.g, p)
	}},
}

// equivDigests pins the SHA-256 of each run's full %+v result — solution
// sets, weights, histories and every metric, activity counters included —
// keyed by "instance/algorithm". They were taken while the simulator still
// had a dense mode that ran every machine every round, and both modes agreed
// on every model quantity, so they carry that proof forward: a missed Arm, a
// RoundFunc that writes outside its machine, or any drift in charging
// changes a digest.
var equivDigests = map[string]string{
	"density/BMatching":             "b567086e43ddaeb7d9c55c890d4b417f17518c771beb2d6f28faf5ad1bc23e5b",
	"density/EdgeColouring":         "894ba02dd1240999be9796ebee2f8e7b39b6f62cb5ecebbbea785df78e8f7b6f",
	"density/FilteringMatching":     "90b2856adb97fb32aff4b0515c1cbd57181a14fd5f62e5f5c914b6ee20287d92",
	"density/FilteringWeighted":     "5421d7db67644bc8c28fc131970f6b711710f2395d8141ed608c5b1f9baedc32",
	"density/HGSetCover":            "35a3239ac03585a07e0053d6408a1f0b6182615b59299d5eb077efbbf3e098b4",
	"density/HGSetCover-preprocess": "26909c23206dc1422460b2469fc18ab947502e18ee0f03f3dd3e8b3df0dc73ac",
	"density/LubyMIS":               "2b8af58e42c8420d8991723c87ebef60a744f83cfa364d3d5fb5c31cca477170",
	"density/MIS":                   "cdba58c418452ecec71550cf9f0ff1d44e8e78b95180bd81a1f646868bb20974",
	"density/MISFast":               "ea1c9fe2b6554c84b00559a1fdc5928926f17ec3431b64d22b7ec40b63cdda39",
	"density/MaximalClique":         "90744507944c80a36cba302421e65a04a168c28f9a154b9ea7a28d8869a7bf79",
	"density/RLRMatching":           "c4051f7d3a552bfde30bae16eee0e3816bfdd5827db692c2f0a5102ca3e5d044",
	"density/RLRSetCover-VC":        "f01fb7eba4a6f947184c47b0951a0af5cdf082acfec064add3d128e57eba60b7",
	"density/RLRSetCover-general":   "7594c0373686564d514dbfe93419f7f0d711d0c2df958132109ffac4459a4c78",
	"density/VertexColouring":       "ba690c1280e3d8f4cd8993cd297e6194529f1d18e84cb1b6e829aec82851d3b8",
	"pa/BMatching":                  "0495095828f6feb079f6cac566a2fbdf7a566973b300c03b8fbe080c7776726d",
	"pa/EdgeColouring":              "c2629f2794d56383dba8ca273c1e7feb71a50c319405f91b1611eca8c28d1389",
	"pa/FilteringMatching":          "e4b7fc3abf412b1889d43c3c6077b4a10f91f6513d60ba1460f878e2fcc37b1c",
	"pa/FilteringWeighted":          "a6f42f86f8ecd9ffcc89d16f7dd42866a6c104821124628e64589e453b9c9a1a",
	"pa/HGSetCover":                 "327c3925a8a760b2fae5e48aa22cb6605704993f75158a4837bc510eca948158",
	"pa/HGSetCover-preprocess":      "d4d912d7c02b59bc3fc47c6bd0d208ce91c5f13e340e59d92eb707e0bce1a3e8",
	"pa/LubyMIS":                    "7f47ea26966b7ac770eae06766b8501e5c47e3328132fb128b14a9ae91089080",
	"pa/MIS":                        "7282ff838da80edf41fe569cf0f90582638c8ca682700c38db1976fef9cf44ed",
	"pa/MISFast":                    "5968f72dfabfbbe3233a06f26ac2529b6b9a04fd76762e5cafffacf1d8e969ec",
	"pa/MaximalClique":              "9334fe05c48bfd17e0be26c1185cfe8d31fb474fd734cc2eb9ba032a92e4f0e8",
	"pa/RLRMatching":                "9c62b6686efbdcaaef5def06e31b804241d4a59582c5715d1589c35ad3015c33",
	"pa/RLRSetCover-VC":             "54499234380a18298960ddd9ab1855fbe7d711c1791f7d91fd81f0bae2fbaa6f",
	"pa/RLRSetCover-general":        "edfc1416cc8bdbfaa4d1b1639f90da067faf23e3497bb6769ef9bbd5feef34a2",
	"pa/VertexColouring":            "405aa0a3c969176abb0452485f94fbbc8cbe5d6e5c5644212aff86eecc2131a9",
}

// resultDigest renders a result with %+v (struct fields in order, map keys
// sorted) and hashes the text.
func resultDigest(res interface{}) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

// TestExecutorEquivalence runs every algorithm on every equivalence instance
// on one worker and on a four-worker pool, and requires each full result to
// hash to its pinned digest. Run under -race this is also the enforcement
// that every RoundFunc in this package confines its writes to machine-owned
// state.
func TestExecutorEquivalence(t *testing.T) {
	instances := equivInstances()
	for _, rn := range equivRuns {
		rn := rn
		t.Run(rn.name, func(t *testing.T) {
			for _, in := range instances {
				key := in.name + "/" + rn.name
				for _, workers := range []int{1, 4} {
					res, err := rn.f(in, Params{Mu: 0.25, Seed: 99, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", key, workers, err)
					}
					if got := resultDigest(res); got != equivDigests[key] {
						t.Errorf("%s workers=%d: digest %s, pinned %s", key, workers, got, equivDigests[key])
					}
				}
			}
		})
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := graph.New(0)
	one := graph.New(1)
	p := Params{Mu: 0.2, Seed: 1}

	if res, err := RLRMatching(empty, p, MatchingOptions{}); err != nil || len(res.Edges) != 0 {
		t.Fatal("matching on empty graph")
	}
	if res, err := BMatching(empty, p, BMatchingOptions{}); err != nil || len(res.Edges) != 0 {
		t.Fatal("b-matching on empty graph")
	}
	if res, err := MISFast(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("MIS of a single vertex must be that vertex")
	}
	if res, err := MIS(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("Alg2 MIS of a single vertex")
	}
	if res, err := LubyMIS(one, p); err != nil || len(res.Set) != 1 {
		t.Fatal("Luby MIS of a single vertex")
	}
	if res, err := MaximalClique(one, p); err != nil || len(res.Clique) != 1 {
		t.Fatal("clique of a single vertex")
	}
	if res, err := VertexColouring(one, p); err != nil || len(res.Colours) != 1 {
		t.Fatal("colouring a single vertex")
	}
	if res, err := FilteringMatching(empty, p); err != nil || len(res.Edges) != 0 {
		t.Fatal("filtering on empty graph")
	}
	inst := &setcover.Instance{NumElements: 0}
	if res, err := RLRSetCover(inst, p, CoverOptions{}); err != nil || len(res.Cover) != 0 {
		t.Fatal("set cover with no elements")
	}
	if res, err := HGSetCover(inst, p, HGCoverOptions{}); err != nil || len(res.Cover) != 0 {
		t.Fatal("hg set cover with no elements")
	}
}
