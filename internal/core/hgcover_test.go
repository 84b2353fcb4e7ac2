package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/setcover"
)

// serveCoverInstance builds the instance the serve workload's
// setcover-greedy jobs run on (service.BuildInstance of {n: 40000, seed: 1}):
// 40 000 sets of 1–12 elements over 4 000 elements, weights in [1, 8).
func serveCoverInstance() *setcover.Instance {
	return setcover.RandomSized(40000, 4000, 12, 8, rng.New(1).Split())
}

// hgDigests pins the SHA-256 of HGSetCover's full %+v result (cover, weight,
// iterations and every metric) on the serve instance and on a small instance
// whose run takes Claim 4.1's overflow branch (a group above 4·m^{µ/2}
// sets, so the iteration selects nothing). They were taken before the
// driver-side bookkeeping was rewritten around the dual and a flat group
// layout, which must leave every draw, round and word where it was.
var hgDigests = []struct {
	name   string
	inst   func() *setcover.Instance
	p      Params
	opt    HGCoverOptions
	digest string
}{
	{"serve/seed=1000000", serveCoverInstance, Params{Mu: 0.2, Seed: 1000000}, HGCoverOptions{Eps: 0.2},
		"5e0def6c53beb8d5f80d0317cb6073decde9d4342e47153400f61091dc80031c"},
	{"serve/seed=1000001", serveCoverInstance, Params{Mu: 0.2, Seed: 1000001}, HGCoverOptions{Eps: 0.2},
		"93bbc7a2624b79f8bf7eca75060092ba6b19973e8cc9851b741d500bb2aad184"},
	{"serve/seed=1000002", serveCoverInstance, Params{Mu: 0.2, Seed: 1000002}, HGCoverOptions{Eps: 0.2},
		"6caf4cc12bd49dd4c1669976bd48fb120a744fe64180889a9331fc277f7f0e5e"},
	{"serve/preprocess", serveCoverInstance, Params{Mu: 0.2, Seed: 1000000}, HGCoverOptions{Eps: 0.2, Preprocess: true},
		"af567d44deaabf9073068ac75f7a1396ada8411276b03302995e1317f5675661"},
	// At µ = 0.05 the serve instance overflows a group in nearly every
	// iteration (4·m^{µ/2} ≈ 4.9 sets against thousands of groups) until the
	// 10 000-iteration limit stops it, so this row runs a fifth of it: 20
	// iterations, 5 of them overflowing.
	{"mu=0.05", func() *setcover.Instance { return setcover.RandomSized(8000, 800, 12, 8, rng.New(1)) },
		Params{Mu: 0.05, Seed: 1}, HGCoverOptions{Eps: 0.2},
		"14114ddbfcf46215b01d925bc80f5da58727bd8c9bcfbcc549e3ca00a495a9fe"},
	// Seed 45 is the first of 1–200 on this shape whose run overflows a
	// group (once, in one of its 8 iterations).
	{"overflow", func() *setcover.Instance { return setcover.RandomSized(600, 50, 8, 5, rng.New(45)) },
		Params{Mu: 0.1, Seed: 45}, HGCoverOptions{},
		"5a968f4426cb17a9d7473b49f0d2072847e0c19ae76f27e0ac5074ca4a8820d3"},
}

func TestHGSetCoverDigests(t *testing.T) {
	for _, tc := range hgDigests {
		res, err := HGSetCover(tc.inst(), tc.p, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultDigest(res); got != tc.digest {
			t.Errorf("%s: digest %s, pinned %s", tc.name, got, tc.digest)
		}
	}
}

// TestHGSetCoverAllocsBounded pins the driver's bookkeeping at the serve
// instance: the dual-driven refresh and the flat group layout leave no
// allocation per element probe, per group or per sampled set beyond the
// sampler's own result. Measured when this was written: about 2 470
// allocations a call, where a map and per-group slices took about 339 000.
func TestHGSetCoverAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	inst := serveCoverInstance()
	inst.Dual() // built once per instance, as service.BuildInstance does
	p := Params{Mu: 0.2, Seed: 1000000}
	run := func() {
		if _, err := HGSetCover(inst, p, HGCoverOptions{Eps: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(3, run); allocs > 8000 {
		t.Errorf("%v allocations per call, want <= 8000", allocs)
	} else {
		t.Logf("%v allocations per call", allocs)
	}
}

// BenchmarkHGSetCoverServe runs one setcover-greedy job of the serve
// workload: the serve instance at µ = 0.2, ε = 0.2, 18 iterations.
func BenchmarkHGSetCoverServe(b *testing.B) {
	inst := serveCoverInstance()
	inst.Dual()
	p := Params{Mu: 0.2, Seed: 1000000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HGSetCover(inst, p, HGCoverOptions{Eps: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}
