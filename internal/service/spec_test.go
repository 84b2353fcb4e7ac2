package service

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// benchInput keeps BenchmarkBuildInstanceDensity's result alive.
var benchInput core.Input

// BenchmarkBuildInstanceDensity is the set-up of the harness's mis-rounds
// workload: generate, weigh and index a 2.83 M-edge density graph.
func BenchmarkBuildInstanceDensity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := BuildInstance(InstanceSpec{Type: "density", N: 20000, C: 0.5, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		benchInput = in
	}
}

// TestValidateBoundsImpliedSize: n within maxInstanceN is not enough — the
// edge or element count n, c and f imply is bounded too, and checked before
// anything is allocated (these specs would otherwise ask the generators for
// terabytes and kill the process).
func TestValidateBoundsImpliedSize(t *testing.T) {
	for _, s := range []InstanceSpec{
		{Type: "density", N: 4194304, C: 1},
		{Type: "density", N: 4194304, C: 0.5},
		{Type: "vertexcover", N: 1 << 20, C: 0.5},
		{Type: "setcover-f", N: 4194304, C: 1, F: 3},
		{Type: "setcover-f", N: 100000, C: 0.3, F: 100000},
		// NaN fails every comparison, so only a bound written as
		// !(0 <= c && c <= 1) rejects it.
		{Type: "density", N: 50, C: math.NaN()},
		{Type: "vertexcover", N: 50, C: math.NaN()},
		{Type: "setcover-f", N: 50, C: math.NaN(), F: 3},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BuildInstance(s); err == nil {
			t.Errorf("%+v: built", s)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 { // the error's text, not an instance
			t.Errorf("%+v: rejected after allocating %d bytes", s, grew)
		}
	}
	// Everything the end-to-end harness, the smoke scripts and the tests
	// build stays valid.
	for _, s := range []InstanceSpec{
		{Type: "density", N: 30000, C: 0.3},             // match
		{Type: "density", N: 15000, C: 0.3},             // ecolour
		{Type: "density", N: 20000, C: 0.5},             // mis-rounds
		{Type: "vertexcover", N: 8000, C: 0.3},          // serve
		{Type: "setcover-f", N: 8000, C: 0.3, F: 3},     // serve
		{Type: "setcover-greedy", N: 40000},             // serve
		{Type: "density", N: 8000, C: 0.3},              // serve
		{Type: "density", N: 400, C: 0.3},               // scripts/smoke_job.json
		{Type: "vertexcover", N: 100, C: 0.3},           // scripts/ledger_smoke.sh
		{Type: "density", N: 6000, C: 0.5},              // cmd/mrserve's test
		{Type: "density", N: 1, C: 1},                   // no edge at all
		{Type: "density", N: 1000000, C: 0.3},           // 6.3·10⁷ edges: the largest c = 0.3 graph under the limit
		{Type: "setcover-greedy", N: maxInstanceN},      // bounded by n alone
		{Type: "setcover-f", N: 1 << 20, C: 0.25, F: 2}, // 3.4·10⁷ elements × 2
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}
