package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestAllocCeilings pins what one registry job allocates, mallocs and bytes,
// at one small size and at one job-scale size on one worker. Each row is
// measured as TestRLRSetCoverAllocsBounded measures: one warm-up call, one
// runtime.GC(), then with the collector off one more warm-up call and three
// measured calls, so a collection cannot empty the message-column pool
// between them. The whole test runs on one P: the pool keeps a per-P slot
// that no other P takes from, so a test goroutine that changed P between
// calls could read higher in some processes than in others. Every ceiling is
// 1.25× the reading noted beside it: for mis-simple and clique taken before
// Algorithm 2 and Appendix B shared one phase loop, for luby at n = 3420 the
// one reading eight of eight processes gave, for filtering the reading most
// processes agree on. The rows cover algorithms that no other test bounds in
// bytes.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small := graph.Density(300, 0.5, rng.New(5))
	large := graph.Density(3420, 0.5, rng.New(62))
	for _, tc := range []struct {
		alg            string
		g              *graph.Graph
		mu             float64
		mallocs, bytes float64
	}{
		{"mis-simple", small, 0.2, 537, 40730},    // 430 and 32 584
		{"mis-simple", large, 0.05, 3247, 309700}, // 2 598 and 247 760; now 248 464
		{"clique", small, 0.2, 335, 36910},        // 268 and 29 528
		{"clique", large, 0.05, 1077, 396120},     // 862 and 316 896
		{"luby", small, 0.2, 268, 20870},          // 214 and 16 696
		{"luby", large, 0.05, 1233, 277417},       // 986 and 221 933
		{"filtering", small, 0.2, 218, 83370},     // 174 and 66 696
		{"filtering", large, 0.05, 724, 960674},   // 579 and 768 539 (up to 800 027)
	} {
		alg, ok := LookupAlgorithm(tc.alg)
		if !ok {
			t.Fatalf("no algorithm %q", tc.alg)
		}
		p := Params{Mu: tc.mu, Seed: 1, Workers: 1}
		run := func() {
			if _, err := alg.Run(Input{Graph: tc.g}, p, nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runtime.GC()
		mallocs, bytes := func() (float64, float64) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(3, run), bytesPerRun(3, run)
		}()
		if mallocs > tc.mallocs || bytes > tc.bytes {
			t.Errorf("%s n=%d: %v mallocs and %.0f bytes per call, want <= %v and <= %.0f",
				tc.alg, tc.g.N, mallocs, bytes, tc.mallocs, tc.bytes)
		}
		t.Logf("%s n=%d: %v mallocs, %.0f bytes per call", tc.alg, tc.g.N, mallocs, bytes)
	}
}
