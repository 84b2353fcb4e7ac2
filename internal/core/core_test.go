package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestFrameGuard drives the frame every driver shares on a tiny graph, laid
// out as the MIS drivers lay out theirs: next admits exactly maxIterations
// iterations and then names the frame in its error, and owner keeps every
// item off the central machine.
func TestFrameGuard(t *testing.T) {
	g := graph.GNM(40, 120, rng.New(1))
	p := Params{Mu: 0.2, Seed: 1}
	etaWords := eta(g.N, p.Mu, 8)
	f := newFrame("TinyFrame", p, dataMachines(3*g.N+2*g.M(), 4*etaWords), etaWords, g.N)
	defer f.cluster.Close()
	if f.M < 3 {
		t.Fatalf("M = %d: the layout needs two data machines to exercise owner", f.M)
	}

	for i := 0; i < maxIterations; i++ {
		if err := f.next(); err != nil {
			t.Fatalf("next #%d: %v", i+1, err)
		}
	}
	want := fmt.Sprintf("core: TinyFrame exceeded %d iterations", maxIterations)
	for i := 0; i < 2; i++ {
		if err := f.next(); err == nil || err.Error() != want {
			t.Fatalf("next past the cap: got %v, want %q", err, want)
		}
	}
	if f.iterations != maxIterations {
		t.Errorf("iterations = %d after the guard fired, want %d", f.iterations, maxIterations)
	}

	for _, items := range []int{g.N, g.M()} {
		for id := 0; id < items; id++ {
			if k := f.owner(id); k < 1 || k >= f.M {
				t.Fatalf("owner(%d) = %d, outside [1, %d)", id, k, f.M)
			}
		}
		owned := partitionByOwner(items, f.M, f.owner)
		if len(owned[0]) != 0 {
			t.Errorf("%d items: the central machine owns %v", items, owned[0])
		}
	}
}
