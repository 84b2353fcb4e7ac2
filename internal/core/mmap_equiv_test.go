package core

// A graph served from a read-only mmap'ed container must be indistinguishable
// from the heap copy: TestPinnedResults runs every registry graph algorithm on
// both against one pin, and this file shares one mapping between goroutines.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestMmapSharedAcrossGoroutines scans one mapping from many goroutines the
// way concurrent service jobs share a cached instance; under -race this
// proves the mapped views need no synchronization.
func TestMmapSharedAcrossGoroutines(t *testing.T) {
	r := rng.New(5)
	g := graph.Density(300, 0.4, r)
	g.AssignUniformWeights(r, 1, 5)
	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := graph.WriteContainerFile(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	wantSum := scanSum(g)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			if got := scanSum(mapped); got != wantSum {
				errs <- os.ErrInvalid
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal("concurrent mapped scan produced a different checksum")
		}
	}
}

func scanSum(g *graph.Graph) float64 {
	var sum float64
	for v := 0; v < g.N; v++ {
		nbrs, ws := g.NeighborsW(v)
		for i := range nbrs {
			sum += float64(nbrs[i]) + ws[i] + float64(g.IncidentEdges(v)[i])
		}
	}
	return sum
}
