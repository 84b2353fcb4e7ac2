package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpc"
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
	}
}

// TestOwnedStride checks the ownership idiom every driver walks: data
// machine k's items among 0..n−1 are the stride for id := k − 1; id < n;
// id += M − 1, exactly {id < n : owner(id) = k} in ascending order, and
// ownedCount is its length. (TestFrameGuard keeps the central machine out.)
func TestOwnedStride(t *testing.T) {
	for _, M := range []int{2, 3, 7, 45} {
		f := frame{M: M}
		for _, n := range []int{0, 1, M - 2, M - 1, 1000} {
			for machine := 1; machine < M; machine++ {
				var want, got []int
				for id := 0; id < n; id++ {
					if f.owner(id) == machine {
						want = append(want, id)
					}
				}
				for id := machine - 1; id < n; id += M - 1 {
					got = append(got, id)
				}
				if !slices.Equal(got, want) {
					t.Errorf("M=%d n=%d machine %d: stride %v, owner gives %v", M, n, machine, got, want)
				}
				if c := f.ownedCount(machine, n); c != len(want) {
					t.Errorf("M=%d n=%d: ownedCount(%d) = %d, want %d", M, n, machine, c, len(want))
				}
			}
		}
	}
}

// TestDirectAllReduce checks the 2-round direct scheme on its own: a sum of
// f.counts, and a max over the float64 bits of non-negative ratios (0, a
// subnormal and +Inf among them, as HGSetCover's maxRatio folds them),
// reach every machine in exactly two rounds that charge 2M − 1 one-word
// records: M to the central machine and M − 1 replies, two words each with
// the record's header.
func TestDirectAllReduce(t *testing.T) {
	ratios := []float64{0, math.SmallestNonzeroFloat64, 2.5, math.Inf(1), 1e-300, 7}
	for _, M := range []int{2, 5, 45} {
		for _, tc := range []struct {
			name    string
			combine func(a, b int64) int64
			value   func(machine int) int64
		}{
			{"sum", sumInt64, func(machine int) int64 { return int64(7*machine - 20) }},
			{"max", maxInt64, func(machine int) int64 {
				return int64(math.Float64bits(ratios[machine%len(ratios)]))
			}},
		} {
			f := newFrame("DirectAllReduce", Params{}, M, 8, 2)
			want, best := int64(0), 0.0
			for machine := 0; machine < M; machine++ {
				f.counts[machine] = tc.value(machine)
				want += f.counts[machine]
				best = math.Max(best, ratios[machine%len(ratios)])
			}
			if tc.name == "max" {
				want = int64(math.Float64bits(best))
			}
			before := f.cluster.Metrics()
			got, err := f.directAllReduce(tc.combine)
			if err != nil {
				t.Fatal(err)
			}
			after := f.cluster.Metrics()
			if got != want {
				t.Errorf("M=%d %s: got %d (%v as a float), want %d (%v)", M, tc.name,
					got, math.Float64frombits(uint64(got)), want, math.Float64frombits(uint64(want)))
			}
			records := int64(2*M - 1)
			if rounds, msgs, words := after.Rounds-before.Rounds, after.Messages-before.Messages,
				after.WordsSent-before.WordsSent; rounds != 2 || msgs != records || words != 2*records {
				t.Errorf("M=%d %s: %d rounds, %d messages, %d words; want 2, %d, %d",
					M, tc.name, rounds, msgs, words, records, 2*records)
			}
			for machine := 1; machine < M; machine++ {
				rec, ok := f.cluster.Inbox(machine).Next()
				if !ok || len(rec.Ints) != 1 || rec.Ints[0] != want {
					t.Errorf("M=%d %s: machine %d received %v, want [%d]", M, tc.name, machine, rec.Ints, want)
				}
			}
			f.cluster.Close()
		}
	}
}

// TestPartitionByOwnerSlab checks the one-slab partitionByOwner against the
// append-grown lists it replaced, on the two group-keyed partitions of
// Algorithm 5: the vertices of each group, and the items each group
// machine emits. Each list must also end its stretch of the slab, so that
// appending to one never overwrites the next.
func TestPartitionByOwnerSlab(t *testing.T) {
	r := rng.New(9)
	for _, M := range []int{2, 3, 7, 45} {
		f := frame{M: M}
		for _, tc := range []struct{ items, kappa int }{{0, 1}, {1, 1}, {1000, 1}, {1000, 4}, {5000, 60}} {
			group := make([]int, tc.items)
			for x := range group {
				group[x] = r.Intn(tc.kappa)
			}
			for _, p := range []struct {
				parts int
				owner func(x int) int
			}{
				{tc.kappa, func(x int) int { return group[x] }},
				{M, func(x int) int { return f.owner(group[x]) }},
			} {
				got := partitionByOwner(tc.items, p.parts, p.owner)
				want := appendPartition(tc.items, p.parts, p.owner)
				if len(got) != p.parts {
					t.Fatalf("M=%d %+v: %d lists, want %d", M, tc, len(got), p.parts)
				}
				for k := range want {
					if !slices.Equal(got[k], want[k]) || cap(got[k]) != len(got[k]) {
						t.Errorf("M=%d %+v: list %d = %v (cap %d), want %v", M, tc, k, got[k], cap(got[k]), want[k])
					}
				}
			}
		}
	}
}

// appendPartition is partitionByOwner as it was before it became one slab,
// growing every list by append. The frozen classic drivers in the tests
// build their owned lists with it.
func appendPartition(count, machines int, owner func(id int) int) [][]int {
	out := make([][]int, machines)
	for id := 0; id < count; id++ {
		out[owner(id)] = append(out[owner(id)], id)
	}
	return out
}

// armPlanned arms every machine whose per-machine plan is non-empty, as the
// frozen classic drivers in the tests arm their sampling rounds.
func armPlanned[T any](c *mpc.Cluster, plan [][]T) {
	for machine, p := range plan {
		if len(p) > 0 {
			c.Arm(machine)
		}
	}
}
