// Package setcover provides weighted set cover instances, generators, and
// validators.
//
// An instance has n sets S_1..S_n over a ground set [m] with positive weights.
// Following the paper's notation: f is the largest frequency of any element
// (the number of sets containing it) and ∆ is the size of the largest set.
// Theorem 2.4 (the f-approximation) targets the regime n ≪ m; Theorem 4.6
// (the (1+ε)ln∆-approximation) targets m ≪ n.
package setcover

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Instance is a weighted set cover instance. Sets[i] lists the elements of
// set i in ascending order; Weights[i] > 0 is its weight.
type Instance struct {
	NumElements int
	Sets        [][]int
	Weights     []float64

	dual [][]int // element -> sets containing it, built lazily
}

// NumSets returns n, the number of sets.
func (in *Instance) NumSets() int { return len(in.Sets) }

// Validate checks structural invariants: weights positive, elements in
// range, every element covered by at least one set.
func (in *Instance) Validate() error {
	if len(in.Weights) != len(in.Sets) {
		return fmt.Errorf("setcover: %d sets but %d weights", len(in.Sets), len(in.Weights))
	}
	covered := make([]bool, in.NumElements)
	for i, s := range in.Sets {
		if in.Weights[i] <= 0 {
			return fmt.Errorf("setcover: set %d has non-positive weight %v", i, in.Weights[i])
		}
		for _, e := range s {
			if e < 0 || e >= in.NumElements {
				return fmt.Errorf("setcover: set %d contains out-of-range element %d", i, e)
			}
			covered[e] = true
		}
	}
	for e, ok := range covered {
		if !ok {
			return fmt.Errorf("setcover: element %d is not covered by any set", e)
		}
	}
	return nil
}

// Dual returns the element→sets incidence (the sets T_j of §2.2). The result
// aliases internal storage and must not be modified. It is built on first
// use in two counting passes: the frequencies carve one slab into a
// capacity-limited empty view per element, then every set index is appended
// to the views of its elements, so each list ascends.
func (in *Instance) Dual() [][]int {
	if in.dual == nil {
		freq := make([]int, in.NumElements)
		for _, s := range in.Sets {
			for _, e := range s {
				freq[e]++
			}
		}
		slab := make([]int, in.TotalSize())
		dual := make([][]int, in.NumElements)
		off := 0
		for e, f := range freq {
			dual[e] = slab[off : off : off+f]
			off += f
		}
		for i, s := range in.Sets {
			for _, e := range s {
				dual[e] = append(dual[e], i)
			}
		}
		in.dual = dual
	}
	return in.dual
}

// MaxFrequency returns f, the largest number of sets containing any element.
func (in *Instance) MaxFrequency() int {
	f := 0
	for _, sets := range in.Dual() {
		if len(sets) > f {
			f = len(sets)
		}
	}
	return f
}

// MaxSetSize returns ∆, the size of the largest set.
func (in *Instance) MaxSetSize() int {
	d := 0
	for _, s := range in.Sets {
		if len(s) > d {
			d = len(s)
		}
	}
	return d
}

// TotalSize returns Σ|S_i|, the input size N of the instance.
func (in *Instance) TotalSize() int {
	t := 0
	for _, s := range in.Sets {
		t += len(s)
	}
	return t
}

// IsCover reports whether the set indices in X cover every element.
func (in *Instance) IsCover(x []int) bool {
	covered := make([]bool, in.NumElements)
	cnt := 0
	for _, i := range x {
		if i < 0 || i >= len(in.Sets) {
			return false
		}
		for _, e := range in.Sets[i] {
			if !covered[e] {
				covered[e] = true
				cnt++
			}
		}
	}
	return cnt == in.NumElements
}

// Weight returns the total weight of the set indices in X (duplicates are
// counted once). The weights are summed in the order of each index's first
// occurrence.
func (in *Instance) Weight(x []int) float64 {
	seen := make([]bool, len(in.Sets))
	w := 0.0
	for _, i := range x {
		if !seen[i] {
			seen[i] = true
			w += in.Weights[i]
		}
	}
	return w
}

// Clone returns a deep copy of the instance (without the dual index).
func (in *Instance) Clone() *Instance {
	out := &Instance{NumElements: in.NumElements}
	out.Sets = make([][]int, len(in.Sets))
	for i, s := range in.Sets {
		out.Sets[i] = append([]int(nil), s...)
	}
	out.Weights = append([]float64(nil), in.Weights...)
	return out
}

// FromVertexCover converts a weighted vertex cover instance (graph g, vertex
// weights w) into set cover: one set per vertex containing its incident
// edges, so every element (edge) has frequency exactly 2.
func FromVertexCover(g *graph.Graph, w []float64) *Instance {
	if len(w) != g.N {
		panic("setcover: weight vector length mismatch")
	}
	in := &Instance{NumElements: g.M()}
	in.Sets = make([][]int, g.N)
	in.Weights = append([]float64(nil), w...)
	slab := make([]int, 0, 2*g.M()) // every set is a view of it
	for v := 0; v < g.N; v++ {
		first := len(slab)
		for _, id := range g.IncidentEdges(v) {
			slab = append(slab, int(id))
		}
		in.Sets[v] = slab[first:len(slab):len(slab)]
	}
	return in
}

// RandomFrequency generates an instance with n sets, m elements, and maximum
// frequency at most f: each element joins between 1 and f distinct uniformly
// random sets. Weights are uniform in [1, wmax). This is the Theorem 2.4
// workload (n ≪ m).
func RandomFrequency(n, m, f int, wmax float64, r *rng.RNG) *Instance {
	if n < 1 || f < 1 || f > n {
		panic("setcover: RandomFrequency requires 1 <= f <= n")
	}
	in := &Instance{NumElements: m}
	in.Sets = make([][]int, n)
	in.Weights = make([]float64, n)
	for i := range in.Weights {
		in.Weights[i] = r.UniformWeight(1, math.Max(wmax, 1+1e-9))
	}
	for e := 0; e < m; e++ {
		k := 1 + r.Intn(f)
		for _, s := range r.SampleWithoutReplacement(n, k) {
			in.Sets[s] = append(in.Sets[s], e)
		}
	}
	return in
}

// RandomSized generates an instance with n sets over m elements where each
// set draws its size uniformly in [1, delta] and its elements uniformly; any
// element left uncovered is then added to a random set. This is the
// Theorem 4.6 workload (m ≪ n) with ∆ ≈ delta.
func RandomSized(n, m, delta int, wmax float64, r *rng.RNG) *Instance {
	if n < 1 || m < 1 || delta < 1 {
		panic("setcover: RandomSized requires positive parameters")
	}
	if delta > m {
		delta = m
	}
	in := &Instance{NumElements: m}
	in.Sets = make([][]int, n)
	in.Weights = make([]float64, n)
	for i := 0; i < n; i++ {
		sz := 1 + r.Intn(delta)
		in.Sets[i] = r.SampleWithoutReplacement(m, sz)
		in.Weights[i] = r.UniformWeight(1, math.Max(wmax, 1+1e-9))
	}
	covered := make([]bool, m)
	sizes := make([]int, n)
	for i, s := range in.Sets {
		sizes[i] = len(s)
		for _, e := range s {
			covered[e] = true
		}
	}
	for e := 0; e < m; e++ {
		if covered[e] {
			continue
		}
		// Add to a random set that still has room under delta, if any;
		// otherwise any random set (∆ may then exceed delta by a little).
		i := r.Intn(n)
		for tries := 0; tries < 4 && sizes[i] >= delta; tries++ {
			i = r.Intn(n)
		}
		in.Sets[i] = append(in.Sets[i], e)
		sizes[i]++
	}
	return in
}
