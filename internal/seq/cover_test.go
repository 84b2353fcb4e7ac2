package seq

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

func harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

func TestLocalRatioSetCoverTiny(t *testing.T) {
	inst := &setcover.Instance{
		NumElements: 4,
		Sets:        [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3}},
		Weights:     []float64{1, 1, 1, 2.5},
	}
	cover, lb := LocalRatioSetCover(inst)
	if !inst.IsCover(cover) {
		t.Fatalf("not a cover: %v", cover)
	}
	f := inst.MaxFrequency()
	if w := inst.Weight(cover); w > float64(f)*lb+1e-9 {
		t.Fatalf("weight %v exceeds f*lb = %d*%v", w, f, lb)
	}
	_, opt := BruteForceSetCover(inst)
	if lb > opt+1e-9 {
		t.Fatalf("lower bound %v exceeds OPT %v", lb, opt)
	}
}

func TestLocalRatioSetCoverRandom(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(8)
		m := 4 + r.Intn(20)
		f := 1 + r.Intn(min(3, n))
		inst := setcover.RandomFrequency(n, m, f, 5, r)
		cover, lb := LocalRatioSetCover(inst)
		if !inst.IsCover(cover) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		_, opt := BruteForceSetCover(inst)
		w := inst.Weight(cover)
		ff := inst.MaxFrequency()
		if w > float64(ff)*opt+1e-9 {
			t.Fatalf("trial %d: weight %v > f*OPT = %d*%v", trial, w, ff, opt)
		}
		if lb > opt+1e-9 {
			t.Fatalf("trial %d: lb %v > OPT %v", trial, lb, opt)
		}
		if w > float64(ff)*lb+1e-9 {
			t.Fatalf("trial %d: weight %v > f*lb", trial, w)
		}
	}
}

func TestCoverLocalRatioIncremental(t *testing.T) {
	inst := &setcover.Instance{
		NumElements: 3,
		Sets:        [][]int{{0, 1}, {1, 2}},
		Weights:     []float64{2, 3},
	}
	lr := NewCoverLocalRatio(inst)
	if lr.Covered(0) {
		t.Fatal("nothing covered yet")
	}
	eps := lr.Process(1) // both sets contain element 1; min weight 2
	if eps != 2 {
		t.Fatalf("eps = %v, want 2", eps)
	}
	if !lr.InCover(0) {
		t.Fatal("set 0 should have zero weight now")
	}
	if lr.Residual(1) != 1 {
		t.Fatalf("residual(1) = %v, want 1", lr.Residual(1))
	}
	if !lr.Covered(0) || !lr.Covered(1) {
		t.Fatal("elements 0,1 covered by set 0")
	}
	if lr.Covered(2) {
		t.Fatal("element 2 uncovered")
	}
	// Processing a covered element is a no-op.
	if e := lr.Process(0); e != 0 {
		t.Fatalf("covered element processed with eps %v", e)
	}
	eps = lr.Process(2)
	if eps != 1 {
		t.Fatalf("eps = %v, want 1", eps)
	}
	if len(lr.Cover()) != 2 {
		t.Fatalf("cover = %v", lr.Cover())
	}
	if lr.SumEps != 3 {
		t.Fatalf("SumEps = %v", lr.SumEps)
	}
}

func TestCoverLocalRatioOrderInvariantApproximation(t *testing.T) {
	// Whatever order elements are processed in, the f-approximation holds.
	r := rng.New(7)
	inst := setcover.RandomFrequency(8, 15, 3, 4, r)
	_, opt := BruteForceSetCover(inst)
	f := float64(inst.MaxFrequency())
	for trial := 0; trial < 20; trial++ {
		lr := NewCoverLocalRatio(inst)
		for _, j := range r.Perm(inst.NumElements) {
			if !lr.Covered(j) {
				lr.Process(j)
			}
		}
		cover := append([]int(nil), lr.Cover()...)
		if !inst.IsCover(cover) {
			t.Fatalf("order trial %d: incomplete cover", trial)
		}
		if w := inst.Weight(cover); w > f*opt+1e-9 {
			t.Fatalf("order trial %d: %v > f*OPT", trial, w)
		}
	}
}

func TestGreedySetCoverExact(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(8)
		m := 4 + r.Intn(15)
		inst := setcover.RandomSized(n, m, 5, 4, r)
		cover := GreedySetCover(inst, 0)
		if !inst.IsCover(cover) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		_, opt := BruteForceSetCover(inst)
		bound := harmonic(inst.MaxSetSize()) * opt
		if w := inst.Weight(cover); w > bound+1e-9 {
			t.Fatalf("trial %d: greedy %v > H_delta * OPT %v", trial, w, bound)
		}
	}
}

func TestGreedySetCoverEps(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(8)
		m := 4 + r.Intn(15)
		inst := setcover.RandomSized(n, m, 5, 4, r)
		eps := 0.3
		cover := GreedySetCover(inst, eps)
		if !inst.IsCover(cover) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		_, opt := BruteForceSetCover(inst)
		bound := (1 + eps) * harmonic(inst.MaxSetSize()) * opt
		if w := inst.Weight(cover); w > bound+1e-9 {
			t.Fatalf("trial %d: eps-greedy %v > (1+eps)H*OPT %v", trial, w, bound)
		}
	}
}

func TestBruteForceSetCoverKnown(t *testing.T) {
	inst := &setcover.Instance{
		NumElements: 4,
		Sets:        [][]int{{0, 1}, {2, 3}, {0, 1, 2, 3}},
		Weights:     []float64{1, 1, 1.5},
	}
	cover, w := BruteForceSetCover(inst)
	if math.Abs(w-1.5) > 1e-12 {
		t.Fatalf("OPT = %v, want 1.5 (the big set)", w)
	}
	if !inst.IsCover(cover) {
		t.Fatal("brute cover invalid")
	}
}

func TestBruteForceVertexCoverKnown(t *testing.T) {
	g := graph.Star(5)
	w := []float64{1, 10, 10, 10, 10}
	cover, cw := BruteForceVertexCover(g, w)
	if cw != 1 || !cover[0] {
		t.Fatalf("star cover should be centre: got %v weight %v", cover, cw)
	}
	if !graph.IsVertexCover(g, cover) {
		t.Fatal("invalid cover")
	}
}

func TestVertexCoverViaSetCoverAgreesWithBrute(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		g := graph.GNM(8, 12, r)
		w := make([]float64, g.N)
		for i := range w {
			w[i] = r.UniformWeight(1, 5)
		}
		inst := setcover.FromVertexCover(g, w)
		cover, lb := LocalRatioSetCover(inst)
		coverSet := map[int]bool{}
		for _, v := range cover {
			coverSet[v] = true
		}
		if !graph.IsVertexCover(g, coverSet) {
			t.Fatalf("trial %d: invalid vertex cover", trial)
		}
		_, opt := BruteForceVertexCover(g, w)
		got := graph.CoverWeight(coverSet, w)
		if got > 2*opt+1e-9 {
			t.Fatalf("trial %d: cover %v > 2*OPT %v", trial, got, opt)
		}
		if lb > opt+1e-9 {
			t.Fatalf("trial %d: lb %v > OPT %v", trial, lb, opt)
		}
	}
}
