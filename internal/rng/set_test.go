package rng

import (
	"slices"
	"testing"
)

// TestSetMatchesMap drives Set and a map[uint64]bool with the same keys and
// requires the same answer from every Add, then re-inserts every key. Each
// set is made for exactly the number of distinct keys it is given, so it
// ends filled to its declared capacity.
func TestSetMatchesMap(t *testing.T) {
	r := New(99)
	fill := func(k int, key func(i int) uint64) []uint64 {
		keys := make([]uint64, k)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	var pairs []uint64 // the generators' keys: min<<32 | max
	for u := uint64(0); u < 60; u++ {
		for v := u + 1; v < 60; v++ {
			pairs = append(pairs, u<<32|v)
		}
	}
	// A set for 32 keys has 64 slots and hashes with key*golden>>58.
	// goldenInv undoes the multiplication, so all of these land in slot 5
	// and the probe sequence has to walk past every earlier one.
	oneSlot := fill(32, func(i int) uint64 { return (5<<58 | uint64(i+1)) * goldenInv })
	for _, k := range oneSlot {
		if slot := k * golden >> 58; slot != 5 {
			t.Fatalf("key %#x hashes to slot %d of 64, not 5", k, slot)
		}
	}
	for name, keys := range map[string][]uint64{
		"one key":             {1},
		"random":              fill(5000, func(int) uint64 { return r.Uint64() | 1 }),
		"random with repeats": fill(5000, func(int) uint64 { return uint64(r.Intn(700)) + 1 }),
		"consecutive":         fill(3000, func(i int) uint64 { return uint64(i) + 1 }),
		"packed pairs":        pairs,
		"one slot":            oneSlot,
		"extreme values":      {1, ^uint64(0), 1 << 63, 1<<63 - 1, 1 << 32, 1<<32 - 1},
	} {
		distinct := map[uint64]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		set := NewSet(len(distinct))
		seen := map[uint64]bool{}
		for i, k := range keys {
			if got := set.Add(k); got != seen[k] {
				t.Fatalf("%s: Add(%#x), insert %d, reported present=%v; the map says %v", name, k, i, got, seen[k])
			}
			seen[k] = true
		}
		for _, k := range keys {
			if !set.Add(k) {
				t.Fatalf("%s: re-inserted key %#x reported absent", name, k)
			}
		}
	}
}

func TestSetSlots(t *testing.T) {
	for _, tc := range [][2]int{{0, 2}, {1, 2}, {2, 4}, {3, 8}, {4, 8}, {5, 16}, {16, 32}, {17, 64}, {1 << 20, 1 << 21}, {1<<20 + 1, 1 << 22}} {
		if got := setSlots(tc[0]); got != tc[1] {
			t.Errorf("setSlots(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

// TestSampleWithoutReplacementAllocatesOnlyItsResult: up to 16 indices the
// duplicate table is an array on the stack.
func TestSampleWithoutReplacementAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := New(4)
	for _, k := range []int{1, 3, 16} {
		if allocs := testing.AllocsPerRun(100, func() { r.SampleWithoutReplacement(1000, k) }); allocs != 1 {
			t.Errorf("SampleWithoutReplacement(1000, %d) made %v allocations, want 1", k, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.SampleWithoutReplacement(1000, 17) }); allocs != 2 {
		t.Errorf("SampleWithoutReplacement(1000, 17) made %v allocations, want 2 (result and table)", allocs)
	}
}

// TestSampleAppendIsSampleWithoutReplacement: the appending sampler makes
// the same draws as SampleWithoutReplacement, in the same order, and leaves
// the generator where it leaves it, whatever the reused duplicate table held
// and whatever dst already holds. The table starts too short for the larger
// draws, so the first of them replaces it.
func TestSampleAppendIsSampleWithoutReplacement(t *testing.T) {
	prefix := []int{-1, -2, -3}
	table := make([]uint64, 8)
	dst := append([]int(nil), prefix...)
	for _, tc := range []struct{ n, k int }{
		{1000, 0}, {1000, 1}, {1000, 16}, {1000, 17}, {5000, 1000}, {1000, 16}, {1000, 1000}, {17, 17}, {1, 1}, {0, 0},
	} {
		want, got := New(uint64(tc.n+tc.k)), New(uint64(tc.n+tc.k))
		sample := want.SampleWithoutReplacement(tc.n, tc.k)
		if slots := setSlots(tc.k); cap(table) >= slots {
			// Leave in the slots this draw uses, and nothing else, the keys
			// of its last quarter, each where Add would look for it: a slot
			// left uncleared changes a draw, and the table never fills.
			clear(table[:slots])
			dirty := setOver(table[:slots])
			for _, v := range sample[len(sample)*3/4:] {
				dirty.Add(uint64(v) + 1)
			}
		}
		dst, table = got.SampleAppend(dst[:len(prefix)], table, tc.n, tc.k)
		if !slices.Equal(dst[:len(prefix)], prefix) || !slices.Equal(dst[len(prefix):], sample) {
			t.Errorf("SampleAppend(n=%d, k=%d) appended %v to %v, want %v", tc.n, tc.k, dst[len(prefix):], dst[:len(prefix)], sample)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Errorf("n=%d, k=%d: next draw %#x after SampleAppend, %#x after SampleWithoutReplacement", tc.n, tc.k, a, b)
		}
	}
}

// TestSampleAppendWarmAllocatesNothing: with dst and table warm, a draw of
// any size allocates nothing.
func TestSampleAppendWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := New(5)
	var dst []int
	var table []uint64
	for _, k := range []int{0, 1, 16, 17, 1000, 5000} {
		dst, table = r.SampleAppend(dst[:0], table, 5000, k)
		if allocs := testing.AllocsPerRun(100, func() { dst, table = r.SampleAppend(dst[:0], table, 5000, k) }); allocs != 0 {
			t.Errorf("warm SampleAppend(5000, %d) made %v allocations, want 0", k, allocs)
		}
	}
}

// benchSample keeps the benchmark's result alive.
var benchSample []int

// BenchmarkSampleWithoutReplacementSmallK is the call setcover.RandomFrequency
// makes once per element (k <= f = 3) and the per-vertex calls inside
// BMatching and HGSetCover rounds.
func BenchmarkSampleWithoutReplacementSmallK(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	for i := 0; i < b.N; i++ {
		benchSample = r.SampleWithoutReplacement(8000, 3)
	}
}
