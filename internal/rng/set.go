package rng

import "math/bits"

// Set is an insert-only set of non-zero uint64 keys for the generators'
// duplicate checks, where the number of keys is known before the first
// insert: open addressing over a power-of-two table of at least twice that
// many slots, Fibonacci hashing (the Weyl constant again), linear probing,
// zero for an empty slot. It never grows and cannot delete, so Add is a
// multiply, a shift and on average under two probes, and building it is one
// allocation.
type Set struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
}

// setSlots returns the table length a Set for up to k keys needs: the next
// power of two at or above 2k, and at least 2.
func setSlots(k int) int {
	if k < 1 {
		k = 1
	}
	return 1 << bits.Len(uint(2*k-1))
}

// NewSet returns an empty set with room for k distinct keys.
func NewSet(k int) Set { return setOver(make([]uint64, setSlots(k))) }

// setOver returns an empty set over zeroed slots, a power of two of them. It
// is separate from NewSet so that SampleWithoutReplacement can keep a small
// table in an array on its stack.
func setOver(slots []uint64) Set {
	return Set{slots: slots, shift: uint(64 - bits.TrailingZeros(uint(len(slots))))}
}

// Add inserts key, which must not be zero, and reports whether it was
// already present. Adding more distinct keys than the set was made for
// eventually finds no empty slot and never returns.
func (s *Set) Add(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := key * golden >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return false
		case key:
			return true
		}
	}
}
