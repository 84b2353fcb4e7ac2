package ledger

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// allocBytes returns how many heap bytes f allocated.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// segmentSeeds returns segment images for the fuzz corpus: three records
// as appendRecord frames them, then the same bytes torn at several points
// and with one byte flipped in a checksum, a length and a body.
func segmentSeeds() [][]byte {
	var seg []byte
	for _, r := range []*Record{
		{Seq: 1, Time: 1, Key: "k", Payload: []byte("{}")},
		{Seq: 2, Time: -5},
		{Seq: 3, Time: 1 << 62, Key: strings.Repeat("key", 20), Payload: bytes.Repeat([]byte{0xff}, 100),
			ResultHash: HashBytes([]byte("r")), MetricsHash: HashBytes([]byte("m")), Link: HashBytes([]byte("l"))},
	} {
		seg = appendRecord(seg, r)
	}
	seeds := [][]byte{seg, nil, seg[:7], seg[:len(seg)/2], seg[:len(seg)-1]}
	// The first record's checksum and length, its first body byte, and the
	// last byte of the file.
	for _, at := range []int{0, 4, 8, len(seg) - 1} {
		flipped := bytes.Clone(seg)
		flipped[at] ^= 0x40
		seeds = append(seeds, flipped)
	}
	return seeds
}

// FuzzScanSegment holds the segment parser to the decoder rule: every input
// errors with a *CorruptError inside it, reports a torn tail, or yields
// records that re-encode to exactly the bytes they were parsed from — with
// no panic, and allocating no more than a constant factor of the input
// (64 KiB aside for the fuzzing engine's own goroutines).
func FuzzScanSegment(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := make([]*Record, 0, len(data)/recordOverhead+1)
		var n uint64
		var good int64
		var torn bool
		var err error
		alloc := allocBytes(func() {
			n, good, torn, err = scanBytes(data, "seg", func(r *Record) error {
				recs = append(recs, r)
				return nil
			})
		})
		if bound := uint64(64<<10 + 4*len(data)); alloc > bound {
			t.Fatalf("scanning %d bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if n != uint64(len(recs)) || good < 0 || good > int64(len(data)) {
			t.Fatalf("%d records reported, %d delivered, %d of %d bytes good", n, len(recs), good, len(data))
		}
		var again []byte
		for _, r := range recs {
			again = appendRecord(again, r)
		}
		if !bytes.Equal(again, data[:good]) {
			t.Fatalf("%d records re-encode to %d bytes that differ from the %d parsed", n, len(again), good)
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Path != "seg" || ce.Offset != good || good >= int64(len(data)) {
				t.Fatalf("error %v at %d of %d bytes", err, good, len(data))
			}
			return
		}
		if torn == (good == int64(len(data))) {
			t.Fatalf("torn=%v with %d of %d bytes parsed", torn, good, len(data))
		}
	})
}
