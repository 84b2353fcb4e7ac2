package obs

import (
	"testing"
	"time"
)

// span returns a synthetic round span with deterministic timestamps.
func span(round int) RoundSpan {
	base := time.Unix(1000, 0).Add(time.Duration(round) * time.Millisecond)
	return RoundSpan{
		Label:    "test",
		Cluster:  1,
		Round:    round,
		Active:   round * 2,
		MaxLoad:  100 + round,
		Words:    int64(10 * round),
		Messages: round,
		Start:    base,
		End:      base.Add(900 * time.Microsecond),
		Compute:  400 * time.Microsecond,
		Merge:    300 * time.Microsecond,
	}
}

func TestRingSinkRetainsNewestOldestFirst(t *testing.T) {
	r := NewRingSink(4)
	for round := 1; round <= 10; round++ {
		r.RoundDone(span(round))
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
	got := r.Snapshot()
	for i, s := range got {
		wantRound := 7 + i
		if s.Round != wantRound {
			t.Errorf("snapshot[%d].Round = %d, want %d", i, s.Round, wantRound)
		}
		if s.Words != int64(10*wantRound) {
			t.Errorf("snapshot[%d].Words = %d, want %d", i, s.Words, 10*wantRound)
		}
	}
	// Mutating the snapshot must not reach the ring's slots.
	got[0].Round = -1
	if again := r.Snapshot(); again[0].Round == -1 {
		t.Error("Snapshot shares its spans with the ring")
	}
}

func TestRingSinkPartialFill(t *testing.T) {
	r := NewRingSink(8)
	r.RoundDone(span(1))
	r.RoundDone(span(2))
	got := r.Snapshot()
	if len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Fatalf("partial snapshot wrong: %+v", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped() = %d on a non-full ring", r.Dropped())
	}
}

func TestPhaseAccumulatorMeans(t *testing.T) {
	var acc PhaseAccumulator
	if m := acc.Means(); m.Rounds != 0 || m.ComputeUS != 0 {
		t.Fatalf("empty accumulator means = %+v", m)
	}
	acc.RoundDone(RoundSpan{Compute: 100 * time.Microsecond, Merge: 50 * time.Microsecond})
	acc.RoundDone(RoundSpan{Compute: 300 * time.Microsecond, Barrier: 80 * time.Microsecond})
	m := acc.Means()
	if m.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", m.Rounds)
	}
	if m.ComputeUS != 200 {
		t.Errorf("ComputeUS = %g, want 200", m.ComputeUS)
	}
	if m.MergeUS != 25 {
		t.Errorf("MergeUS = %g, want 25", m.MergeUS)
	}
	if m.BarrierUS != 40 {
		t.Errorf("BarrierUS = %g, want 40", m.BarrierUS)
	}
}
