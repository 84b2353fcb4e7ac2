package mpc

// Edge-case coverage for the columnar message plane: record framing
// (including empty payloads), the batched append API, self-sends, Quiet()
// accounting, buffer reuse across rounds, and degenerate trees.

import (
	"reflect"
	"testing"
)

func TestSteadyStateRoundAllocsNothingPerRecord(t *testing.T) {
	// The gate on the plane's core promise: once the column pool is warm, a
	// round moving many records allocates (amortized) nothing per record.
	// The bound is per-round, generous enough for pool misses after a GC,
	// and two orders of magnitude below what per-message allocation costs.
	const machines = 8
	const recordsPerRound = (machines - 1) * 16
	c := NewCluster(Config{Machines: machines})
	chatter := func(machine int, in *Inbox, out *Outbox) {
		for r, ok := in.Next(); ok; r, ok = in.Next() {
			_ = r.Ints[0]
		}
		if machine == 0 {
			return
		}
		for k := 0; k < 16; k++ {
			out.Begin(0)
			out.Int(int64(machine))
			out.Int(int64(k))
			out.End()
		}
	}
	for warm := 0; warm < 3; warm++ {
		if err := c.Round(chatter); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := c.Round(chatter); err != nil {
			t.Fatal(err)
		}
	})
	if avg > steadyStateAllocBound {
		t.Fatalf("steady-state round averaged %.1f allocs for %d records; the message plane should be allocation-free",
			avg, recordsPerRound)
	}
}

func TestBatchedAppendFraming(t *testing.T) {
	c := NewCluster(Config{Machines: 3})
	// Interleave records to two destinations through the batched API; the
	// framing must keep them separate and in emission order per destination.
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine != 0 {
			return
		}
		out.Begin(1)
		out.Int(10)
		out.Ints(11, 12)
		out.Float(0.5)
		out.End()
		out.Begin(2)
		out.Int(20)
		out.End()
		out.Begin(1)
		out.Floats(1.5, 2.5)
		out.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record words: (1+3+1) + (1+1) + (1+0+2) = 10.
	if w := c.Metrics().WordsSent; w != 10 {
		t.Fatalf("words = %d, want 10", w)
	}
	in1 := c.Inbox(1)
	if in1.Len() != 2 || in1.Words() != 8 {
		t.Fatalf("machine 1 inbox: len=%d words=%d", in1.Len(), in1.Words())
	}
	r1, ok := in1.Next()
	if !ok || r1.From != 0 || len(r1.Ints) != 3 || r1.Ints[2] != 12 || len(r1.Floats) != 1 || r1.Floats[0] != 0.5 {
		t.Fatalf("first record: %+v ok=%v", r1, ok)
	}
	r2, ok := in1.Next()
	if !ok || len(r2.Ints) != 0 || len(r2.Floats) != 2 || r2.Floats[1] != 2.5 {
		t.Fatalf("second record: %+v ok=%v", r2, ok)
	}
	if _, ok := in1.Next(); ok {
		t.Fatal("inbox 1 should be exhausted")
	}
	// Reset rewinds the cursor.
	in1.Reset()
	if r, ok := in1.Next(); !ok || r.Ints[0] != 10 {
		t.Fatalf("after Reset: %+v ok=%v", r, ok)
	}
	in2 := c.Inbox(2)
	if r, ok := in2.Next(); !ok || r.From != 0 || r.Ints[0] != 20 {
		t.Fatalf("machine 2 record: %+v ok=%v", r, ok)
	}
}

func TestEmptyPayloadRecord(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.Send(1, nil, nil) // header-only record
			out.Begin(1)
			out.End() // another one, via the batched API
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.WordsSent != 2 || m.Messages != 2 {
		t.Fatalf("words=%d messages=%d, want 2/2", m.WordsSent, m.Messages)
	}
	in := c.Inbox(1)
	if in.Len() != 2 || in.Words() != 2 {
		t.Fatalf("inbox: len=%d words=%d", in.Len(), in.Words())
	}
	for i := 0; i < 2; i++ {
		r, ok := in.Next()
		if !ok || r.From != 0 || len(r.Ints) != 0 || len(r.Floats) != 0 || r.Words() != 1 {
			t.Fatalf("record %d: %+v ok=%v", i, r, ok)
		}
	}
}

func TestOutboxSelfSend(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		out.SendInts(machine, int64(100+machine)) // every machine to itself
	})
	if err != nil {
		t.Fatal(err)
	}
	// A self-send is delivered at the start of the next round like any other
	// record, and the sender is charged both out and in words.
	got := make([]int64, 2)
	err = c.Round(func(machine int, in *Inbox, out *Outbox) {
		for r, ok := in.Next(); ok; r, ok = in.Next() {
			if r.From != machine {
				t.Errorf("machine %d got record from %d", machine, r.From)
			}
			got[machine] = r.Ints[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[1] != 101 {
		t.Fatalf("self-sent values = %v", got)
	}
	m := c.Metrics()
	if m.WordsSent != 4 || m.Messages != 2 {
		t.Fatalf("words=%d messages=%d", m.WordsSent, m.Messages)
	}
	// Round 1 load on each machine: in 2 + out 2 (resident 0).
	if m.MaxSpace != 4 {
		t.Fatalf("MaxSpace = %d, want 4", m.MaxSpace)
	}
}

func TestQuietAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Trace: true})
	c.SetResident(1, 7)
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Rounds != 1 {
		t.Fatalf("rounds = %d", m.Rounds)
	}
	if m.WordsSent != 0 || m.Messages != 0 {
		t.Fatalf("quiet round moved traffic: words=%d messages=%d", m.WordsSent, m.Messages)
	}
	// Space is still accounted: the resident words are the round's load.
	if m.MaxSpace != 7 {
		t.Fatalf("MaxSpace = %d, want 7", m.MaxSpace)
	}
	tr := c.Trace()
	if len(tr) != 1 || tr[0].Words != 0 || tr[0].Messages != 0 || tr[0].MaxLoad != 7 {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestColumnReuseAcrossRounds(t *testing.T) {
	// Reading the previous round's records while emitting new ones to the
	// same destinations must not corrupt either: delivered columns are owned
	// by the inboxes and recycled only after the consuming round ends.
	c := NewCluster(Config{Machines: 2})
	const rounds = 5
	for round := 0; round < rounds; round++ {
		round := round
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			sum := int64(0)
			for r, ok := in.Next(); ok; r, ok = in.Next() {
				for _, v := range r.Ints {
					sum += v
				}
				if want := int64(round); len(r.Floats) != 1 || r.Floats[0] != float64(want) {
					t.Errorf("round %d machine %d floats: %v", round, machine, r.Floats)
				}
			}
			if round > 0 && sum != int64(3*round) {
				t.Errorf("round %d machine %d sum = %d, want %d", round, machine, sum, 3*round)
			}
			other := 1 - machine
			out.Begin(other)
			out.Ints(int64(round+1), int64(round+1), int64(round+1))
			out.Float(float64(round + 1))
			out.End()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m := c.Metrics()
	if m.Messages != 2*rounds || m.WordsSent != 2*rounds*5 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestOpenRecordPanics(t *testing.T) {
	t.Run("IntOutsideRecord", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) { out.Int(1) })
	})
	t.Run("EndWithoutBegin", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) { out.End() })
	})
	t.Run("DoubleBegin", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
			if machine == 0 {
				out.Begin(1)
				out.Begin(1)
			}
		})
	})
	t.Run("UnclosedAtBarrier", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
			if machine == 0 {
				out.Begin(1)
				out.Int(1)
			}
		})
	})
}

// reserveScript runs three rounds of mixed traffic on c and returns every
// delivered record in delivery order, per receiving machine. With reserve
// set the senders announce their volume first — exactly, too high, in two
// instalments, after the first record, for zero records, and towards a
// machine they then send nothing to.
func reserveScript(t *testing.T, c *Cluster, reserve bool) [][]Record {
	t.Helper()
	M := c.M()
	got := make([][]Record, M)
	read := func(machine int, in *Inbox) {
		for r, ok := in.Next(); ok; r, ok = in.Next() {
			got[machine] = append(got[machine], Record{
				From:   r.From,
				Ints:   append([]int64(nil), r.Ints...),
				Floats: append([]float64(nil), r.Floats...),
			})
		}
	}
	for m := 1; m < M; m++ {
		c.Arm(m)
	}
	rounds := []RoundFunc{
		func(machine int, in *Inbox, out *Outbox) { // everyone → 0, exact volume
			if machine == 0 {
				return
			}
			k := 10 * machine
			if reserve {
				out.Reserve(0, k, 2*k, 0)
				out.Reserve(machine, 5, 5, 5) // never used: no record to self follows
				out.Reserve(0, 0, 0, 0)
			}
			for i := 0; i < k; i++ {
				out.SendInts(0, int64(machine), int64(i))
			}
		},
		func(machine int, in *Inbox, out *Outbox) { // 0 → everyone, reserved late and high
			read(machine, in)
			if machine != 0 {
				return
			}
			for to := 1; to < M; to++ {
				out.Begin(to)
				out.Int(int64(to))
				out.Float(0.5)
				out.End()
				if reserve {
					out.Reserve(to, 100, 100, 100)
					out.Reserve(to, 3, 3, 3)
				}
				for i := 0; i < 3; i++ {
					out.Send(to, []int64{int64(i)}, []float64{float64(to)})
				}
			}
			if reserve {
				out.Reserve(0, 7, 7, 7) // machine 0 sends itself nothing
			}
		},
		func(machine int, in *Inbox, out *Outbox) { read(machine, in) },
	}
	for i, f := range rounds {
		if err := c.Round(f); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	return got
}

func TestReserveIsInvisible(t *testing.T) {
	// Reserve is a capacity hint and nothing else: the same rounds with and
	// without it deliver the same records in the same order and leave the
	// same metrics and trace, on every scheduler and across a shard exchange.
	for _, cfg := range []Config{
		{Machines: 5, Sparse: true},
		{Machines: 5},
		{Machines: 5, Sparse: true, Workers: 2},
		{Machines: 6, Sparse: true, Shards: 2},
		{Machines: 6, Shards: 3, Workers: 2},
	} {
		cfg.Trace = true
		cfg.SpaceCap = 150 // low enough that the fan-in round violates it
		plain := NewCluster(cfg)
		want := reserveScript(t, plain, false)
		reserved := NewCluster(cfg)
		got := reserveScript(t, reserved, true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: delivery differs with Reserve\n got %v\nwant %v", cfg, got, want)
		}
		if g, w := reserved.Metrics(), plain.Metrics(); g != w {
			t.Errorf("%+v: metrics differ with Reserve\n got %+v\nwant %+v", cfg, g, w)
		}
		if !reflect.DeepEqual(reserved.Trace(), plain.Trace()) {
			t.Errorf("%+v: trace differs with Reserve\n got %+v\nwant %+v", cfg, reserved.Trace(), plain.Trace())
		}
		if plain.Metrics().Violations == 0 {
			t.Errorf("%+v: the script should exceed the cap once", cfg)
		}
		plain.Close()
		reserved.Close()
	}
}

func TestReserveWithoutRecordLeavesNoTrace(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Sparse: true, Trace: true})
	c.Arm(0)
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		out.Reserve(1, 50, 100, 50)
		out.Reserve(2, 0, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Messages != 0 || m.WordsSent != 0 {
		t.Fatalf("metrics after a bare Reserve: %+v", m)
	}
	for machine := 0; machine < 3; machine++ {
		if in := c.Inbox(machine); in.Len() != 0 || in.Words() != 0 || len(in.segs) != 0 {
			t.Fatalf("machine %d inbox holds %d records in %d columns", machine, in.Len(), len(in.segs))
		}
		if len(c.senders[machine]) != 0 {
			t.Fatalf("machine %d has senders %v", machine, c.senders[machine])
		}
	}
	if len(c.recv) != 0 {
		t.Fatalf("receivers after a bare Reserve: %v", c.recv)
	}
	o := &c.outboxes[0]
	if len(o.dests) != 0 || len(o.spared) != 0 || o.spare[1] != nil {
		t.Fatalf("outbox kept the reservation: dests=%v spared=%v", o.dests, o.spared)
	}
	// Nobody received, so the next sparse round invokes nobody.
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) { t.Errorf("machine %d invoked", machine) }); err != nil {
		t.Fatal(err)
	}
	if tr := c.Trace(); tr[1].Active != 0 || tr[0].Messages != 0 {
		t.Fatalf("trace: %+v", tr)
	}
}

func TestReserveOnLargeColumnAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops columns at random")
	}
	c := NewCluster(Config{Machines: 2})
	o := &c.outboxes[0]
	// Size one column, then let it travel through the pool: reserving the
	// same volume again must find the capacity already there, whether the
	// column is still the outbox's spare or comes back from the pool.
	o.Reserve(1, 1000, 2000, 500)
	if allocs := testing.AllocsPerRun(100, func() { o.Reserve(1, 1000, 2000, 500) }); allocs != 0 {
		t.Errorf("re-reserving a sized column: %v allocations", allocs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		o.reset()
		o.Reserve(1, 1000, 2000, 500)
	})
	if allocs != 0 {
		t.Errorf("reserving on a pooled column: %v allocations", allocs)
	}
	col := o.spare[1]
	if cap(col.recs) < 1000 || cap(col.ints) < 2000 || cap(col.floats) < 500 {
		t.Fatalf("column capacity %d/%d/%d after Reserve(1000, 2000, 500)", cap(col.recs), cap(col.ints), cap(col.floats))
	}
	o.reset()
}

func TestReservePanics(t *testing.T) {
	t.Run("InsideOpenRecord", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
			if machine == 0 {
				out.Begin(1)
				out.Reserve(1, 4, 4, 0)
			}
		})
	})
	t.Run("InvalidMachine", func(t *testing.T) {
		c := NewCluster(Config{Machines: 2})
		defer expectPanic(t)
		_ = c.Round(func(machine int, in *Inbox, out *Outbox) { out.Reserve(2, 1, 1, 0) })
	})
}

func expectPanic(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Fatal("expected panic")
	}
}

func TestTreeSingleMachine(t *testing.T) {
	c := NewCluster(Config{Machines: 1})
	tr := NewTree(c, 0, 2)
	if tr.Depth() != 0 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	// Broadcast is free; aggregation returns the root's own vector without
	// charging rounds.
	if err := tr.Broadcast(c, []int64{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	total, err := tr.AggregateSum(c, 1, func(machine int) []int64 { return []int64{41} })
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 41 {
		t.Fatalf("total = %v", total)
	}
	if c.Metrics().Rounds != 0 || c.Metrics().WordsSent != 0 {
		t.Fatalf("single-machine tree charged %+v", c.Metrics())
	}
}

func TestTreeDegreeAtLeastM(t *testing.T) {
	// Degree >= M makes the tree a star: depth 1, one hop per machine, and
	// the helpers still drain cleanly.
	c := NewCluster(Config{Machines: 5})
	tr := NewTree(c, 0, 8)
	if tr.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1 (star)", tr.Depth())
	}
	if err := tr.Broadcast(c, []int64{9}, nil); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Rounds != 2 { // depth+1
		t.Fatalf("rounds = %d, want 2", m.Rounds)
	}
	if m.Messages != 4 || m.WordsSent != 8 {
		t.Fatalf("messages=%d words=%d", m.Messages, m.WordsSent)
	}
	total, err := tr.AggregateSum(c, 1, func(machine int) []int64 { return []int64{1} })
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 5 {
		t.Fatalf("total = %v", total)
	}
	for machine := 0; machine < 5; machine++ {
		if c.Inbox(machine).Len() != 0 {
			t.Fatalf("machine %d inbox not drained", machine)
		}
	}
}
