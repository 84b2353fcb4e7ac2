package mpc

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundDelivery(t *testing.T) {
	c := NewCluster(Config{Machines: 3})
	// Round 1: machine 0 sends to 1 and 2.
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(1, 10)
			out.SendInts(2, 20, 21)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: check inboxes.
	got := make(map[int][]int64)
	err = c.Round(func(machine int, in *Inbox, out *Outbox) {
		for m, ok := in.Next(); ok; m, ok = in.Next() {
			got[machine] = append(got[machine], m.Ints...)
			if m.From != 0 {
				t.Errorf("From = %d", m.From)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 1 || got[1][0] != 10 {
		t.Fatalf("machine 1 inbox: %v", got[1])
	}
	if len(got[2]) != 2 || got[2][0] != 20 {
		t.Fatalf("machine 2 inbox: %v", got[2])
	}
	m := c.Metrics()
	if m.Rounds != 2 {
		t.Fatalf("rounds = %d", m.Rounds)
	}
	// words: msg1 = 1 header + 1 int = 2; msg2 = 1 + 2 = 3.
	if m.WordsSent != 5 {
		t.Fatalf("words = %d", m.WordsSent)
	}
	if m.Messages != 2 {
		t.Fatalf("messages = %d", m.Messages)
	}
}

func TestSendPanicsOnBadDestination(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
		out.SendInts(5, 1)
	})
}

func TestSpaceAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 2, SpaceCap: 10})
	c.SetResident(0, 4)
	c.SetResident(1, 2)
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(1, 1, 2, 3) // 4 words
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	// machine0: resident 4 + out 4 = 8; machine1: resident 2 + in 4 = 6.
	if m.MaxSpace != 8 {
		t.Fatalf("MaxSpace = %d, want 8", m.MaxSpace)
	}
	if m.Violations != 0 {
		t.Fatal("no violation expected")
	}
	if m.MaxResident != 4 {
		t.Fatalf("MaxResident = %d", m.MaxResident)
	}
}

func TestStrictCapViolation(t *testing.T) {
	c := NewCluster(Config{Machines: 2, SpaceCap: 3, Strict: true})
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(1, 1, 2, 3, 4, 5) // 6 words > cap 3
		}
	})
	if !errors.Is(err, ErrSpaceExceeded) {
		t.Fatalf("err = %v, want ErrSpaceExceeded", err)
	}
	if c.Metrics().Violations == 0 {
		t.Fatal("violation not recorded")
	}
}

func TestLenientCapViolation(t *testing.T) {
	c := NewCluster(Config{Machines: 2, SpaceCap: 3, Strict: false})
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(1, 1, 2, 3, 4, 5)
		}
	})
	if err != nil {
		t.Fatal("lenient mode must not error")
	}
	if c.Metrics().Violations != 2 {
		// Both sender (out) and receiver (in) exceed the tiny cap.
		t.Fatalf("violations = %d, want 2", c.Metrics().Violations)
	}
}

func TestFloatsAccounted(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.Begin(1)
			out.Int(1)
			out.Float(2.5)
			out.Float(3.5)
			out.End()
		}
	})
	if c.Metrics().WordsSent != 4 { // header + 1 int + 2 floats
		t.Fatalf("words = %d", c.Metrics().WordsSent)
	}
	var got []float64
	_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
		for m, ok := in.Next(); ok; m, ok = in.Next() {
			got = append(got, m.Floats...)
		}
	})
	if len(got) != 2 || got[0] != 2.5 {
		t.Fatalf("floats = %v", got)
	}
}

func TestTreeStructure(t *testing.T) {
	c := NewCluster(Config{Machines: 13})
	tr := NewTree(c, 0, 3)
	// Root.
	if tr.parent(0) != -1 || tr.depth(0) != 0 {
		t.Fatal("root")
	}
	// Children of root are 1,2,3.
	ch := tr.children(0)
	if len(ch) != 3 || ch[0] != 1 || ch[2] != 3 {
		t.Fatalf("children(0) = %v", ch)
	}
	// Every non-root machine's parent lists it as a child.
	for machine := 1; machine < 13; machine++ {
		p := tr.parent(machine)
		found := false
		for _, ch := range tr.children(p) {
			if ch == machine {
				found = true
			}
		}
		if !found {
			t.Fatalf("machine %d not child of its parent %d", machine, p)
		}
		if tr.depth(machine) != tr.depth(p)+1 {
			t.Fatalf("depth mismatch at %d", machine)
		}
	}
	// 13 machines, degree 3: depths 0,1,1,1,2,... depth = 2? positions 4..12 are depth 2.
	if d := tr.Depth(); d != 2 {
		t.Fatalf("Depth = %d, want 2", d)
	}
}

func TestTreeNonZeroRoot(t *testing.T) {
	c := NewCluster(Config{Machines: 5})
	tr := NewTree(c, 3, 2)
	if tr.depth(3) != 0 {
		t.Fatal("root depth")
	}
	seen := map[int]bool{3: true}
	frontier := []int{3}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, ch := range tr.children(v) {
				if seen[ch] {
					t.Fatalf("machine %d reached twice", ch)
				}
				seen[ch] = true
				next = append(next, ch)
			}
		}
		frontier = next
	}
	if len(seen) != 5 {
		t.Fatalf("tree covers %d machines, want 5", len(seen))
	}
}

func TestBroadcastChargesRounds(t *testing.T) {
	c := NewCluster(Config{Machines: 9})
	tr := NewTree(c, 0, 2)
	depth := tr.Depth()
	if err := tr.Broadcast(c, []int64{7}, nil); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Rounds != depth+1 {
		t.Fatalf("rounds = %d, want %d", m.Rounds, depth+1)
	}
	// Every non-root machine receives the payload exactly once: 8 messages,
	// 2 words each.
	if m.Messages != 8 {
		t.Fatalf("messages = %d", m.Messages)
	}
	if m.WordsSent != 16 {
		t.Fatalf("words = %d", m.WordsSent)
	}
	// Inboxes are clean after the helper.
	for machine := 0; machine < 9; machine++ {
		if c.Inbox(machine).Len() != 0 {
			t.Fatalf("machine %d inbox not drained", machine)
		}
	}
}

func TestBroadcastSingleMachine(t *testing.T) {
	c := NewCluster(Config{Machines: 1})
	tr := NewTree(c, 0, 2)
	if err := tr.Broadcast(c, []int64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Rounds != 0 {
		t.Fatal("single machine broadcast should be free")
	}
}

func TestAggregateSum(t *testing.T) {
	c := NewCluster(Config{Machines: 10})
	tr := NewTree(c, 0, 3)
	total, err := tr.AggregateSum(c, 2, func(machine int) []int64 {
		return []int64{int64(machine), 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 45 || total[1] != 10 {
		t.Fatalf("total = %v, want [45 10]", total)
	}
	for machine := 0; machine < 10; machine++ {
		if c.Inbox(machine).Len() != 0 {
			t.Fatalf("machine %d inbox not drained", machine)
		}
	}
}

func TestAggregateSumNonZeroRoot(t *testing.T) {
	c := NewCluster(Config{Machines: 7})
	tr := NewTree(c, 4, 2)
	total, err := tr.AggregateSum(c, 1, func(machine int) []int64 {
		return []int64{1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 7 {
		t.Fatalf("total = %v", total)
	}
}

// TestAggregateSumIgnoresStaleInbox sums after a round that left a record
// in machine 3's inbox: that record belongs to the caller's round, not to
// the tree, so the total must be the machines' values alone.
func TestAggregateSumIgnoresStaleInbox(t *testing.T) {
	c := NewCluster(Config{Machines: 9})
	tr := NewTree(c, 0, 2)
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(3, 1000)
		}
	}); err != nil {
		t.Fatal(err)
	}
	total, err := tr.AggregateSum(c, 1, func(machine int) []int64 {
		return []int64{int64(machine)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 36 {
		t.Fatalf("total = %v, want [36]", total)
	}
}

func TestAllReduceSum(t *testing.T) {
	c := NewCluster(Config{Machines: 6})
	tr := NewTree(c, 0, 2)
	total, err := tr.AllReduceSum(c, 1, func(machine int) []int64 {
		return []int64{int64(machine + 1)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 21 {
		t.Fatalf("total = %v", total)
	}
}

func TestQuickAggregateMatchesDirectSum(t *testing.T) {
	f := func(mRaw, degRaw uint8, vals []int16) bool {
		m := int(mRaw%20) + 1
		deg := int(degRaw%4) + 2
		c := NewCluster(Config{Machines: m})
		tr := NewTree(c, 0, deg)
		want := int64(0)
		local := make([]int64, m)
		for i := 0; i < m; i++ {
			var v int64
			if i < len(vals) {
				v = int64(vals[i])
			}
			local[i] = v
			want += v
		}
		got, err := tr.AggregateSum(c, 1, func(machine int) []int64 {
			return []int64{local[machine]}
		})
		return err == nil && got[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuietChargesRound(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Rounds != 1 {
		t.Fatal("Quiet must charge one round")
	}
}

func TestResidentTracking(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	c.SetResident(0, 5)
	c.AddResident(0, 3)
	if c.Resident(0) != 8 {
		t.Fatalf("resident = %d", c.Resident(0))
	}
	c.AddResident(0, -2)
	if c.Resident(0) != 6 {
		t.Fatal("negative delta")
	}
	if c.Metrics().MaxResident != 8 {
		t.Fatalf("MaxResident = %d", c.Metrics().MaxResident)
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	c, trace := tracedCluster(Config{Machines: 2})
	c.SetResident(0, 3)
	_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.SendInts(1, 7, 8) // 3 words
		}
	})
	_ = c.Quiet()
	tr := trace.rounds
	if len(tr) != 2 {
		t.Fatalf("trace length %d, want 2", len(tr))
	}
	if tr[0].Round != 1 || tr[0].Words != 3 || tr[0].Messages != 1 {
		t.Fatalf("round 1 stat: %+v", tr[0])
	}
	// Round 1 max load: machine 0 resident 3 + out 3 = 6.
	if tr[0].MaxLoad != 6 {
		t.Fatalf("round 1 max load %d, want 6", tr[0].MaxLoad)
	}
	if tr[1].Words != 0 || tr[1].Messages != 0 {
		t.Fatalf("quiet round stat: %+v", tr[1])
	}
}

// TestCloseIdempotentAndGuard covers the Close regression: Close twice is
// fine, and Round/Quiet on a closed cluster return ErrClusterClosed
// instead of panicking on (or hanging against) the released pool.
func TestCloseIdempotentAndGuard(t *testing.T) {
	noop := func(m int, in *Inbox, out *Outbox) {}
	for _, cfg := range []Config{
		{Machines: 4},
		{Machines: 4, Workers: 3},
	} {
		c := NewCluster(cfg)
		if err := c.Round(noop); err != nil {
			t.Fatalf("cfg %+v: round on fresh cluster: %v", cfg, err)
		}
		c.Close()
		c.Close() // idempotent
		if err := c.Round(noop); !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("cfg %+v: Round after Close returned %v, want ErrClusterClosed", cfg, err)
		}
		if err := c.Quiet(); !errors.Is(err, ErrClusterClosed) {
			t.Fatalf("cfg %+v: Quiet after Close returned %v, want ErrClusterClosed", cfg, err)
		}
	}
}

// TestCloseDropsLastDeliveries: the last round's traffic is never consumed,
// so Close drops it — a closed cluster references no column, and a stale
// pointer to it pins none of that traffic.
func TestCloseDropsLastDeliveries(t *testing.T) {
	c := NewCluster(Config{Machines: 3})
	if err := c.Round(func(m int, in *Inbox, out *Outbox) {
		if m != 0 {
			out.Reserve(0, 2, 2, 0)
			out.SendInts(0, 1)
			out.SendInts(0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Inbox(0).Len(); got != 4 {
		t.Fatalf("inbox 0 holds %d records before Close, want 4", got)
	}
	c.Close()
	for m := range c.inbox {
		if in := &c.inbox[m]; in.Len() != 0 || in.Words() != 0 || in.segs != nil {
			t.Fatalf("inbox %d after Close: %d records, %d words, %d segments; want none", m, in.Len(), in.Words(), len(in.segs))
		}
	}
	if len(c.recv) != 0 {
		t.Fatalf("receivers after Close: %v, want none", c.recv)
	}
	for m := range c.outboxes {
		if o := &c.outboxes[m]; len(o.kept) != 0 || len(o.dests) != 0 {
			t.Fatalf("outbox %d after Close keeps %d columns, %d destinations; want none", m, len(o.kept), len(o.dests))
		}
	}
}

// TestRoundContextCancel: a canceled Config.Ctx fails the next round with
// the context's error.
func TestRoundContextCancel(t *testing.T) {
	noop := func(m int, in *Inbox, out *Outbox) {}
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCluster(Config{Machines: 4, Ctx: ctx})
	defer c.Close()
	c.ArmAll()
	if err := c.Round(noop); err != nil {
		t.Fatalf("round before cancel: %v", err)
	}
	cancel()
	if err := c.Round(noop); !errors.Is(err, context.Canceled) {
		t.Fatalf("round after cancel returned %v, want context.Canceled", err)
	}
}
