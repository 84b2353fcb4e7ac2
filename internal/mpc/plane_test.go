package mpc

// Edge-case coverage for the columnar message plane: record framing
// (including empty payloads), the batched append API, self-sends, Quiet()
// accounting, buffer reuse across rounds, and degenerate trees.

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
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
	c, trace := tracedCluster(Config{Machines: 3})
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
	tr := trace.rounds
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

// planeMsg is one scripted record for the framing contract tests: who sends
// it, to whom, with what payload, and through which of the three ways of
// framing a record.
type planeMsg struct {
	from, to int
	ints     []int64
	floats   []float64
	api      int // 0 SendInts (Send when there are floats), 1 Send, 2 Begin/…/End
}

func (m planeMsg) words() int { return 1 + len(m.ints) + len(m.floats) }

func (m planeMsg) emit(out *Outbox) {
	switch {
	case m.api == 2:
		out.Begin(m.to)
		out.Ints(m.ints...)
		out.Floats(m.floats...)
		out.End()
	case m.api == 1 || len(m.floats) > 0:
		out.Send(m.to, m.ints, m.floats)
	default:
		out.SendInts(m.to, m.ints...)
	}
}

// shapeChangeScript is one round of traffic on M machines in which every
// data machine m sends machine 0 and a neighbour a column that changes shape
// mid-round — k one-word records, then a two-word one, then one with floats,
// then an empty one, then a one-word record again — and, to two further
// machines, columns that stay uniform: a run of header-only records and a
// run of two-word records.
func shapeChangeScript(M int) []planeMsg {
	var script []planeMsg
	for m := 1; m < M; m++ {
		next := func(d int) int { return 1 + (m-1+d)%(M-1) }
		for _, to := range []int{0, next(1)} {
			for i := 0; i < 3+m; i++ {
				script = append(script, planeMsg{from: m, to: to, ints: []int64{int64(100*m + i)}, api: i % 3})
			}
			script = append(script,
				planeMsg{from: m, to: to, ints: []int64{int64(m), int64(-m)}},
				planeMsg{from: m, to: to, ints: []int64{7}, floats: []float64{0.25, float64(m)}},
				planeMsg{from: m, to: to},
				planeMsg{from: m, to: to, ints: []int64{int64(m)}, api: 2},
			)
		}
		for i := 0; i < m; i++ {
			script = append(script,
				planeMsg{from: m, to: next(2), api: i % 3},
				planeMsg{from: m, to: next(3), ints: []int64{int64(i), int64(m)}, api: i % 3},
			)
		}
	}
	return script
}

func TestColumnShapeChangeMidRound(t *testing.T) {
	// A column that starts uniform and changes shape mid-round, beside
	// columns that stay uniform (zero-word and two-word records), must be
	// indistinguishable from per-record framing: the expectations below are
	// computed record by record from the script, never from a column.
	for _, cfg := range []Config{
		{Machines: 6, Sparse: true},
		{Machines: 6},
		{Machines: 6, Sparse: true, Workers: 2},
		{Machines: 6, Workers: 2},
	} {
		M := cfg.Machines
		script := shapeChangeScript(M)
		want := make([][]Record, M)
		in, out := make([]int, M), make([]int, M)
		var words int64
		for _, m := range script { // script order is (sender, emission) order
			want[m.to] = append(want[m.to], Record{From: m.from, Ints: append([]int64(nil), m.ints...), Floats: append([]float64(nil), m.floats...)})
			in[m.to] += m.words()
			out[m.from] += m.words()
			words += int64(m.words())
		}
		active := func(n int) int {
			if cfg.Sparse {
				return n
			}
			return M
		}
		// A machine's load in the sending round is what it sent plus what
		// the round's merge delivered to it; the reading round moves nothing.
		load := 0
		for m := range in {
			load = max(load, in[m]+out[m])
		}
		wantTrace := []roundModel{
			{Round: 1, Words: words, Messages: len(script), MaxLoad: load, Active: active(M - 1)},
			{Round: 2, Active: active(M)},
		}
		wantMetrics := Metrics{Machines: M, Rounds: 2, WordsSent: words, Messages: int64(len(script)), MaxSpace: load,
			ActiveSum: int64(wantTrace[0].Active + wantTrace[1].Active), ActiveMax: active(M)}

		c, trace := tracedCluster(cfg)
		for m := 1; m < M; m++ {
			c.Arm(m)
		}
		err := c.Round(func(machine int, _ *Inbox, out *Outbox) {
			for _, m := range script {
				if m.from == machine {
					m.emit(out)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// White box: a delivered column carries a per-record index exactly
		// when its records differ in shape.
		uniform, framed := 0, 0
		for dest := range c.inbox {
			for _, sg := range c.inbox[dest].segs {
				mixed := false
				for i := 1; i < sg.col.n; i++ {
					mixed = mixed || sg.col.meta(i) != sg.col.meta(0)
				}
				if mixed && len(sg.col.recs) != sg.col.n || !mixed && len(sg.col.recs) != 0 {
					t.Errorf("%+v: column %d→%d: %d index entries for %d records (mixed shapes: %v)",
						cfg, sg.from, dest, len(sg.col.recs), sg.col.n, mixed)
				}
				if mixed {
					framed++
				} else {
					uniform++
				}
			}
		}
		if framed != 2*(M-1) || uniform != 2*(M-1) {
			t.Errorf("%+v: %d framed and %d uniform columns delivered, want %d each", cfg, framed, uniform, 2*(M-1))
		}
		got, again := make([][]Record, M), make([][]Record, M)
		read := func(in *Inbox, into *[]Record) {
			for r, ok := in.Next(); ok; r, ok = in.Next() {
				*into = append(*into, Record{From: r.From, Ints: append([]int64(nil), r.Ints...), Floats: append([]float64(nil), r.Floats...)})
			}
		}
		err = c.Round(func(machine int, inbox *Inbox, _ *Outbox) {
			if inbox.Len() != len(want[machine]) || inbox.Words() != in[machine] {
				t.Errorf("%+v: machine %d inbox holds %d records / %d words, want %d / %d",
					cfg, machine, inbox.Len(), inbox.Words(), len(want[machine]), in[machine])
			}
			read(inbox, &got[machine])
			inbox.Reset() // a second pass replays uniform and framed segments alike
			read(inbox, &again[machine])
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: delivery differs from per-record framing\n got %v\nwant %v", cfg, got, want)
		}
		if !reflect.DeepEqual(again, want) {
			t.Errorf("%+v: delivery after Reset differs\n got %v\nwant %v", cfg, again, want)
		}
		if m := c.Metrics(); m != wantMetrics {
			t.Errorf("%+v: metrics\n got %+v\nwant %+v", cfg, m, wantMetrics)
		}
		if !reflect.DeepEqual(trace.rounds, wantTrace) {
			t.Errorf("%+v: trace\n got %+v\nwant %+v", cfg, trace.rounds, wantTrace)
		}
		c.Close()
	}
}

func TestUniformHeaderOnlyColumn(t *testing.T) {
	// n records of zero words are n accounted words and no payload at all.
	const n = 1000
	c := NewCluster(Config{Machines: 2})
	defer c.Close()
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			for i := 0; i < n; i++ {
				out.SendInts(1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	col := c.inbox[1].segs[0].col
	if col.n != n || col.accounted() != n || len(col.recs) != 0 || len(col.ints) != 0 || len(col.floats) != 0 {
		t.Fatalf("column: n=%d words=%d index=%d ints=%d floats=%d", col.n, col.accounted(), len(col.recs), len(col.ints), len(col.floats))
	}
	if m := c.Metrics(); m.Messages != n || m.WordsSent != n || m.MaxSpace != n {
		t.Fatalf("metrics: %+v", m)
	}
	in := c.Inbox(1)
	if in.Len() != n || in.Words() != n {
		t.Fatalf("inbox: len=%d words=%d", in.Len(), in.Words())
	}
	seen := 0
	for r, ok := in.Next(); ok; r, ok = in.Next() {
		if r.From != 0 || len(r.Ints) != 0 || len(r.Floats) != 0 || r.Words() != 1 {
			t.Fatalf("record %d: %+v", seen, r)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("read %d records, want %d", seen, n)
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
// machine they then send nothing to. Round 1's columns stay uniform (every
// record two words); round 2's change shape after the first record, so the
// late reservations land once on a uniform column and once on a framed one.
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
				}
				out.Send(to, []int64{0}, []float64{float64(to)}) // same shape: still uniform
				out.SendInts(to, 1, 2)                           // another shape: framed from here
				if reserve {
					out.Reserve(to, 3, 3, 3)
				}
				out.Send(to, []int64{3}, []float64{float64(to)})
				out.SendInts(to)
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

// framedThenUniform is two clusters' traffic, one sending round each, from
// machine 1 to machine 0: the first cluster's column mixes shapes, so it is
// framed; the second cluster's is uniform.
var framedThenUniform = [2][]planeMsg{
	{
		{from: 1, to: 0, ints: []int64{1}},
		{from: 1, to: 0, ints: []int64{2, 3}, floats: []float64{0.5}},
		{from: 1, to: 0},
		{from: 1, to: 0, ints: []int64{4, 5, 6}, api: 2},
	},
	{
		{from: 1, to: 0, ints: []int64{7}},
		{from: 1, to: 0, ints: []int64{8}, api: 1},
		{from: 1, to: 0, ints: []int64{9}, api: 2},
	},
}

// msgScript returns a script that sends msgs in one round — each sender
// first reserving every destination's exact volume when reserve is set —
// and reads them in the next, in the shape of reserveScript.
func msgScript(msgs []planeMsg) func(*testing.T, *Cluster, bool) [][]Record {
	return func(t *testing.T, c *Cluster, reserve bool) [][]Record {
		t.Helper()
		got := make([][]Record, c.M())
		for _, m := range msgs {
			c.Arm(m.from)
		}
		send := func(machine int, _ *Inbox, out *Outbox) {
			if reserve {
				recs, ints, floats := make([]int, c.M()), make([]int, c.M()), make([]int, c.M())
				for _, m := range msgs {
					if m.from == machine {
						recs[m.to]++
						ints[m.to] += len(m.ints)
						floats[m.to] += len(m.floats)
					}
				}
				for to := range recs {
					out.Reserve(to, recs[to], ints[to], floats[to])
				}
			}
			for _, m := range msgs {
				if m.from == machine {
					m.emit(out)
				}
			}
		}
		read := func(machine int, in *Inbox, _ *Outbox) {
			for r, ok := in.Next(); ok; r, ok = in.Next() {
				got[machine] = append(got[machine], Record{
					From:   r.From,
					Ints:   append([]int64(nil), r.Ints...),
					Floats: append([]float64(nil), r.Floats...),
				})
			}
		}
		for i, f := range []RoundFunc{send, read} {
			if err := c.Round(f); err != nil {
				t.Fatalf("round %d: %v", i+1, err)
			}
		}
		return got
	}
}

func TestReserveIsInvisible(t *testing.T) {
	// Reserve is a capacity hint and nothing else: the same rounds with and
	// without it deliver the same records in the same order and leave the
	// same metrics and trace, on every scheduler — on a first cluster, and on
	// a second one whose reservations the first one's columns serve. The
	// last case reuses a column framed with mixed shapes for a uniform
	// reservation: nothing of its framing may survive the reset.
	for _, cfg := range []Config{
		{Machines: 5, Sparse: true},
		{Machines: 5},
		{Machines: 5, Sparse: true, Workers: 2},
		{Machines: 6, Workers: 2},
	} {
		cfg.SpaceCap = 150 // low enough that reserveScript's fan-in round violates it
		for k, scripts := range [][2]func(*testing.T, *Cluster, bool) [][]Record{
			{reserveScript, reserveScript},
			{msgScript(framedThenUniform[0]), msgScript(framedThenUniform[1])},
		} {
			// The plain runs go first: each one's Close empties the hand-off
			// set, so the reserved clusters then run back to back.
			var want [2][][]Record
			var plain [2]*Cluster
			var plainTrace [2]*modelTrace
			for i, script := range scripts {
				plain[i], plainTrace[i] = tracedCluster(cfg)
				want[i] = script(t, plain[i], false)
				plain[i].Close()
			}
			if k == 0 && plain[0].Metrics().Violations == 0 {
				t.Errorf("%+v: the script should exceed the cap once", cfg)
			}
			for i, script := range scripts {
				handed := handOffLen()
				reserved, trace := tracedCluster(cfg)
				got := script(t, reserved, true)
				if i == 1 && handOffLen() == handed {
					t.Errorf("%+v: cluster 2 took none of the %d columns cluster 1 handed off", cfg, handed)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%+v: cluster %d: delivery differs with Reserve\n got %v\nwant %v", cfg, i+1, got, want[i])
				}
				if g, w := reserved.Metrics(), plain[i].Metrics(); g != w {
					t.Errorf("%+v: cluster %d: metrics differ with Reserve\n got %+v\nwant %+v", cfg, i+1, g, w)
				}
				if !reflect.DeepEqual(trace.rounds, plainTrace[i].rounds) {
					t.Errorf("%+v: cluster %d: trace differs with Reserve\n got %+v\nwant %+v", cfg, i+1, trace.rounds, plainTrace[i].rounds)
				}
				reserved.Close()
			}
		}
	}
}

// handOffLen returns the number of columns in the hand-off set.
func handOffLen() int {
	handoff.Lock()
	defer handoff.Unlock()
	return len(handoff.cols)
}

func TestReserveWithoutRecordLeavesNoTrace(t *testing.T) {
	c, trace := tracedCluster(Config{Machines: 3, Sparse: true})
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
	if tr := trace.rounds; tr[1].Active != 0 || tr[0].Messages != 0 {
		t.Fatalf("trace: %+v", tr)
	}
}

func TestReserveOnLargeColumnAllocatesNothing(t *testing.T) {
	c := NewCluster(Config{Machines: 2})
	o := &c.outboxes[0]
	// Size one column, then release it unclaimed: reserving the same volume
	// again must find the capacity already there, whether the column is
	// still the outbox's spare or is back among the columns it keeps.
	o.Reserve(1, 1000, 2000, 500)
	if allocs := testing.AllocsPerRun(100, func() { o.Reserve(1, 1000, 2000, 500) }); allocs != 0 {
		t.Errorf("re-reserving a sized column: %v allocations", allocs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		o.reset()
		o.Reserve(1, 1000, 2000, 500)
	})
	if allocs != 0 {
		t.Errorf("reserving on a kept column: %v allocations", allocs)
	}
	col := o.spare[1]
	if cap(col.ints) < 2000 || cap(col.floats) < 500 {
		t.Fatalf("column capacity %d/%d after Reserve(1000, 2000, 500)", cap(col.ints), cap(col.floats))
	}
	// A uniform column frames any number of records with a count, so the
	// reservation sizes no index for it — and filling it allocates nothing.
	// (AllocsPerRun calls the function once to warm up, then once more.)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			o.SendInts(1, int64(i), int64(i))
		}
	}); allocs != 0 {
		t.Errorf("filling the reserved uniform column: %v allocations", allocs)
	}
	if col != o.byDest[1] || col.n != 1000 || len(col.recs) != 0 || len(col.ints) != 2000 {
		t.Fatalf("uniform column after 1000 two-word records: n=%d index=%d ints=%d", col.n, len(col.recs), len(col.ints))
	}
	// Once a record of another shape has framed the column, Reserve sizes
	// the index like the payload buffers.
	o.SendInts(1, 7)
	if len(col.recs) != 1001 || col.n != 1001 {
		t.Fatalf("framed column: n=%d index=%d, want 1001/1001", col.n, len(col.recs))
	}
	o.Reserve(1, 5000, 5000, 0)
	if cap(col.recs) < 6001 || cap(col.ints) < 7001 {
		t.Fatalf("framed column capacity %d/%d after Reserve(5000, 5000, 0)", cap(col.recs), cap(col.ints))
	}
	putColumn(col)
	o.reset()
}

// allocated returns how many heap objects f allocated, and their bytes.
func allocated(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func TestReservedColumnsStayWithTheirOwner(t *testing.T) {
	// The traffic shape of Algorithm 6, ten times over: data machines 1–44
	// reserve and send a sampling-sized column to the central machine, the
	// central machine takes it in during a round of its own, and every
	// machine sends every machine one word. A column Reserve sized must come
	// back to the outbox that reserved it: no fan-out column may carry
	// sampling-sized capacity, the fan-in must reuse its columns without
	// allocating, and a second cluster's first fan-in must be served from the
	// columns the first one handed off at Close.
	const M, recs, words, iterations = 45, 100, 6000, 10
	round := func(c *Cluster, f RoundFunc) {
		t.Helper()
		if err := c.Round(f); err != nil {
			t.Fatal(err)
		}
	}
	nop := func(int, *Inbox, *Outbox) {}
	// One P: the pool's per-P chains stay where the warm-up below grows
	// them. A warm round that moves nothing allocates only its executor
	// closure; the fan-in may allocate no more. Closing that idle cluster,
	// which reserved nothing, empties the hand-off set of earlier tests'
	// columns, two collections empty the pool, and none runs after.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	idle := NewCluster(Config{Machines: 1})
	round(idle, nop)
	perRound, _ := allocated(func() { round(idle, nop) })
	idle.Close()
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	payload := make([]int64, words/recs)
	fanIn := func(machine int, _ *Inbox, out *Outbox) {
		if machine != 0 {
			out.Reserve(0, recs, words, 0)
			for i := 0; i < recs; i++ {
				out.SendInts(0, payload...)
			}
		}
	}
	// The central machine takes the sample in and computes in a round of
	// its own, which releases the sampling columns before the fan-out runs.
	central := func(c *Cluster) {
		t.Helper()
		if in := c.Inbox(0); in.Len() != (M-1)*recs || in.Words() != (M-1)*(recs+words) {
			t.Errorf("central inbox holds %d records / %d words", in.Len(), in.Words())
		}
		if err := c.Quiet(); err != nil {
			t.Fatal(err)
		}
	}
	wideFanOuts := 0
	fanOut := func(machine int, _ *Inbox, out *Outbox) {
		for to := 0; to < M; to++ {
			out.SendInts(to, int64(machine))
		}
		for _, col := range out.byDest {
			if cap(col.ints) >= words {
				wideFanOuts++
			}
		}
	}
	// fanIns runs the script on c and returns the allocations of each fan-in.
	fanIns := func(c *Cluster) (allocs []uint64) {
		for i := 0; i < iterations; i++ {
			a, _ := allocated(func() { round(c, fanIn) })
			allocs = append(allocs, a)
			central(c)
			round(c, fanOut)
		}
		return allocs
	}
	closeEmpty := func(c *Cluster) {
		t.Helper()
		c.Close()
		for m := range c.outboxes {
			if n := len(c.outboxes[m].kept); n != 0 {
				t.Errorf("machine %d keeps %d columns after Close", m, n)
			}
		}
	}

	warm := NewCluster(Config{Machines: M})
	for i := 0; i < 3; i++ {
		round(warm, fanOut)
	}
	warm.Close()

	first := NewCluster(Config{Machines: M})
	for i, a := range fanIns(first)[1:] {
		if a > perRound {
			t.Errorf("fan-in %d allocated %d objects, an idle round %d; a reserved column should come back to its outbox",
				i+2, a, perRound)
		}
	}
	closeEmpty(first)
	handed := map[*column]bool{}
	handoff.Lock()
	for _, col := range handoff.cols {
		handed[col] = cap(col.ints) >= words
	}
	handoff.Unlock()
	if len(handed) != M-1 {
		t.Fatalf("Close handed off %d columns, want the %d reserved ones", len(handed), M-1)
	}

	second := NewCluster(Config{Machines: M})
	served := 0
	_, bytes := allocated(func() {
		round(second, func(machine int, in *Inbox, out *Outbox) {
			fanIn(machine, in, out)
			if machine != 0 && handed[out.byDest[0]] {
				served++
			}
		})
	})
	// The new outboxes allocate their destination tables, but no column:
	// all the fan-in allocates is less than one reservation's payload.
	if served != M-1 || bytes >= words*8 {
		t.Errorf("second cluster's first fan-in: %d of %d columns from the hand-off set, %d bytes allocated",
			served, M-1, bytes)
	}
	central(second)
	round(second, fanOut)
	fanIns(second)
	closeEmpty(second)
	if wideFanOuts != 0 {
		t.Errorf("%d fan-out columns carried sampling-sized capacity", wideFanOuts)
	}
}

func TestUnreservedColumnsGrowByDoubling(t *testing.T) {
	// A column no Reserve sized comes from the pool, which a collection
	// empties, and grows as records are written into it. Every growth at
	// least doubles its buffers, so what they allocate on the way up sums to
	// at most about twice the capacity they end with; grown a quarter at a
	// time, as append grows a large slice, it sums to about five times.
	// Each round below fills its payload buffers to 44 032 words, a capacity
	// the doubling reaches from empty (…, 17 408, 44 032), so the words its
	// column holds are close to the capacity it ends with: one fan-in of
	// one-word records, and one whose records alternate an int and a float,
	// which materialises the framing index (88 064 entries, of 109 568).
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const words = 44032
	c := NewCluster(Config{Machines: 2})
	round := func(f RoundFunc) {
		t.Helper()
		if err := c.Round(f); err != nil {
			t.Fatal(err)
		}
	}
	// One P, so the rounds take columns from the one per-P slot two
	// collections have emptied. A first small fan-in lets the outbox and
	// the inbox allocate their tables, and no collection runs after.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	round(func(machine int, _ *Inbox, out *Outbox) { out.SendInts(1, int64(machine)) })
	round(func(int, *Inbox, *Outbox) {})
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name    string
		records int
		send    func(out *Outbox, i int)
	}{
		{"one-word", words, func(out *Outbox, i int) { out.SendInts(1, int64(i)) }},
		{"mixed", 2 * words, func(out *Outbox, i int) {
			out.Begin(1)
			if i%2 == 0 {
				out.Int(int64(i))
			} else {
				out.Float(float64(i))
			}
			out.End()
		}},
	} {
		_, bytes := allocated(func() {
			round(func(machine int, _ *Inbox, out *Outbox) {
				if machine == 0 {
					for i := 0; i < tc.records; i++ {
						tc.send(out, i)
					}
				}
			})
		})
		col := c.Inbox(1).segs[0].col
		held := len(col.ints) + len(col.floats) + len(col.recs)
		if ratio := float64(bytes) / float64(8*held); ratio > 2.25 {
			t.Errorf("%s: a round whose column holds %d words allocated %d bytes, %.2f× its words; want <= 2.25×",
				tc.name, held, bytes, ratio)
		}
		t.Logf("%s: column of %d words, %d bytes allocated", tc.name, held, bytes)
	}
}

// chargeScript is one round of traffic in which machines 1 and 2 send and
// some records, marked unread, are never read by their receivers: a column
// of unread records only (to 0 from 1, to 3 from 2), unread records between
// and after written ones (to 2), and a header-only unread record (to 1).
var chargeScript = []struct {
	msg    planeMsg
	unread bool
}{
	{planeMsg{from: 1, to: 0, ints: []int64{4, 3}}, true},
	{planeMsg{from: 1, to: 0, ints: []int64{7, 1}}, true},
	{planeMsg{from: 1, to: 2, ints: []int64{1}}, false},
	{planeMsg{from: 1, to: 2, ints: []int64{9, 9}, floats: []float64{0.5}}, true},
	{planeMsg{from: 1, to: 2, ints: []int64{2}, floats: []float64{0.25}, api: 2}, false},
	{planeMsg{from: 1, to: 2, ints: []int64{3}}, true},
	{planeMsg{from: 2, to: 0, ints: []int64{5}}, false},
	{planeMsg{from: 2, to: 3, ints: []int64{8}, floats: []float64{1}}, true},
	{planeMsg{from: 2, to: 3, ints: []int64{6}, floats: []float64{2}}, true},
	{planeMsg{from: 2, to: 1}, true},
}

// runChargeScript runs chargeScript on a sparse cluster of four machines
// under a cap it breaches, then a round that runs only the receivers, then
// a quiet round. With charge set, every unread record is charged instead of
// written. It returns each machine's inbox Len and Words and the records its
// cursor yields in the second round, the trace and the metrics.
func runChargeScript(t *testing.T, charge bool) (lens, words []int, got [][]Record, trace []roundModel, m Metrics) {
	t.Helper()
	c, tr := tracedCluster(Config{Machines: 4, Sparse: true, SpaceCap: 12})
	defer c.Close()
	c.Arm(1)
	c.Arm(2)
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		for _, s := range chargeScript {
			switch {
			case s.msg.from != machine:
			case charge && s.unread:
				out.Charge(s.msg.to, 1, len(s.msg.ints), len(s.msg.floats))
			default:
				s.msg.emit(out)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	lens, words, got = make([]int, 4), make([]int, 4), make([][]Record, 4)
	err = c.Round(func(machine int, in *Inbox, out *Outbox) {
		lens[machine], words[machine] = in.Len(), in.Words()
		for rec, ok := in.Next(); ok; rec, ok = in.Next() {
			got[machine] = append(got[machine], Record{From: rec.From,
				Ints: slices.Clone(rec.Ints), Floats: slices.Clone(rec.Floats)})
		}
	})
	if err == nil {
		err = c.Quiet()
	}
	if err != nil {
		t.Fatal(err)
	}
	return lens, words, got, tr.rounds, c.Metrics()
}

func TestChargeAccountsAsWritten(t *testing.T) {
	// Charging a record must be invisible to the model: traffic, loads,
	// violations, arming (a machine that receives only charged records runs
	// the next round) and the receivers' Len and Words read as if the record
	// had been written. Only the cursor differs: it yields the written
	// records, in (sender, emission order).
	wLens, wWords, wGot, wTrace, wMetrics := runChargeScript(t, false)
	cLens, cWords, cGot, cTrace, cMetrics := runChargeScript(t, true)
	if !reflect.DeepEqual(cMetrics, wMetrics) {
		t.Errorf("metrics: charged %+v, written %+v", cMetrics, wMetrics)
	}
	if !reflect.DeepEqual(cTrace, wTrace) {
		t.Errorf("trace: charged %+v, written %+v", cTrace, wTrace)
	}
	if !slices.Equal(cLens, wLens) || !slices.Equal(cWords, wWords) {
		t.Errorf("inbox Len/Words: charged %v/%v, written %v/%v", cLens, cWords, wLens, wWords)
	}
	if wMetrics.Violations == 0 || wTrace[1].Active != 4 {
		t.Fatalf("the script must breach the cap and wake all four receivers: %+v, %+v", wMetrics, wTrace)
	}
	for m := 0; m < 4; m++ {
		var all, written []planeMsg
		for from := 0; from < 4; from++ {
			for _, s := range chargeScript {
				if s.msg.from == from && s.msg.to == m {
					all = append(all, s.msg)
					if !s.unread {
						written = append(written, s.msg)
					}
				}
			}
		}
		if !sameRecords(wGot[m], all) {
			t.Errorf("machine %d, written: cursor yields %v, want %v", m, wGot[m], all)
		}
		if !sameRecords(cGot[m], written) {
			t.Errorf("machine %d, charged: cursor yields %v, want %v", m, cGot[m], written)
		}
	}
}

func TestChargeRuns(t *testing.T) {
	// NextRun walks only written records too: a charge between two records
	// of one shape leaves them one run, and a column of charges alone yields
	// none.
	c := NewCluster(Config{Machines: 2})
	defer c.Close()
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 0 {
			out.Charge(1, 3, 6, 0)
			out.SendInts(1, 1, 2)
			out.Charge(1, 2, 0, 2)
			out.SendInts(1, 3, 4)
			out.Charge(0, 1, 1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	in := c.Inbox(1)
	if in.Len() != 7 || in.Words() != 7+6+2+4 {
		t.Fatalf("Len %d Words %d, want 7 and 19", in.Len(), in.Words())
	}
	run, ok := in.NextRun()
	if !ok || run.N != 2 || !slices.Equal(run.Ints, []int64{1, 2, 3, 4}) {
		t.Fatalf("run %+v, want the two written records as one", run)
	}
	if _, ok := in.NextRun(); ok {
		t.Fatal("a second run after the written records")
	}
	self := c.Inbox(0)
	if _, ok := self.NextRun(); ok || self.Len() != 1 || self.Words() != 2 {
		t.Fatalf("charged-only inbox: Len %d Words %d, and a run", self.Len(), self.Words())
	}
}

func TestChargePanics(t *testing.T) {
	charges := map[string]func(out *Outbox){
		"InsideOpenRecord": func(out *Outbox) {
			out.SendInts(1, 0) // the column exists: the open record alone must stop the charge
			out.Begin(1)
			out.Charge(1, 1, 1, 0)
		},
		"InsideOpenRecordNoRecords": func(out *Outbox) {
			out.Begin(1)
			out.Charge(0, 0, 0, 0)
		},
		"InvalidMachine":   func(out *Outbox) { out.Charge(2, 1, 0, 0) },
		"NegativeRecords":  func(out *Outbox) { out.Charge(1, -1, 0, 0) },
		"NegativeWords":    func(out *Outbox) { out.Charge(1, 1, -1, 0) },
		"WordsWithoutRecs": func(out *Outbox) { out.Charge(1, 0, 1, 0) },
	}
	for name, charge := range charges {
		t.Run(name, func(t *testing.T) {
			c := NewCluster(Config{Machines: 2})
			defer expectPanic(t)
			_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
				if machine == 0 {
					charge(out)
				}
			})
		})
	}
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

func TestSendPanics(t *testing.T) {
	// The fused Send/SendInts path keeps both of Begin's checks.
	sends := map[string]func(out *Outbox, to int){
		"Send":     func(out *Outbox, to int) { out.Send(to, []int64{1}, nil) },
		"SendInts": func(out *Outbox, to int) { out.SendInts(to, 1) },
	}
	for name, send := range sends {
		t.Run(name+"/InsideOpenRecord", func(t *testing.T) {
			c := NewCluster(Config{Machines: 2})
			defer expectPanic(t)
			_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
				if machine == 0 {
					out.SendInts(1, 0) // the column exists: the open record alone must stop the send
					out.Begin(1)
					send(out, 1)
				}
			})
		})
		for _, to := range []int{-1, 2} {
			t.Run(fmt.Sprintf("%s/InvalidMachine%d", name, to), func(t *testing.T) {
				c := NewCluster(Config{Machines: 2})
				defer expectPanic(t)
				_ = c.Round(func(machine int, in *Inbox, out *Outbox) {
					out.SendInts(1-machine, 0) // byDest allocated: the range check alone must stop it
					send(out, to)
				})
			})
		}
	}
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
