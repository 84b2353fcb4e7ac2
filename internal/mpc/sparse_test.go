package mpc

// Tests for run-list scheduling: the arming contract, dirty-set accounting
// equivalence against dense clusters (no Config.Sparse, so every round runs
// every machine), the Quiet fast path, and the Active activity measurements.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// chatterScript runs a fixed multi-round conversation on a cluster: a
// central machine seeds work, receivers react, traffic decays geometrically
// — the shape of the paper's tail rounds. It arms exactly the machines that
// must act on empty inboxes, so it behaves identically dense and sparse.
func chatterScript(t *testing.T, c *Cluster) (string, Metrics) {
	t.Helper()
	m := c.M()
	var transcript strings.Builder
	record := func(round int) {
		for machine := 0; machine < m; machine++ {
			in := c.Inbox(machine)
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				fmt.Fprintf(&transcript, "r%d m%d<-%d:%v/%v;", round, machine, msg.From, msg.Ints, msg.Floats)
			}
			in.Reset()
		}
	}
	// Round 1: machine 0 fans out to a third of the cluster.
	c.Arm(0)
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine != 0 {
			return
		}
		for to := 1; to < m; to += 3 {
			out.SendInts(to, int64(to), 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	record(1)
	// Rounds 2..5: every receiver halves the fan-out back toward machine 0,
	// plus machine 1 self-arms a heartbeat in round 3.
	for round := 2; round <= 5; round++ {
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			if round == 2 && machine == 1 {
				c.Arm(machine) // self-arm: runs round 3 with an empty inbox
			}
			if round == 3 && machine == 1 && in.Len() == 0 {
				out.Begin(0)
				out.Int(-1)
				out.Float(0.5)
				out.End()
			}
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				if len(msg.Ints) > 0 && msg.Ints[0] > 1 {
					out.SendInts(int(msg.Ints[0])/2, msg.Ints[0]/2)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		record(round)
	}
	// A quiet round plus a final dense round.
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	c.ArmAll()
	err = c.Round(func(machine int, in *Inbox, out *Outbox) {
		out.SendInts((machine+1)%m, int64(machine))
	})
	if err != nil {
		t.Fatal(err)
	}
	record(7)
	return transcript.String(), c.Metrics()
}

// scrubActivity zeroes the activity fields, which are the only metrics
// allowed to differ between sparse and dense execution.
func scrubActivity(m Metrics) Metrics {
	m.ActiveSum, m.ActiveMax = 0, 0
	return m
}

func TestSparseMatchesDense(t *testing.T) {
	for _, workers := range []int{1, 4} {
		denseC := NewCluster(Config{Machines: 19, SpaceCap: 60, Workers: workers})
		denseT, denseM := chatterScript(t, denseC)
		denseC.Close()
		sparseC := NewCluster(Config{Machines: 19, SpaceCap: 60, Workers: workers, Sparse: true})
		sparseT, sparseM := chatterScript(t, sparseC)
		sparseC.Close()
		if denseT != sparseT {
			t.Fatalf("workers=%d transcripts diverge:\ndense:  %.300s\nsparse: %.300s", workers, denseT, sparseT)
		}
		if scrubActivity(denseM) != scrubActivity(sparseM) {
			t.Fatalf("workers=%d metrics diverge:\ndense:  %+v\nsparse: %+v", workers, denseM, sparseM)
		}
		if sparseM.ActiveSum >= denseM.ActiveSum {
			t.Fatalf("sparse ran %d invocations, dense %d — sparse must skip dormant machines",
				sparseM.ActiveSum, denseM.ActiveSum)
		}
	}
}

func TestSparseSkipsDormantMachines(t *testing.T) {
	c, trace := tracedCluster(Config{Machines: 100, Sparse: true})
	ran := make([]int, c.M())
	// Nothing armed, nothing in flight: nobody runs, but the round counts.
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) { ran[machine]++ }); err != nil {
		t.Fatal(err)
	}
	for machine, n := range ran {
		if n != 0 {
			t.Fatalf("machine %d ran in an idle sparse round", machine)
		}
	}
	// Arm one machine; only it runs, and its receiver runs next round.
	c.Arm(42)
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		ran[machine]++
		out.SendInts(7, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) { ran[machine]++ }); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range ran {
		total += n
	}
	if ran[42] != 1 || ran[7] != 1 || total != 2 {
		t.Fatalf("sparse scheduling ran the wrong machines: ran[42]=%d ran[7]=%d total=%d", ran[42], ran[7], total)
	}
	m := c.Metrics()
	if m.Rounds != 3 || m.ActiveSum != 2 || m.ActiveMax != 1 {
		t.Fatalf("activity accounting: %+v", m)
	}
	tr := trace.rounds
	if len(tr) != 3 || tr[0].Active != 0 || tr[1].Active != 1 || tr[2].Active != 1 {
		t.Fatalf("trace Active: %+v", tr)
	}
}

func TestSparseArmAllRunsEveryMachine(t *testing.T) {
	c := NewCluster(Config{Machines: 31, Sparse: true})
	ran := make([]int, c.M())
	c.ArmAll()
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) { ran[machine]++ }); err != nil {
		t.Fatal(err)
	}
	for machine, n := range ran {
		if n != 1 {
			t.Fatalf("ArmAll: machine %d ran %d times", machine, n)
		}
	}
	// The flag is consumed: the next round is sparse again.
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) { ran[machine]++ }); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().ActiveSum != int64(c.M()) {
		t.Fatalf("ArmAll must not leak into later rounds: %+v", c.Metrics())
	}
}

// TestQuietFastPathMetricsEquivalence pins the Quiet fast path to the
// metrics of the old implementation (a Round over M no-op RoundFuncs): same
// rounds, violations, space high-water and trace, on both dense and sparse
// clusters, including undelivered-traffic disposal.
func TestQuietFastPathMetricsEquivalence(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		run := func(quiet bool) (Metrics, []roundModel, error) {
			c, trace := tracedCluster(Config{Machines: 5, SpaceCap: 10, Sparse: sparse})
			defer c.Close()
			c.SetResident(1, 13) // over cap: every round records a violation
			c.SetResident(2, 9)
			// Leave traffic in flight so the quiet round must discard it.
			c.Arm(0)
			err := c.Round(func(machine int, in *Inbox, out *Outbox) {
				if machine == 0 {
					out.SendInts(3, 1, 2, 3)
				}
			})
			if err != nil {
				return Metrics{}, nil, err
			}
			var qerr error
			if quiet {
				qerr = c.Quiet()
			} else {
				qerr = c.Round(func(int, *Inbox, *Outbox) {}) // the old Quiet
			}
			if qerr != nil {
				return Metrics{}, nil, qerr
			}
			// One more exchange proves the in-flight columns were recycled
			// identically.
			c.Arm(4)
			err = c.Round(func(machine int, in *Inbox, out *Outbox) {
				if machine == 4 && in.Len() == 0 {
					out.SendInts(0, 9)
				}
			})
			return c.Metrics(), trace.rounds, err
		}
		newM, newT, err := run(true)
		if err != nil {
			t.Fatal(err)
		}
		oldM, oldT, err := run(false)
		if err != nil {
			t.Fatal(err)
		}
		if scrubActivity(newM) != scrubActivity(oldM) {
			t.Fatalf("sparse=%v: Quiet fast path diverges from no-op round:\nfast: %+v\nold:  %+v", sparse, newM, oldM)
		}
		if len(newT) != len(oldT) {
			t.Fatalf("trace lengths diverge: %d vs %d", len(newT), len(oldT))
		}
		for i := range newT {
			a, b := newT[i], oldT[i]
			a.Active, b.Active = 0, 0
			if a != b {
				t.Fatalf("sparse=%v round %d trace diverges: %+v vs %+v", sparse, i+1, newT[i], oldT[i])
			}
		}
		if newT[1].Active != 0 {
			t.Fatalf("Quiet must not invoke RoundFuncs: %+v", newT[1])
		}
	}
}

func TestQuietStrictViolation(t *testing.T) {
	c := NewCluster(Config{Machines: 2, SpaceCap: 3, Strict: true})
	c.SetResident(0, 5)
	if err := c.Quiet(); !errors.Is(err, ErrSpaceExceeded) {
		t.Fatalf("err = %v, want ErrSpaceExceeded", err)
	}
	if c.Metrics().Violations != 1 {
		t.Fatalf("violations = %d", c.Metrics().Violations)
	}
}

// TestResidentDecreaseAccounting exercises the lazy residentMax repair: the
// machine holding the maximum shrinks while dormant machines keep the old
// values, and the per-round MaxLoad must follow exactly.
func TestResidentDecreaseAccounting(t *testing.T) {
	c, trace := tracedCluster(Config{Machines: 4, SpaceCap: 100, Sparse: true})
	c.SetResident(0, 50)
	c.SetResident(1, 30)
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	c.SetResident(0, 10) // the max holder shrinks; machine 1 is the new max
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	c.SetResident(1, 120) // over cap while dormant
	if err := c.Quiet(); err != nil {
		t.Fatal(err)
	}
	tr := trace.rounds
	if tr[0].MaxLoad != 50 || tr[1].MaxLoad != 30 || tr[2].MaxLoad != 120 {
		t.Fatalf("max loads: %+v", tr)
	}
	m := c.Metrics()
	if m.Violations != 1 || m.MaxSpace != 120 || m.MaxResident != 120 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestTreeHelpersSparse(t *testing.T) {
	// Broadcast and AggregateSum must produce identical metrics and results
	// on sparse and dense clusters (their arming covers the tree's senders).
	for _, machines := range []int{1, 2, 9, 17} {
		run := func(sparse bool) (int64, Metrics) {
			c := NewCluster(Config{Machines: machines, Sparse: sparse})
			defer c.Close()
			tr := NewTree(c, 0, 3)
			if err := tr.Broadcast(c, []int64{5}, nil); err != nil {
				t.Fatal(err)
			}
			total, err := tr.AllReduceSum(c, 1, func(machine int) []int64 {
				return []int64{int64(machine + 1)}
			})
			if err != nil {
				t.Fatal(err)
			}
			for machine := 0; machine < machines; machine++ {
				if c.Inbox(machine).Len() != 0 {
					t.Fatalf("machine %d inbox not drained", machine)
				}
			}
			return total[0], c.Metrics()
		}
		wantTotal := int64(machines) * int64(machines+1) / 2
		dTot, dM := run(false)
		sTot, sM := run(true)
		if dTot != wantTotal || sTot != wantTotal {
			t.Fatalf("machines=%d totals: dense %d sparse %d want %d", machines, dTot, sTot, wantTotal)
		}
		if scrubActivity(dM) != scrubActivity(sM) {
			t.Fatalf("machines=%d metrics diverge:\ndense:  %+v\nsparse: %+v", machines, dM, sM)
		}
	}
}

// TestSelfArmPlusTrafficRunsOnce is the regression test for the accounting
// scratch: a machine that self-arms for the next round AND receives traffic
// in the same round must run exactly once, and a driver Arm after a
// self-arm must not double-enqueue it.
func TestSelfArmPlusTrafficRunsOnce(t *testing.T) {
	c := NewCluster(Config{Machines: 6, Sparse: true})
	ran := make([]int, c.M())
	// Round 1: machine 2 self-arms and sends to itself, so in round 2 it is
	// both armed and a receiver.
	c.Arm(2)
	err := c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 2 {
			c.Arm(2) // self-arm for round 2
			out.SendInts(2, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Arm(2) // driver re-arm must deduplicate against the self-arm
	err = c.Round(func(machine int, in *Inbox, out *Outbox) {
		ran[machine]++
		for _, ok := in.Next(); ok; _, ok = in.Next() {
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran[2] != 1 {
		t.Fatalf("machine 2 ran %d times in round 2, want exactly 1", ran[2])
	}
	if m := c.Metrics(); m.ActiveSum != 2 || m.ActiveMax != 1 {
		t.Fatalf("activity accounting: %+v", m)
	}
}

// BenchmarkSparseTailSparse replays the tail-round pattern of the MIS
// algorithms (misState.disseminate: one sampled candidate ships to the
// central machine, the central machine routes the decision to the owner, the
// owner notifies two neighbours' owners, the owners apply the update) on a
// large sparse cluster where almost every machine is already decided and
// dormant: each round runs only its 1-3 active machines, not all 1024.
func BenchmarkSparseTailSparse(b *testing.B) {
	const machines = 1024
	c := NewCluster(Config{Machines: machines, Sparse: true})
	defer c.Close()
	var m Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := 1 + i%(machines-1)
		// Sampling round: one owner ships its candidate to the central
		// machine.
		c.Arm(owner)
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			if machine == owner {
				out.SendInts(0, int64(owner), int64(owner+1), int64(owner+2))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Decision round: central routes the verdict back to the owner.
		c.Arm(0)
		err = c.Round(func(machine int, in *Inbox, out *Outbox) {
			if machine != 0 {
				return
			}
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				out.SendInts(int(msg.Ints[0]), msg.Ints[1], msg.Ints[2])
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Notify round: the owner tells its two neighbours' owners.
		err = c.Round(func(machine int, in *Inbox, out *Outbox) {
			for msg, ok := in.Next(); ok; msg, ok = in.Next() {
				out.SendInts(1+int(msg.Ints[0])%(machines-1), msg.Ints[0])
				out.SendInts(1+int(msg.Ints[1])%(machines-1), msg.Ints[1])
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		// Apply round: the notified owners consume the updates.
		err = c.Round(func(machine int, in *Inbox, out *Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		m = c.Metrics()
	}
	b.ReportMetric(float64(m.ActiveSum)/float64(m.Rounds), "active/round")
}
