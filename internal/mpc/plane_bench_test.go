package mpc

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkMsgPlaneBroadcast{Seq,Par4} are the message plane's allocation
// pair on a broadcast-tree-heavy workload: Tree.Broadcast + AggregateSum
// over a 64-machine cluster, where every hop used to clone its payload. Run
// with -benchmem. Against the per-Message representation this dropped from
// ~1.3k to ~150 allocs/op. BenchmarkMsgPlaneMISSampling{Seq,Par4}, the pair's
// small-message half, runs core.MISFast and lives in internal/core.
func benchMsgPlaneBroadcast(b *testing.B, workers int) {
	c := NewCluster(Config{Machines: 64, Workers: workers})
	defer c.Close()
	tr := NewTree(c, 0, 4)
	payload := make([]int64, 32)
	for i := range payload {
		payload[i] = int64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Broadcast(c, payload, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.AggregateSum(c, 4, func(machine int) []int64 {
			return payload[:4]
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMsgPlaneBroadcastSeq(b *testing.B)  { benchMsgPlaneBroadcast(b, 1) }
func BenchmarkMsgPlaneBroadcastPar4(b *testing.B) { benchMsgPlaneBroadcast(b, 4) }

// benchMsgPlaneFanout is the message plane at the shape the MIS-family
// dissemination rounds give it: 45 machines, every round each one reads what
// the last round delivered and sends 10 000 records to pseudo-random vertex
// owners. With wideEvery == 0 every record is one word, so every column stays
// uniform; otherwise every wideEvery-th record carries two words, which
// forces the per-record framing index. The inbox is read a record at a time
// (Next), or a same-shape run at a time (NextRun) with runs set. One op is
// one round — 450 000 records written and 450 000 read — reported as ns/rec.
// The owners are shuffled within blocks of 44, one record per owner, so every
// column is equally long every round and the warm-up leaves the pool in a
// steady state: -benchmem shows the one closure Cluster.Round hands its
// executor and nothing for the 900 000 record operations.
func benchMsgPlaneFanout(b *testing.B, wideEvery int, runs bool) {
	const machines, perMachine = 45, 10000
	c := NewCluster(Config{Machines: machines})
	defer c.Close()
	r := rng.New(17)
	targets := make([][]int64, machines)
	block := make([]int64, machines-1)
	for m := range targets {
		targets[m] = make([]int64, perMachine)
		for k := range targets[m] {
			if k%len(block) == 0 {
				for i := range block {
					block[i] = int64(i)
				}
				r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			// A vertex id in [0, 20000) whose owner is 1 + block[k%44].
			targets[m][k] = block[k%len(block)] + int64(len(block)*r.Intn(20000/len(block)))
		}
	}
	sums := make([]int64, machines)
	round := func(machine int, in *Inbox, out *Outbox) {
		sum := int64(0)
		if runs {
			for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
				for i := 0; i < len(run.Ints); i += run.IntLen {
					sum += run.Ints[i]
				}
			}
		} else {
			for rec, ok := in.Next(); ok; rec, ok = in.Next() {
				sum += rec.Ints[0]
			}
		}
		sums[machine] = sum
		for k, u := range targets[machine] {
			owner := 1 + int(u)%(machines-1)
			if wideEvery > 0 && k%wideEvery == 0 {
				out.SendInts(owner, u, u)
			} else {
				out.SendInts(owner, u)
			}
		}
	}
	for warm := 0; warm < 5; warm++ {
		if err := c.Round(round); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Round(round); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*machines*perMachine), "ns/rec")
}

func BenchmarkMsgPlaneOneWordFanout(b *testing.B)    { benchMsgPlaneFanout(b, 0, false) }
func BenchmarkMsgPlaneOneWordRuns(b *testing.B)      { benchMsgPlaneFanout(b, 0, true) }
func BenchmarkMsgPlaneMixedShapeFanout(b *testing.B) { benchMsgPlaneFanout(b, 16, false) }

// BenchmarkMergePhase{Seq,Par}: one whole 256-machine all-scatter round on
// the sequential executor and on a pool of four workers: the machines'
// computations, then the post-barrier merge, which assembles every
// destination's inbox in ascending sender order on the calling goroutine
// under either executor. Results are bit-identical (executor independence).
// On a 2-CPU host the pooled round reads about twice as slow as the
// sequential one.
func benchMergePhase(b *testing.B, workers int) {
	const machines = 256
	c := NewCluster(Config{Machines: machines, Workers: workers})
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := c.Round(func(machine int, in *Inbox, out *Outbox) {
			for _, ok := in.Next(); ok; _, ok = in.Next() {
			}
			// Four spread destinations per machine: every machine receives,
			// so the assembly fan-out covers the whole cluster.
			for j := 1; j <= 4; j++ {
				out.SendInts((machine+j*machines/5)%machines, int64(machine))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergePhaseSeq(b *testing.B) { benchMergePhase(b, 1) }
func BenchmarkMergePhasePar(b *testing.B) { benchMergePhase(b, 4) }
