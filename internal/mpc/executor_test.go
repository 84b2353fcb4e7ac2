package mpc

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestParallelExecutesEveryMachineOnce runs rounds on pooled clusters of
// every shape: a round without Config.Sparse, and an ArmAll round with it,
// must invoke every machine exactly once.
func TestParallelExecutesEveryMachineOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 8, 64} {
		for _, machines := range []int{1, 2, 7, 100} {
			for _, sparse := range []bool{false, true} {
				c := NewCluster(Config{Machines: machines, Workers: workers, Sparse: sparse})
				counts := make([]int32, machines)
				c.ArmAll()
				err := c.Round(func(machine int, in *Inbox, out *Outbox) {
					atomic.AddInt32(&counts[machine], 1)
				})
				c.Close()
				if err != nil {
					t.Fatal(err)
				}
				for machine, n := range counts {
					if n != 1 {
						t.Fatalf("workers=%d machines=%d sparse=%v: machine %d ran %d times",
							workers, machines, sparse, machine, n)
					}
				}
			}
		}
	}
}

// TestParallelPropagatesPanic requires a RoundFunc's panic on a pooled
// cluster to reach the caller of Round with its payload.
func TestParallelPropagatesPanic(t *testing.T) {
	c := NewCluster(Config{Machines: 16, Workers: 4})
	defer c.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	c.Round(func(machine int, in *Inbox, out *Outbox) {
		if machine == 11 {
			panic("boom")
		}
	})
}

func TestNewExecutorSelection(t *testing.T) {
	if e, p := newExecutor(Config{Machines: 1}); p != nil {
		t.Fatal("Workers=0 must not own a pool")
	} else if _, ok := e.(Sequential); !ok {
		t.Fatal("Workers=0 must select Sequential")
	}
	if e, p := newExecutor(Config{Machines: 1, Workers: 1}); p != nil {
		t.Fatal("Workers=1 must not own a pool")
	} else if _, ok := e.(Sequential); !ok {
		t.Fatal("Workers=1 must select Sequential")
	}
	if e, p := newExecutor(Config{Machines: 1, Workers: 6}); p == nil || e != Executor(p) || p.Workers() != 6 {
		t.Fatal("Workers=6 must select an owned 6-worker Pool")
	} else {
		p.Close()
	}
	if e, p := newExecutor(Config{Machines: 1, Workers: -1}); p == nil || e != Executor(p) || p.Workers() < 1 {
		t.Fatal("Workers=-1 must select an owned NumCPU-sized Pool")
	} else {
		p.Close()
	}
}

func TestParallelRoundsMatchSequential(t *testing.T) {
	// Identical chatter on Sequential and pooled clusters must produce an
	// identical transcript (delivery order included) and identical metrics.
	// The transcript is captured from the inboxes between rounds, where the
	// cluster state is quiescent.
	record := func(workers int) (string, Metrics) {
		c := NewCluster(Config{Machines: 17, SpaceCap: 1000, Workers: workers})
		m := c.M()
		var transcript strings.Builder
		for round := 0; round < 5; round++ {
			// Capture each machine's inbox deterministically before the
			// round, then run the senders.
			for machine := 0; machine < m; machine++ {
				in := c.Inbox(machine)
				for msg, ok := in.Next(); ok; msg, ok = in.Next() {
					fmt.Fprintf(&transcript, "r%d m%d<-%d:%v;", round, machine, msg.From, msg.Ints)
				}
				in.Reset()
			}
			err := c.Round(func(machine int, in *Inbox, out *Outbox) {
				for k := 1; k <= 3; k++ {
					to := (machine*7 + k*k + round) % m
					out.SendInts(to, int64(machine*1000+to), int64(round))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return transcript.String(), c.Metrics()
	}
	seqT, seqM := record(1)
	parT, parM := record(8)
	if seqT != parT {
		t.Fatalf("transcripts diverge:\nseq: %.200s\npar: %.200s", seqT, parT)
	}
	if seqM != parM {
		t.Fatalf("metrics diverge: %+v vs %+v", seqM, parM)
	}
}

func TestPoolExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		p := NewPool(workers)
		// The pool must clamp correctly when workers > n (including n = 0
		// and n = 1), waking only as many workers as there are chunks.
		for _, n := range []int{0, 1, 2, 7, 100} {
			counts := make([]int32, n)
			p.Execute(n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestPoolPanicThenReuse(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic to propagate")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
				t.Fatalf("unexpected panic payload: %v", r)
			}
		}()
		p.Execute(64, func(i int) {
			if i == 17 {
				panic("boom")
			}
		})
	}()
	// The pool must remain fully usable after a task panicked: subsequent
	// batches run every task exactly once.
	for round := 0; round < 3; round++ {
		counts := make([]int32, 128)
		p.Execute(len(counts), func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("after panic, round %d: task %d ran %d times", round, i, c)
			}
		}
	}
}

func TestPoolSteadyStateSpawnsNoGoroutines(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Warm up: the pool's goroutines exist after NewPool; Execute must not
	// create more.
	p.Execute(256, func(int) {})
	runtime.GC() // settle any unrelated runtime goroutines
	before := runtime.NumGoroutine()
	for round := 0; round < 200; round++ {
		p.Execute(256, func(int) {})
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutines grew across pooled rounds: %d -> %d", before, after)
	}
	rounds, chunks := p.Stats()
	if rounds < 200 || chunks == 0 {
		t.Fatalf("pool stats not accounted: rounds=%d chunks=%d", rounds, chunks)
	}
}

func TestPoolExecuteAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Execute after Close must panic")
		}
	}()
	p.Execute(4, func(int) {})
}

func TestClusterCloseReleasesPool(t *testing.T) {
	c := NewCluster(Config{Machines: 8, Workers: 4})
	if err := c.Round(func(machine int, in *Inbox, out *Outbox) {}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
}

// BenchmarkExecutorRoundOverheadPersistent runs a chunked batch of trivial
// tasks per round through a long-lived Pool. In steady state it spawns zero
// goroutines per round (TestPoolSteadyStateSpawnsNoGoroutines pins this)
// and allocates only its per-batch job header; run with -benchmem.
func BenchmarkExecutorRoundOverheadPersistent(b *testing.B) {
	const tasks = 256
	p := NewPool(4)
	defer p.Close()
	sink := make([]int64, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Execute(tasks, func(t int) { sink[t]++ })
	}
	b.StopTimer()
	for t := range sink {
		if sink[t] != int64(b.N) {
			b.Fatalf("task %d ran %d times, want %d", t, sink[t], b.N)
		}
	}
}
