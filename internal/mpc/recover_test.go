package mpc

// Fault-tolerance tests: the backoff schedule, the wire log ring and its
// disk spill, heartbeat-bounded failure detection, context cancellation,
// and the two recovery soaks — deterministic healing under injected chaos,
// and a worker kill + respawn with replay, both asserting bit-identical
// results against the clean run.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestBackoffSchedule: exponential doubling capped at max, deterministic
// jitter in [0.5, 1.0) of the nominal delay.
func TestBackoffSchedule(t *testing.T) {
	const base, max = 50 * time.Millisecond, 2 * time.Second
	cases := []struct {
		attempt int
		nominal time.Duration
	}{
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 400 * time.Millisecond},
		{5, 800 * time.Millisecond},
		{6, 1600 * time.Millisecond},
		{7, 2 * time.Second}, // capped
		{12, 2 * time.Second},
		{0, 50 * time.Millisecond}, // clamped to attempt 1
	}
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		for _, tc := range cases {
			d := backoffDelay(tc.attempt, base, max, seed)
			if d < tc.nominal/2 || d >= tc.nominal {
				t.Errorf("seed %d attempt %d: delay %v outside [%v, %v)",
					seed, tc.attempt, d, tc.nominal/2, tc.nominal)
			}
			if again := backoffDelay(tc.attempt, base, max, seed); again != d {
				t.Errorf("seed %d attempt %d: nondeterministic (%v then %v)", seed, tc.attempt, d, again)
			}
		}
	}
	// Different seeds must decorrelate at least one attempt (thundering-herd
	// protection is the point of the jitter).
	same := true
	for a := 1; a <= 6; a++ {
		if backoffDelay(a, base, max, 1) != backoffDelay(a, base, max, 2) {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical schedules across 6 attempts")
	}
}

// TestWireLogRingEviction: the ring retains the last W barriered rounds,
// refuses replay below the retained window, and replays per-peer frames in
// order.
func TestWireLogRingEviction(t *testing.T) {
	l := newWireLog(0, 3, 1<<20, t.TempDir())
	defer l.close()
	frame := func(seq uint32, peer, i int) []byte {
		return []byte(fmt.Sprintf("r%d-p%d-f%d", seq, peer, i))
	}
	for seq := uint32(1); seq <= 6; seq++ {
		l.append(1, seq, frame(seq, 1, 0))
		l.append(2, seq, frame(seq, 2, 0))
		l.append(1, seq, frame(seq, 1, 1))
	}
	// Barriered rounds below keep are never evicted.
	l.evict(2)
	if got, ok := l.oldest(); !ok || got != 1 {
		t.Fatalf("oldest after evict(2) = %d,%v, want 1", got, ok)
	}
	// evict(6) with keep=3 drops rounds <= 3.
	l.evict(6)
	if got, ok := l.oldest(); !ok || got != 4 {
		t.Fatalf("oldest after evict(6) = %d,%v, want 4", got, ok)
	}
	if _, err := l.replayTo(1, 3); err == nil {
		t.Fatal("replayTo below the retained window succeeded")
	}
	got, err := l.replayTo(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for seq := uint32(4); seq <= 6; seq++ {
		want = append(want, frame(seq, 1, 0), frame(seq, 1, 1))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayTo(1, 4):\n got %q\nwant %q", got, want)
	}
	// Replay for the other peer sees only its own frames.
	got2, err := l.replayTo(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || string(got2[0]) != "r5-p2-f0" || string(got2[1]) != "r6-p2-f0" {
		t.Fatalf("replayTo(2, 5) = %q", got2)
	}
}

// TestWireLogSpill: rounds beyond the memory budget spill to disk (never
// the newest), replay reloads them CRC-checked and bit-identical, eviction
// and close remove the files, and corruption is detected.
func TestWireLogSpill(t *testing.T) {
	dir := t.TempDir()
	l := newWireLog(7, 8, 64, dir) // 64-byte budget forces spilling
	payload := func(seq uint32) []byte {
		b := make([]byte, 40)
		for i := range b {
			b[i] = byte(seq) + byte(i)
		}
		return b
	}
	var want [][]byte
	for seq := uint32(1); seq <= 4; seq++ {
		p := payload(seq)
		want = append(want, p)
		l.append(1, seq, p)
	}
	spilled, _ := filepath.Glob(filepath.Join(dir, "wlog-*.bin"))
	if len(spilled) == 0 {
		t.Fatal("no rounds spilled under a 64-byte budget")
	}
	got, err := l.replayTo(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spilled replay is not bit-identical to the appended frames")
	}
	// Corrupt one spilled round: replay through it must fail checksum.
	data, err := os.ReadFile(spilled[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(spilled[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.replayTo(1, 1); !errors.Is(err, errBadFrame) {
		t.Fatalf("replay of corrupted spill returned %v, want errBadFrame", err)
	}
	l.close()
	if left, _ := filepath.Glob(filepath.Join(dir, "wlog-*.bin")); len(left) != 0 {
		t.Fatalf("close left spill files behind: %v", left)
	}
}

// TestHeartbeatFailureDetection: with heartbeats on, a silent peer is
// declared dead within ~PeerDeadAfter instead of the barrier timeout. Node
// 1 emits no heartbeats and never rounds, so node 0 hears nothing after
// the handshake.
func TestHeartbeatFailureDetection(t *testing.T) {
	long := 30 * time.Second
	n0, err := ListenTCP(0, 2, "127.0.0.1:0", TransportOpts{
		BarrierTimeout:    long,
		HeartbeatInterval: 40 * time.Millisecond,
		PeerDeadAfter:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := ListenTCP(1, 2, "127.0.0.1:0", TransportOpts{BarrierTimeout: long})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	addrs := []string{n0.Addr(), n1.Addr()}
	if err := n0.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := n1.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	ep0, err := n0.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep0.Barrier(1, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ep0.Receive(1); err == nil {
		t.Fatal("Receive succeeded with a silent peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("silent peer took %v to detect, want ~200ms (well under the %v barrier timeout)", elapsed, long)
	}
}

// TestRoundContextCancel: a canceled Config.Ctx fails the next round with
// the context's error — and deliberately not ErrTransport, so the service
// layer's unsharded fallback does not re-run abandoned jobs.
func TestRoundContextCancel(t *testing.T) {
	noop := func(m int, in *Inbox, out *Outbox) {}
	for _, cfg := range []Config{
		{Machines: 4},
		{Machines: 8, Shards: 2},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		c := NewCluster(cfg)
		c.ArmAll()
		if err := c.Round(noop); err != nil {
			t.Fatalf("cfg %+v: round before cancel: %v", cfg, err)
		}
		cancel()
		err := c.Round(noop)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cfg %+v: round after cancel returned %v, want context.Canceled", cfg, err)
		}
		if errors.Is(err, ErrTransport) {
			t.Fatalf("cfg %+v: cancellation classified as transport failure: %v", cfg, err)
		}
		c.Close()
	}
}

// tcpFleet builds a K-node connected TCP mesh with the given options,
// closing every node at test cleanup.
func tcpFleet(t *testing.T, K int, opts TransportOpts) ([]*TCPNode, []string) {
	t.Helper()
	nodes := make([]*TCPNode, K)
	addrs := make([]string, K)
	for i := range nodes {
		nd, err := ListenTCP(i, K, "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		nodes[i] = nd
		addrs[i] = nd.Addr()
	}
	for _, nd := range nodes {
		if err := nd.Connect(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, addrs
}

// recoverOpts is the transport tuning the soaks share: recovery on, fast
// retries, heartbeats, and a barrier timeout generous enough for respawn
// but far below the test timeout.
func recoverOpts() TransportOpts {
	return TransportOpts{
		Recover:           true,
		BarrierTimeout:    30 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
		RetryMax:          200 * time.Millisecond,
	}
}

// TestChaosHealsDeterministically: replicated K-shard fleets under a
// seeded chaos schedule — duplicated frames, killed and torn connections —
// heal through redial + replay and still produce state, metrics, and
// traces bit-identical to the clean unsharded run.
func TestChaosHealsDeterministically(t *testing.T) {
	const M = 26
	base := Config{Machines: M, SpaceCap: 1 << 20, Sparse: true}
	wantState, wantMetrics, wantTrace, err := runShardWorkload(base)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	for _, K := range []int{2, 4} {
		t.Run(fmt.Sprintf("K=%d", K), func(t *testing.T) {
			_, reconBefore, _ := RecoveryTotals()
			_, _, dropsBefore, tearsBefore := ChaosTotals()
			nodes, _ := tcpFleet(t, K, recoverOpts())
			spec := ChaosSpec{Seed: 42, DupEvery: 3, DropEvery: 9, TearEvery: 13}
			states := make([][]int64, K)
			metrics := make([]Metrics, K)
			traces := make([][]RoundStat, K)
			errs := make([]error, K)
			var wg sync.WaitGroup
			for i := 0; i < K; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cfg := base
					cfg.Shards = K
					cfg.Transport = spec.Wrap(nodes[i].Factory())
					states[i], metrics[i], traces[i], errs[i] = runShardWorkload(cfg)
				}(i)
			}
			wg.Wait()
			for i := 0; i < K; i++ {
				if errs[i] != nil {
					t.Fatalf("replica %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(states[i], wantState) {
					t.Errorf("replica %d: state diverged under chaos", i)
				}
				if metrics[i] != wantMetrics {
					t.Errorf("replica %d: metrics diverged under chaos\n got %+v\nwant %+v", i, metrics[i], wantMetrics)
				}
				if !reflect.DeepEqual(traces[i], wantTrace) {
					t.Errorf("replica %d: trace diverged under chaos", i)
				}
			}
			_, _, drops, tears := ChaosTotals()
			if drops+tears == dropsBefore+tearsBefore {
				t.Fatal("chaos schedule injected no connection faults; the test proved nothing")
			}
			if _, recon, _ := RecoveryTotals(); recon == reconBefore {
				t.Error("connections were killed but no reconnect was recorded")
			}
		})
	}
}

// TestStaleConnectionReportsAreIgnored pins the two generation checks the
// chaos soak found missing. Failure reports travel asynchronously (a dying
// reader, a queued error item, an enqueue on a connection read a moment
// ago), so by the time one lands a reconnect may have installed a healthy
// successor: marking that one down strands the accept side, which never
// redials and drops every frame for a down peer. Likewise a redial whose
// dial completes after the peer has dialled in must not replace the peer's
// connection.
func TestStaleConnectionReportsAreIgnored(t *testing.T) {
	nodes, _ := tcpFleet(t, 2, recoverOpts())
	dialer, acceptor := nodes[0], nodes[1]
	state := func(n *TCPNode, peer int) (gen uint64, down bool) {
		n.connMu.RLock()
		defer n.connMu.RUnlock()
		return n.connGen[peer], n.down[peer]
	}
	// Sever the pair once and wait for the dialer's redial to heal it.
	if !dialer.KillConn(1) {
		t.Fatal("no connection to kill")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		dg, dd := state(dialer, 1)
		ag, ad := state(acceptor, 0)
		if dg == 2 && ag == 2 && !dd && !ad {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair did not heal: dialer gen %d down %v, acceptor gen %d down %v", dg, dd, ag, ad)
		}
		time.Sleep(time.Millisecond)
	}
	// A late report about generation 1 says nothing about generation 2.
	acceptor.markDown(0, 1)
	dialer.markDown(1, 1)
	if _, down := state(acceptor, 0); down {
		t.Error("acceptor marked its healthy connection down on a stale report")
	}
	if _, down := state(dialer, 1); down {
		t.Error("dialer marked its healthy connection down on a stale report")
	}
	// A redial that set out to replace generation 1 finds generation 2.
	mine, theirs := net.Pipe()
	defer theirs.Close()
	if err := dialer.swapConn(1, mine, bufio.NewReader(mine), 1, 1); err == nil {
		t.Error("an overtaken redial replaced the peer's own reconnect")
	}
	if gen, _ := state(dialer, 1); gen != 2 {
		t.Errorf("dialer generation %d after the discarded swap, want 2", gen)
	}
}

// killAtEndpoint simulates kill -9 of a worker: at the configured barrier
// round it aborts the whole node — no flush, listener gone, queued frames
// lost — and fails the replica's run.
type killAtEndpoint struct {
	Transport
	node   *TCPNode
	killAt uint32
}

func (e *killAtEndpoint) Barrier(seq uint32, armed []int32) error {
	if seq == e.killAt {
		e.node.Abort()
		return fmt.Errorf("simulated kill -9 of shard %d at round %d", e.Transport.Shard(), seq)
	}
	return e.Transport.Barrier(seq, armed)
}

// TestKillRespawnRecovery is the in-process chaos soak the mrshard
// supervisor runs across real processes: a victim replica dies abruptly at
// a seeded round, respawns via ReconnectTCP, re-executes its local rounds
// detached, is caught up by the survivors' replay, and the whole fleet
// finishes with state, metrics, and traces bit-identical to the clean run.
func TestKillRespawnRecovery(t *testing.T) {
	const M = 26
	base := Config{Machines: M, SpaceCap: 1 << 20, Sparse: true}
	wantState, wantMetrics, wantTrace, err := runShardWorkload(base)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	for _, tc := range []struct {
		K, victim int
		killAt    uint32
	}{
		{2, 1, 4},
		{4, 2, 5},
		{4, 0, 2}, // shard 0 dies early: every survivor is an accept-side peer
	} {
		t.Run(fmt.Sprintf("K=%d/victim=%d/round=%d", tc.K, tc.victim, tc.killAt), func(t *testing.T) {
			respawnsBefore := func() uint64 { _, _, r := RecoveryTotals(); return r }()
			nodes, addrs := tcpFleet(t, tc.K, recoverOpts())
			states := make([][]int64, tc.K)
			metrics := make([]Metrics, tc.K)
			traces := make([][]RoundStat, tc.K)
			errs := make([]error, tc.K)
			var wg sync.WaitGroup
			for i := 0; i < tc.K; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cfg := base
					cfg.Shards = tc.K
					if i != tc.victim {
						cfg.Transport = nodes[i].Factory()
						states[i], metrics[i], traces[i], errs[i] = runShardWorkload(cfg)
						return
					}
					// First incarnation: dies at the scheduled round.
					cfg.Transport = func(k int) ([]Transport, error) {
						ep, err := nodes[i].Endpoint(k)
						if err != nil {
							return nil, err
						}
						return []Transport{&killAtEndpoint{Transport: ep, node: nodes[i], killAt: tc.killAt}}, nil
					}
					if _, _, _, err := runShardWorkload(cfg); err == nil {
						errs[i] = fmt.Errorf("victim outlived its own kill")
						return
					}
					// Respawn: rejoin the mesh, rerun from round 0. Rounds
					// below the negotiated resume run detached (local only);
					// the wire picks up exactly at the resume round.
					nd, resume, err := ReconnectTCP(i, tc.K, addrs, recoverOpts())
					if err != nil {
						errs[i] = fmt.Errorf("respawn: %w", err)
						return
					}
					defer nd.Close()
					if resume < 1 || resume > tc.killAt {
						errs[i] = fmt.Errorf("resume round %d outside [1, %d]", resume, tc.killAt)
						return
					}
					cfg.Transport = nd.Factory()
					states[i], metrics[i], traces[i], errs[i] = runShardWorkload(cfg)
				}(i)
			}
			wg.Wait()
			for i := 0; i < tc.K; i++ {
				if errs[i] != nil {
					t.Fatalf("replica %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(states[i], wantState) {
					t.Errorf("replica %d: state diverged after respawn", i)
				}
				if metrics[i] != wantMetrics {
					t.Errorf("replica %d: metrics diverged after respawn\n got %+v\nwant %+v", i, metrics[i], wantMetrics)
				}
				if !reflect.DeepEqual(traces[i], wantTrace) {
					t.Errorf("replica %d: trace diverged after respawn", i)
				}
			}
			if got := func() uint64 { _, _, r := RecoveryTotals(); return r }(); got != respawnsBefore+1 {
				t.Errorf("worker respawn total advanced by %d, want 1", got-respawnsBefore)
			}
		})
	}
}
