package service

// Crash-restart coverage for the durable job ledger: a restarted engine
// serves pre-crash results bit-identically from the recovered chain, a
// kill -9'd server repairs its torn tail exactly once, and on-disk
// corruption is pinpointed — not papered over.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
)

// ledgerReqs are the workload jobs for the restart tests: distinct
// algorithms so each is its own chain record.
func ledgerReqs() []JobRequest {
	return []JobRequest{
		{Instance: InstanceSpec{Type: "density", N: 120, C: 0.3, Seed: 7}, Alg: "matching", Seed: 7},
		{Instance: InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: 4}, Alg: "mis", Seed: 4},
		{Instance: InstanceSpec{Type: "setcover-greedy", N: 80, Seed: 9}, Alg: "setcover-greedy",
			Args: map[string]float64{"eps": 0.3}, Seed: 9},
	}
}

// syncLedgerAt makes the first n records durable. A job's waiters are
// released before its flight appends to the ledger (the append runs off the
// engine mutex), so a bare SyncLedger right after finished() can run ahead
// of the last record; this waits for the chain to hold n records first.
func syncLedgerAt(t testing.TB, e *Engine, n int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); e.ledger.Head().Seq < uint64(n); {
		if time.Now().After(deadline) {
			t.Fatalf("ledger holds %d records, want %d", e.ledger.Head().Seq, n)
		}
		time.Sleep(time.Millisecond)
	}
	e.SyncLedger()
}

// TestLedgerRestartServesPreCrashResults is the in-process restart test:
// jobs completed before a (graceful) shutdown are served by a fresh engine
// on the same directories with Source "ledger", bit-identical results, and
// zero flight executions — including a job on an uploaded graph, which the
// ledger records by content id against the DataDir spool.
func TestLedgerRestartServesPreCrashResults(t *testing.T) {
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	dataDir := filepath.Join(t.TempDir(), "data")
	reqs := ledgerReqs()

	var text bytes.Buffer
	if err := graph.Encode(&text, uploadGraph()); err != nil {
		t.Fatal(err)
	}

	e1 := NewEngine(Config{Pool: 2, LedgerDir: ledgerDir, DataDir: dataDir})
	id, _, err := e1.Upload(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, JobRequest{Instance: InstanceSpec{Type: "upload", ID: id}, Alg: "mis", Seed: 3})
	before := make([]JobView, len(reqs))
	for i, req := range reqs {
		before[i] = finished(t, e1, mustSubmit(t, e1, req))
	}
	syncLedgerAt(t, e1, len(reqs))
	if head := e1.ledger.Head(); head.Persisted != uint64(len(reqs)) {
		t.Fatalf("persisted %d records, want %d", head.Persisted, len(reqs))
	}
	e1.Close()

	e2 := NewEngine(Config{Pool: 2, LedgerDir: ledgerDir, DataDir: dataDir})
	defer e2.Close()
	if rep, ok := e2.VerifyLedger(); !ok || !rep.OK {
		t.Fatalf("recovered chain did not verify: %+v", rep)
	}
	for i, req := range reqs {
		v := finished(t, e2, mustSubmit(t, e2, req))
		if v.Source != SourceLedger {
			t.Fatalf("job %d source %q, want ledger", i, v.Source)
		}
		// Bit-identical: the ledger stores the exact canonical result
		// bytes, so the decoded documents must match field for field.
		got, _ := json.Marshal(v.Result)
		want, _ := json.Marshal(before[i].Result)
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d result differs across restart:\n  before: %s\n  after:  %s", i, want, got)
		}
	}
	if n := e2.metrics.counter("flights_executed_total"); n != 0 {
		t.Fatalf("restarted engine executed %d flights, want 0 (all served from ledger)", n)
	}
	if n := e2.metrics.counter("ledger_hits_total"); n != uint64(len(reqs)) {
		t.Fatalf("ledger hits %d, want %d", n, len(reqs))
	}
}

// TestLedgerVerifyPinpointsCorruption flips one byte of a persisted record
// under a live engine and requires POST-style verification to fail naming
// the damaged file — while job serving keeps working (degradation, not
// death).
func TestLedgerVerifyPinpointsCorruption(t *testing.T) {
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	e := NewEngine(Config{Pool: 1, LedgerDir: ledgerDir})
	defer e.Close()
	req := ledgerReqs()[0]
	want := finished(t, e, mustSubmit(t, e, req))
	syncLedgerAt(t, e, 1)

	active := filepath.Join(ledgerDir, "ledger.active")
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, enabled := e.VerifyLedger()
	if !enabled {
		t.Fatal("ledger reported disabled")
	}
	if rep.OK {
		t.Fatal("verification passed over a corrupted record")
	}
	if !strings.Contains(rep.Error, "ledger.active") {
		t.Fatalf("verification error does not pinpoint the damaged file: %q", rep.Error)
	}
	if e.metrics.counter("ledger_verify_failed_total") != 1 {
		t.Fatal("ledger_verify_failed_total not incremented")
	}
	// The engine still serves: the in-memory chain and LRU are intact.
	v := finished(t, e, mustSubmit(t, e, req))
	if v.Result.Summary != want.Result.Summary {
		t.Fatal("corruption broke in-process serving")
	}
}

// TestLedgerRecoveryFailureSurfacedByVerify: when startup recovery fails
// on a corrupt chain, the engine keeps serving on a memory-only substitute
// — and verification must keep reporting the damaged on-disk history
// instead of blessing the substitute's clean (empty) chain.
func TestLedgerRecoveryFailureSurfacedByVerify(t *testing.T) {
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	e1 := NewEngine(Config{Pool: 1, LedgerDir: ledgerDir})
	reqs := ledgerReqs()
	finished(t, e1, mustSubmit(t, e1, reqs[0]))
	finished(t, e1, mustSubmit(t, e1, reqs[1]))
	syncLedgerAt(t, e1, 2)
	e1.Close()

	// Mid-file corruption with valid records after it: not a torn tail, so
	// recovery must refuse the history rather than repair it.
	active := filepath.Join(ledgerDir, "ledger.active")
	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(Config{Pool: 1, LedgerDir: ledgerDir})
	defer e2.Close()
	rep, enabled := e2.VerifyLedger()
	if !enabled {
		t.Fatal("ledger reported disabled after failed recovery")
	}
	if rep.OK {
		t.Fatal("verify blessed the memory-only substitute over a corrupt on-disk ledger")
	}
	if !strings.Contains(rep.Error, "recovery failed") || !strings.Contains(rep.Error, "ledger.active") {
		t.Fatalf("verify error does not surface the recovery failure: %q", rep.Error)
	}
	if v := e2.LedgerInfo(); v.RecoveryError == "" {
		t.Fatal("LedgerInfo does not surface the recovery error")
	}
	// Degraded, not dead: jobs still execute and serve.
	if v := finished(t, e2, mustSubmit(t, e2, reqs[0])); v.Error != "" {
		t.Fatalf("job failed in degraded mode: %q", v.Error)
	}
}

// crashChildEnv is the marker that turns the test binary into the crash
// harness's server process.
const crashChildEnv = "MRSERVE_LEDGER_CRASH_CHILD"

// TestLedgerCrashChild is not a test: re-executed by TestLedgerKillMinus9
// with crashChildEnv set, it runs a real engine+HTTP server on an
// ephemeral port and blocks until the parent SIGKILLs it.
func TestLedgerCrashChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("helper process for TestLedgerKillMinus9")
	}
	e := NewEngine(Config{
		Pool:      2,
		LedgerDir: os.Getenv("MRSERVE_LEDGER_DIR"),
		DataDir:   os.Getenv("MRSERVE_DATA_DIR"),
	})
	srv := &http.Server{Handler: NewServer(e)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The parent scrapes this line for the address; everything else the
	// child prints is test chatter.
	fmt.Printf("CHILD_ADDR %s\n", ln.Addr())
	_ = srv.Serve(ln) // blocks until SIGKILL
}

// TestLedgerKillMinus9 is the crash harness: a real server process is
// SIGKILLed mid-life, its active ledger file is given a torn tail record,
// and the restarted process must (1) truncate the tear exactly once,
// (2) verify its chain, and (3) serve every pre-crash result byte-identically
// without executing a single flight.
func TestLedgerKillMinus9(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness spawns subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	dataDir := filepath.Join(t.TempDir(), "data")
	env := append(os.Environ(),
		crashChildEnv+"=1",
		"MRSERVE_LEDGER_DIR="+ledgerDir,
		"MRSERVE_DATA_DIR="+dataDir,
	)

	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(exe, "-test.run=^TestLedgerCrashChild$", "-test.v")
		cmd.Env = env
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CHILD_ADDR "); ok {
				// Keep draining stdout so the child never blocks on a full
				// pipe.
				go func() {
					for sc.Scan() {
					}
				}()
				return cmd, "http://" + addr
			}
		}
		t.Fatalf("child exited before announcing its address (scan err %v)", sc.Err())
		return nil, ""
	}
	kill := func(cmd *exec.Cmd) {
		if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()
	}

	type ledgerDoc struct {
		Enabled   bool   `json:"enabled"`
		Seq       uint64 `json:"seq"`
		Persisted uint64 `json:"persisted"`
		TornTails uint64 `json:"torn_tails"`
	}
	type jobDoc struct {
		Status string          `json:"status"`
		Source string          `json:"source"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	submit := func(url string, req JobRequest) jobDoc {
		t.Helper()
		body, _ := json.Marshal(jobSubmission{JobRequest: req, Wait: true})
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc jobDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.Status != "done" {
			t.Fatalf("job failed: status %q error %q", doc.Status, doc.Error)
		}
		return doc
	}
	ledgerState := func(url string) ledgerDoc {
		t.Helper()
		resp, err := http.Get(url + "/v1/ledger")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc ledgerDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	// Round 1: run the workload, wait for durability, then SIGKILL.
	cmd, url := start()
	reqs := ledgerReqs()
	before := make([]jobDoc, len(reqs))
	for i, req := range reqs {
		before[i] = submit(url, req)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := ledgerState(url); st.Persisted == uint64(len(reqs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records never became durable: %+v", ledgerState(url))
		}
		time.Sleep(10 * time.Millisecond)
	}
	kill(cmd)

	// Simulate the torn write the SIGKILL could have left behind: a frame
	// header claiming 200 body bytes with only 40 present at EOF.
	f, err := os.OpenFile(filepath.Join(ledgerDir, "ledger.active"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 48)
	binary.LittleEndian.PutUint32(torn[0:], 0xdeadbeef)
	binary.LittleEndian.PutUint32(torn[4:], 200)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Round 2: restart on the same directories.
	cmd, url = start()
	st := ledgerState(url)
	if !st.Enabled || st.Seq != uint64(len(reqs)) {
		t.Fatalf("recovered ledger head %+v, want seq %d", st, len(reqs))
	}
	if st.TornTails != 1 {
		t.Fatalf("torn tails %d, want 1 (recovery must truncate the tear)", st.TornTails)
	}
	resp, err := http.Post(url+"/v1/ledger/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-crash chain verification returned %d, want 200", resp.StatusCode)
	}
	for i, req := range reqs {
		doc := submit(url, req)
		if doc.Source != "ledger" {
			t.Fatalf("job %d source %q after restart, want ledger", i, doc.Source)
		}
		if !bytes.Equal(doc.Result, before[i].Result) {
			t.Fatalf("job %d result not byte-identical across kill -9:\n  before: %s\n  after:  %s",
				i, before[i].Result, doc.Result)
		}
	}
	metrics, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(metrics.Body)
	metrics.Body.Close()
	for _, line := range []string{
		"mrserve_flights_executed_total 0",
		"mrserve_ledger_torn_tail_total 1",
		"mrserve_ledger_degraded 0",
		fmt.Sprintf("mrserve_ledger_hits_total %d", len(reqs)),
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
	kill(cmd)

	// Round 3: the tear was truncated exactly once — a clean restart sees
	// no torn tail and the same head.
	cmd, url = start()
	defer kill(cmd)
	st = ledgerState(url)
	if st.TornTails != 0 {
		t.Fatalf("second restart reports %d torn tails, want 0 (truncate exactly once)", st.TornTails)
	}
	if st.Seq != uint64(len(reqs)) {
		t.Fatalf("second restart head seq %d, want %d", st.Seq, len(reqs))
	}
}
