package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/mpc"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/setcover"
)

// Which per-layer metrics a workload has a layer for. The three algorithm
// workloads call core directly and never touch service, ledger, the graph
// file functions or set cover; serve reaches the algorithms only through the
// engine, so it has the jobs' model costs but none of the probes that take a
// job apart. Every other per-layer metric applies to all four.
var (
	algOnly = []string{"graph.build_s", "graph.validate_s", "seq.", "core.job_over_seq", "core.run_s",
		"core.outside_rounds_s", "mpc.round_", "mpc.plane_", "mpc.empty_round_us", "mpc.workers2_job_s",
		"obs.", "harness."}
	serveOnly = []string{"graph.encode_text_s", "graph.convert_s", "graph.verify_s", "graph.decode_text_s",
		"graph.open_mapped_us", "graph.container_mb", "setcover.", "service.", "ledger."}
)

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerApplies reports whether the traced pass of workload must produce the
// per-layer metric name.
func layerApplies(workload, name string) bool {
	if workload == "serve" {
		return !hasPrefix(name, algOnly)
	}
	return !hasPrefix(name, serveOnly)
}

// layerOptional reports whether a metric that applies may still be absent:
// the cold mrrun figures, when the binary was not built or no longer has the
// flag. No end-to-end metric depends on them.
func layerOptional(name string) bool { return strings.HasPrefix(name, "cmd.") }

// probePlane measures the message plane and the round machinery alone: a
// bare cluster of the job's machine count replays the job's rounds and words
// through Outbox.SendInts and Inbox.Next with no compute in between, and
// then runs empty rounds.
func probePlane(v map[string]float64, job mpc.Metrics, reps int) {
	if job.Machines < 1 || job.Rounds < 1 {
		return
	}
	const payload = 3 // ints per record: a record is 1 + payload words
	perMachine := int(job.WordsSent) / job.Rounds / job.Machines / (1 + payload)
	var replays, mwords []float64
	for i := 0; i < reps; i++ {
		c := mpc.NewCluster(mpc.Config{Machines: job.Machines})
		start := time.Now()
		for round := 0; round < job.Rounds; round++ {
			err := c.Round(func(machine int, in *mpc.Inbox, out *mpc.Outbox) {
				for _, ok := in.Next(); ok; _, ok = in.Next() {
				}
				for k := 0; k < perMachine; k++ {
					out.SendInts((machine+1+k)%job.Machines, int64(k), int64(machine), int64(round))
				}
			})
			if err != nil {
				panic(err) // an unsharded, uncapped cluster has no failing round
			}
		}
		d := time.Since(start).Seconds()
		replays = append(replays, d)
		mwords = append(mwords, float64(c.Metrics().WordsSent)/1e6/d)
		c.Close()
	}
	v["mpc.plane_replay_s"] = median(replays)
	v["mpc.plane_mwords_per_s"] = median(mwords)

	const emptyRounds = 2000
	c := mpc.NewCluster(mpc.Config{Machines: job.Machines})
	defer c.Close()
	start := time.Now()
	for round := 0; round < emptyRounds; round++ {
		if err := c.Round(func(int, *mpc.Inbox, *mpc.Outbox) {}); err != nil {
			panic(err) // as above
		}
	}
	v["mpc.empty_round_us"] = float64(time.Since(start).Microseconds()) / emptyRounds
}

// probeMrrun runs the built mrrun binary as a cold one-shot process on the
// workload's spec, unsharded and with -shards 2: what someone who runs one
// job from the command line waits for. A missing binary, or an mrrun that no
// longer has the flag, leaves the metric at 0 and says so; no end-to-end
// metric depends on either.
func probeMrrun(out *outcome, o options, args ...string) {
	if _, err := os.Stat(o.mrrun); err != nil {
		out.note("cmd.mrrun_* absent: %v", err)
		return
	}
	run := func(extra ...string) (seconds, rssMB float64, err error) {
		var msg bytes.Buffer
		cmd := exec.Command(o.mrrun, append(append([]string(nil), args...), extra...)...)
		cmd.Stdout, cmd.Stderr = &msg, &msg
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		// The child's ru_maxrss starts from this process's own peak (it is
		// forked from it), so its high-water mark is sampled from /proc
		// while it runs instead.
		status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
		exited := make(chan struct{})
		sampled := make(chan float64)
		go func() {
			var peak float64
			for {
				if mb, ok := vmHWM(status); ok && mb > peak {
					peak = mb
				}
				select {
				case <-exited:
					sampled <- peak
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}()
		err = cmd.Wait()
		seconds = time.Since(start).Seconds()
		close(exited)
		rssMB = <-sampled
		if err != nil {
			return 0, 0, fmt.Errorf("%v: %s", err, firstLine(msg.Bytes()))
		}
		return seconds, rssMB, nil
	}
	if s, rss, err := run(); err != nil {
		out.note("cmd.mrrun_s absent: %v", err)
	} else {
		out.values["cmd.mrrun_s"], out.values["cmd.mrrun_peak_rss_mb"] = s, rss
	}
	if s, _, err := run("-shards", "2"); err != nil {
		out.note("cmd.mrrun_shards2_s absent: %v", err)
	} else {
		out.values["cmd.mrrun_shards2_s"] = s
	}
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}

// probeFiles measures the graph file functions the set-up sequence does not
// already time, on the files it left in dir.
func probeFiles(out *outcome, dir string) {
	text, container := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.mrg")
	start := time.Now()
	g, err := graph.ReadFile(text)
	if !out.check(err == nil, "graph.ReadFile(text): %v", err) {
		return
	}
	out.values["graph.decode_text_s"] = time.Since(start).Seconds()
	var opens []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		mg, err := graph.OpenMapped(container)
		if !out.check(err == nil && mg.M() == g.M(), "graph.OpenMapped: %v", err) {
			return
		}
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e3)
		mg.Close()
	}
	out.values["graph.open_mapped_us"] = median(opens)
	if info, err := os.Stat(container); err == nil {
		out.values["graph.container_mb"] = float64(info.Size()) / (1 << 20)
	}
}

// probeInstances times what the engine's instance cache does on the first
// job of each generated catalogue entry, and the set cover generator and
// dual index inside it.
func probeInstances(out *outcome, catalogue []catalogueEntry) {
	v := out.values
	for _, e := range catalogue {
		if e.upload {
			continue
		}
		start := time.Now()
		_, err := service.BuildInstance(e.spec)
		out.check(err == nil, "BuildInstance(%s): %v", e.spec.Type, err)
		v["service.instance_build_s"] += time.Since(start).Seconds()

		var inst *setcover.Instance
		gen := rng.New(e.spec.Seed)
		start = time.Now()
		switch e.spec.Type { // as service.BuildInstance generates them
		case "setcover-f":
			m := int(math.Pow(float64(e.spec.N), 1+e.spec.C))
			inst = setcover.RandomFrequency(e.spec.N, m, e.spec.F, 10, gen.Split())
		case "setcover-greedy":
			inst = setcover.RandomSized(e.spec.N, max(e.spec.N/10, 10), 12, 8, gen.Split())
		default:
			continue
		}
		v["setcover.generate_s"] += time.Since(start).Seconds()
		start = time.Now()
		inst.Dual()
		v["setcover.dual_s"] += time.Since(start).Seconds()
	}
}

// probeLedger measures the ledger alone on a fresh directory: the in-memory
// chaining Append the job path pays, and the fsync the batcher pays.
func probeLedger(out *outcome, dir string) {
	store, _, err := ledger.OpenDisk(dir, ledger.DiskOptions{})
	if !out.check(err == nil, "ledger.OpenDisk: %v", err) {
		return
	}
	l, err := ledger.Open(ledger.Options{Store: store})
	if !out.check(err == nil, "ledger.Open: %v", err) {
		store.Close()
		return
	}
	const records = 2000
	payload := bytes.Repeat([]byte("x"), 1024) // about the size of a result envelope
	hash := ledger.HashBytes(payload)
	start := time.Now()
	for i := 0; i < records; i++ {
		l.Append(fmt.Sprintf("probe-%d", i), payload, hash, hash)
	}
	out.values["ledger.append_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / records
	start = time.Now()
	l.Sync()
	out.values["ledger.sync_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	out.check(l.Close() == nil && !l.Degraded(), "ledger probe: close failed or ledger degraded")
}
