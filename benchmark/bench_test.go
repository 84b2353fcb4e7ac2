package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// mayBeZero are the per-layer metrics whose true value can be 0 or below:
// counts of things that should not happen or need not (a tiny job may end
// without a GC cycle, two clients need not overlap), iterations of an
// algorithm that does not iterate, the barrier phase (the sharded transport
// exchange; no workload shards), and the two overhead fractions. Every other
// metric that applies to a workload must come out positive.
var mayBeZero = []string{"mpc.violations", "service.rejected", "service.coalesced", "core.iterations",
	"runtime.gc_", "mpc.round_barrier_s", "obs.ring_sink_overhead_frac", "harness.trace_overhead_frac"}

// TestTinyWorkloads runs every workload of BENCHMARK.json at the -tiny scale,
// untraced and traced, against a freshly built mrrun, and requires every
// check to pass, every metric the contract names to be in the result, every
// one that applies to the workload to be measured (positive, but for
// mayBeZero), the others and only those to be reported as not measured, and
// the trace file to nest.
func TestTinyWorkloads(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != 4 || len(c.EndToEnd) != 6 || len(c.PerLayer) == 0 || len(c.PerLayer) >= 128 {
		t.Fatalf("contract has %d workloads, %d end-to-end and %d per-layer metrics",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	mrrun := filepath.Join(t.TempDir(), "mrrun")
	if msg, err := exec.Command("go", "build", "-C", "..", "-o", mrrun, "./cmd/mrrun").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/mrrun: %v: %s", err, msg)
	}
	for _, w := range c.Workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: w.Name, seed: 2, seconds: 1, trace: trace, tiny: true,
				mrrun: mrrun, outDir: t.TempDir(), tmpDir: t.TempDir()}
			res, out, absent, err := runWorkload(o, c)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d checks failed: %v", w.Name, trace, res.Failed, res.Attempted, out.notes)
			}
			defs := c.EndToEnd
			if trace == 1 {
				defs = c.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, contract names %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace %d: %s = %+v (present %v)", w.Name, trace, d.Name, m, ok)
				}
				if d.Name == "cmd.mrrun_shards2_s" {
					continue // may go with the -shards flag; the plain cold run must stay
				}
				applies := trace == 0 || layerApplies(w.Name, d.Name)
				switch notMeasured := slices.Contains(absent, d.Name); {
				case notMeasured == applies:
					t.Errorf("%s trace %d: %s applies=%v, reported as not measured=%v", w.Name, trace, d.Name, applies, notMeasured)
				case applies && m.Value <= 0 && !hasPrefix(d.Name, mayBeZero):
					t.Errorf("%s trace %d: %s is %v, must be positive", w.Name, trace, d.Name, m.Value)
				}
			}
			if trace == 1 {
				checkTraceFile(t, tracePath(o))
			}
		}
	}
}

// checkTraceFile parses the Chrome trace and requires every child span to lie
// inside its parent (to the microsecond the format rounds to).
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(events) < 3 {
		t.Fatalf("%s: only %d spans", path, len(events))
	}
	byID := make(map[int]traceEvent, len(events))
	for _, e := range events {
		byID[e.Args["id"]] = e
	}
	for _, e := range events {
		parent := e.Args["parent"]
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Errorf("%s: span %q names parent %d, which is not in the file", path, e.Name, parent)
			continue
		}
		if e.Ts < p.Ts-1 || e.Ts+e.Dur > p.Ts+p.Dur+1 || e.Dur < 0 {
			t.Errorf("%s: span %q [%f, +%f] leaves its parent %q [%f, +%f]", path, e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	rec := &recorder{}
	root := rec.add("root", 0, 0, at(0), at(100))
	rec.add("a", root, 0, at(10), at(40))
	rec.add("a", root, 0, at(30), at(60)) // overlaps the first: covered once
	rec.add("b", root, 0, at(70), at(80))
	self := rec.selfTimes()
	if got := self["root"]; got != 40*time.Millisecond {
		t.Errorf("root self time %v, want 40ms", got)
	}
	if got := self["a"]; got != 60*time.Millisecond {
		t.Errorf("a self time %v, want 60ms", got)
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(range(1, 11), n=4) ==
// [2.75, 5.5, 8.25], the method the acceptance check uses.
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if pct, v := highPercentile(make([]float64, 19)); pct != 0 || v != 0 {
		t.Errorf("highPercentile of 19 samples = %v, %v; want none", pct, v)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if pct, v := highPercentile(hundred); pct != 90 || v != 90 {
		t.Errorf("highPercentile of 1..100 = p%v %v; want p90 90", pct, v)
	}
}
