package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/seq"
	"repro/internal/service"
)

// algSpec is one of the three algorithm workloads: a registry algorithm run
// as a library caller runs it, over and over on one resident instance.
//
// jobsPerSec sizes the fixed schedule: a run times round(seconds·jobsPerSec)
// jobs, so that on the reference host (2 CPUs, go1.24) the timed phase lasts
// about -seconds. It is a constant, never a timer: every run of a workload
// at the same -seconds does the same work.
type algSpec struct {
	alg        string
	n          int
	c, mu      float64
	warmup     int
	jobsPerSec float64
	setupReps  int
	// direct is the registry entry taken apart — the algorithm, then the
	// validator the registry runs on its output — so the traced pass can
	// time the two separately.
	direct func(g *graph.Graph, p core.Params) (pin, mpc.Metrics, func() bool, error)
	// seqSolve is the sequential algorithm the central machine runs, on the
	// whole instance: the layer's cost alone and the one-thread baseline.
	seqSolve func(g *graph.Graph)
}

const tinyN = 500

var algSpecs = map[string]algSpec{
	// Algorithm 4. n = 30000 rather than the 50000 the sizing used: 40 jobs of
	// 0.5 s repeat better in a 20 s phase than 20 jobs of 1 s.
	"match": {alg: "matching", n: 30000, c: 0.3, mu: 0.2, warmup: 2, jobsPerSec: 2.0, setupReps: 25,
		direct: func(g *graph.Graph, p core.Params) (pin, mpc.Metrics, func() bool, error) {
			res, err := core.RLRMatching(g, p, core.MatchingOptions{})
			if err != nil {
				return pin{}, mpc.Metrics{}, nil, err
			}
			return pin{Size: len(res.Edges), Weight: res.Weight, Iterations: res.Iterations}, res.Metrics,
				func() bool { return graph.IsMatching(g, res.Edges) }, nil
		},
		seqSolve: func(g *graph.Graph) { seq.LocalRatioMatching(g) }},
	// Theorem 6.6. A 0.1 s set-up varies by ±40 % from one repetition to the
	// next (0.25 s on match: ±25 %), so the short ones are repeated often.
	"ecolour": {alg: "ecolour", n: 15000, c: 0.3, mu: 0.2, warmup: 1, jobsPerSec: 1.6, setupReps: 60,
		direct: func(g *graph.Graph, p core.Params) (pin, mpc.Metrics, func() bool, error) {
			res, err := core.EdgeColouring(g, p)
			if err != nil {
				return pin{}, mpc.Metrics{}, nil, err
			}
			return pin{Size: res.NumColours}, res.Metrics,
				func() bool { return graph.IsProperEdgeColouring(g, res.Colours) }, nil
		},
		seqSolve: func(g *graph.Graph) { seq.MisraGries(g) }},
	// Algorithm 6 at a small µ: many machines, many rounds, little compute.
	// Its timings repeat worst of the four, so it runs the most jobs.
	"mis-rounds": {alg: "mis", n: 20000, c: 0.5, mu: 0.05, warmup: 2, jobsPerSec: 2.25, setupReps: 5,
		direct: func(g *graph.Graph, p core.Params) (pin, mpc.Metrics, func() bool, error) {
			res, err := core.MISFast(g, p)
			if err != nil {
				return pin{}, mpc.Metrics{}, nil, err
			}
			return pin{Size: len(res.Set), Iterations: res.Iterations}, res.Metrics,
				func() bool { return graph.IsMaximalIndependentSet(g, res.Set) }, nil
		},
		seqSolve: func(g *graph.Graph) { seq.GreedyMIS(g, nil) }},
}

// algKeys is how many distinct algorithm seeds a run cycles through: every
// job key is executed several times, so each repetition can be compared with
// the first.
const algKeys = 4

// algRun is the state of one run of an algorithm workload.
type algRun struct {
	o     options
	spec  algSpec
	alg   core.Algorithm
	in    core.Input
	out   *outcome
	first map[uint64]core.RunResult
	pins  map[string]pin
}

// jobSeed is the algorithm seed of the i-th job of the schedule.
func (r *algRun) jobSeed(i int) uint64 { return r.o.seed*1000 + uint64(i%algKeys) }

// verify checks one job's result: valid, no space violation, identical to
// the first repetition of the same key, and equal to the pin for seed 1.
func (r *algRun) verify(seed uint64, res *core.RunResult) bool {
	ok := r.out.check(res.Valid && res.Metrics.Violations == 0,
		"%s seed %d: valid=%v violations=%d", r.spec.alg, seed, res.Valid, res.Metrics.Violations)
	if prev, seen := r.first[seed]; seen {
		ok = r.out.check(sameResult(prev, *res), "%s seed %d: repetition differs from the first: %+v vs %+v",
			r.spec.alg, seed, *res, prev) && ok
	} else {
		r.first[seed] = *res
		name := fmt.Sprintf("seed=%d", seed)
		p := pinOf(res)
		r.pins[name] = p
		ok = checkPin(r.out, r.o, name, p) && ok
	}
	return ok
}

// sameResult compares two results of one job key. The traced pass's direct
// call composes no summary line, so a missing one matches any.
func sameResult(a, b core.RunResult) bool {
	if a.Summary == "" || b.Summary == "" {
		a.Summary, b.Summary = "", ""
	}
	return a == b
}

// job runs one job through the registry, as mrrun and the service do, and
// returns its latency; a job that fails any check has none.
func (r *algRun) job(seed uint64, p core.Params) (float64, *core.RunResult, bool) {
	p.Mu, p.Seed = r.spec.mu, seed
	start := time.Now()
	res, err := r.alg.Run(r.in, p, nil)
	d := time.Since(start).Seconds()
	if err != nil {
		r.out.check(false, "%s seed %d: %v", r.spec.alg, seed, err)
		return 0, nil, false
	}
	return d, res, r.verify(seed, res)
}

func runAlgWorkload(o options) (*outcome, error) {
	spec := algSpecs[o.workload]
	alg, ok := core.LookupAlgorithm(spec.alg)
	if !ok {
		return nil, fmt.Errorf("registry has no algorithm %q", spec.alg)
	}
	jobs := int(math.Round(float64(o.seconds) * spec.jobsPerSec))
	if o.tiny {
		spec.n, spec.warmup, spec.setupReps, jobs = tinyN, 1, 2, 3
	}
	if jobs < 2 {
		jobs = 2
	}
	r := &algRun{o: o, spec: spec, alg: alg, out: newOutcome(),
		first: make(map[uint64]core.RunResult), pins: make(map[string]pin)}
	instance := service.InstanceSpec{Type: "density", N: spec.n, C: spec.c, Seed: o.seed}
	var err error
	if o.trace == 0 {
		err = r.untraced(instance, jobs)
	} else {
		err = r.traced(instance, jobs)
	}
	if err != nil {
		return nil, err
	}
	return r.out, writePins(o, r.pins)
}

// untraced is the pass the end-to-end metrics come from.
func (r *algRun) untraced(instance service.InstanceSpec, jobs int) error {
	// Set-up: spec → instance ready to run, repeated from a collected heap;
	// the last repetition's instance is the one the jobs run on.
	var setups []float64
	for i := 0; i < r.spec.setupReps; i++ {
		r.in = core.Input{}
		runtime.GC()
		ref := newReference()
		u := startUnit()
		in, err := service.BuildInstance(instance)
		if err != nil {
			return err
		}
		set := u.done(1, &ref)
		setups = append(setups, set.wallS*set.scale)
		r.in = in
	}
	resetPeakRSS()
	for i := 0; i < r.spec.warmup; i++ {
		r.job(r.jobSeed(i), core.Params{})
	}

	var latencies, plain []float64
	var units []unit
	ref := newReference()
	start := snapshot()
	for i := 0; i < jobs; i++ {
		u := startUnit()
		d, _, ok := r.job(r.jobSeed(i), core.Params{})
		units = append(units, u.done(1, &ref))
		if ok {
			latencies = append(latencies, d*units[i].scale)
			plain = append(plain, d)
		}
	}
	used := snapshot().since(start)
	if len(latencies) == 0 {
		return fmt.Errorf("no job of %d passed its checks", jobs)
	}
	endToEnd(r.out, setups, latencies, plain, units, ref, used)
	return nil
}

// traced is the pass the per-layer metrics come from: the same set-up and
// schedule with a span around every call into a layer, then one probe per
// layer on the workload's own instance.
func (r *algRun) traced(instance service.InstanceSpec, jobs int) error {
	rec := &recorder{}
	v := r.out.values
	root := rec.begin("workload", 0, 0)

	// Set-up, taken apart along service.BuildInstance's own steps.
	setup := rec.begin("setup", root, 0)
	var g *graph.Graph
	v["graph.generate_s"] = rec.timed("graph.generate", setup, 0, func() {
		gen := rng.New(instance.Seed)
		g = graph.Density(instance.N, instance.C, gen.Split())
		g.AssignUniformWeights(gen.Split(), 1, 100)
	}).Seconds()
	v["graph.build_s"] = rec.timed("graph.build", setup, 0, func() {
		g.Build()
		g.NeighborsW(0)
	}).Seconds()
	rec.end(setup)
	v["graph.edges"] = float64(g.M())
	r.in = core.Input{Graph: g}
	for i := 0; i < r.spec.warmup; i++ {
		r.job(r.jobSeed(i), core.Params{})
	}

	// The schedule, its jobs taken in turn plain (the reference), traced
	// (direct call, harness sink, validator apart) and with an obs.RingSink.
	var plain, tracedJobs, ring, runs, validates, outside, compute, merge, barrier []float64
	var last mpc.Metrics
	var iterations int
	start := snapshot()
	for i := 0; i < jobs; i++ {
		seed := r.jobSeed(i)
		switch i % 3 {
		case 0:
			if d, _, ok := r.job(seed, core.Params{}); ok {
				plain = append(plain, d)
			}
		case 1:
			jobID := i + 1
			job := rec.begin("job", root, jobID)
			run := rec.begin("core.run", job, jobID)
			sink := &roundSink{rec: rec, parent: run, job: jobID}
			t0 := time.Now()
			p, m, validate, err := r.spec.direct(g, core.Params{Mu: r.spec.mu, Seed: seed, Sink: sink})
			runS := time.Since(t0).Seconds()
			rec.end(run)
			if err != nil {
				r.out.check(false, "%s seed %d: %v", r.spec.alg, seed, err)
				rec.end(job)
				continue
			}
			var valid bool
			validateS := rec.timed("graph.validate", job, jobID, func() { valid = validate() }).Seconds()
			rec.end(job)
			// The direct call must be the registry's job: verify compares them.
			res := core.RunResult{Size: p.Size, Weight: p.Weight, Valid: valid, Iterations: p.Iterations, Metrics: m}
			if !r.verify(seed, &res) {
				continue
			}
			tracedJobs = append(tracedJobs, runS+validateS)
			runs = append(runs, runS)
			validates = append(validates, validateS)
			outside = append(outside, runS-sink.total.Seconds())
			compute = append(compute, sink.compute.Seconds())
			merge = append(merge, sink.merge.Seconds())
			barrier = append(barrier, sink.barrier.Seconds())
			last, iterations = m, p.Iterations
		case 2:
			if d, _, ok := r.job(seed, core.Params{Sink: obs.NewRingSink(256)}); ok {
				ring = append(ring, d)
			}
		}
	}
	used := snapshot().since(start)
	rec.end(root)
	if len(plain) == 0 || len(tracedJobs) == 0 {
		return fmt.Errorf("no plain or no traced job passed its checks")
	}

	jobS := median(plain)
	v["core.run_s"] = median(runs)
	v["core.iterations"] = float64(iterations)
	v["core.outside_rounds_s"] = median(outside)
	v["graph.validate_s"] = median(validates)
	v["mpc.round_compute_s"] = median(compute)
	v["mpc.round_merge_s"] = median(merge)
	v["mpc.round_barrier_s"] = median(barrier)
	v["mpc.rounds"] = float64(last.Rounds)
	v["mpc.words"] = float64(last.WordsSent)
	v["mpc.messages"] = float64(last.Messages)
	v["mpc.machines"] = float64(last.Machines)
	v["mpc.max_space"] = float64(last.MaxSpace)
	v["mpc.violations"] = float64(last.Violations)
	v["harness.trace_overhead_frac"] = median(tracedJobs)/jobS - 1
	if len(ring) > 0 {
		v["obs.ring_sink_overhead_frac"] = median(ring)/jobS - 1
	}
	used.gcMetrics(v, jobs)

	// Layer probes on the same instance.
	reps := 3
	if r.o.tiny {
		reps = 1
	}
	var seqS, seqMB []float64
	for i := 0; i < reps; i++ {
		s, mb := allocMBOf(func() { r.spec.seqSolve(g) })
		seqS, seqMB = append(seqS, s), append(seqMB, mb)
	}
	v["seq.solve_s"] = median(seqS)
	v["seq.solve_alloc_mb"] = median(seqMB)
	v["core.job_over_seq"] = jobS / v["seq.solve_s"]
	var workers2 []float64
	for i := 0; i < reps; i++ {
		if d, _, ok := r.job(r.jobSeed(i), core.Params{Workers: 2}); ok {
			workers2 = append(workers2, d)
		}
	}
	v["mpc.workers2_job_s"] = median(workers2)
	probePlane(v, last, reps)
	probeMrrun(r.out, r.o, "-alg", r.spec.alg, "-n", fmt.Sprint(r.spec.n), "-c", fmt.Sprint(r.spec.c),
		"-mu", fmt.Sprint(r.spec.mu), "-seed", fmt.Sprint(r.o.seed))

	// Where a job's wall-clock went, from the spans alone.
	self := rec.selfTimes()
	jobTotal := mean(tracedJobs) * float64(len(tracedJobs))
	r.out.note("job wall-clock by span (self time, share of traced jobs' %.3f s):", jobTotal)
	var named float64
	for _, name := range []string{"mpc.round.compute", "mpc.round.merge", "mpc.round.barrier", "mpc.round", "core.run", "graph.validate", "job"} {
		share := self[name].Seconds() / jobTotal
		if name != "job" {
			named += share
		}
		r.out.note("  %-18s %6.1f %%", name, 100*share)
	}
	r.out.note("  named spans cover %.1f %% of a job; beside the spans, seq.solve_s is %.1f %% and mpc.plane_replay_s %.1f %% of job_s",
		100*named, 100*v["seq.solve_s"]/jobS, 100*v["mpc.plane_replay_s"]/jobS)
	return rec.flush(tracePath(r.o))
}

func tracePath(o options) string {
	return filepath.Join(o.outDir, "trace-"+o.workload+".json")
}
