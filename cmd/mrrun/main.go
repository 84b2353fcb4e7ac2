// Command mrrun runs a single MapReduce algorithm on a generated or loaded
// instance and prints the solution summary plus the measured model costs
// (rounds, words, space per machine). It dispatches through the algorithm
// registry of internal/core and builds instances through the same
// deterministic spec builder the mrserve daemon uses, so its output for a
// given (instance spec, algorithm, seed) is bit-identical to a served job.
//
// Usage:
//
//	mrrun -alg matching -n 1000 -c 0.3 -mu 0.2 [-seed 1] [-b 3] [-eps 0.2] [-workers W]
//	mrrun -alg list            # list registered algorithms
//	mrrun -load g.txt.gz ...   # run on a saved instance (format sniffed:
//	                           # text, binary container, gzip of either)
//	mrrun -load g.txt -convert g.mrg   # convert to a mappable binary
//	                           # container (no run) and exit
//	mrrun -n 100000 -c 0.3 -save g.mrg # generate straight to a container
//
// Loading a raw binary container (.mrg) memory-maps it: start-up reads the
// file once to check its checksums and slab invariants, keeps no copy on the
// heap, and the kernel pages edge data in on demand. -convert decodes the
// input into memory and writes the container when the container fits in
// 256 MiB, and streams larger text graphs through the external-sort builder
// instead; either way its output is byte-identical to saving the in-heap
// graph.
//
// Standard output is the result and is deterministic; one line on standard
// error, "mrrun: instance <s> run <s> total <s> peak_rss <MB> heap <MB>",
// says where the wall-clock went, how high the resident set peaked (VmHWM,
// or getrusage's ru_maxrss where there is no /proc) and how much heap the
// run left live (runtime/metrics' /gc/heap/live:bytes after a collection).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	alg := flag.String("alg", "matching", "algorithm to run, or \"list\"")
	n := flag.Int("n", 1000, "number of vertices / sets")
	c := flag.Float64("c", 0.3, "density exponent: m = n^{1+c}")
	mu := flag.Float64("mu", 0.2, "space exponent: machines have ~n^{1+mu} words")
	seed := flag.Uint64("seed", 1, "random seed (instance generation and algorithm)")
	bcap := flag.Int("b", 2, "b-matching capacity")
	eps := flag.Float64("eps", 0.2, "epsilon (b-matching, greedy set cover)")
	f := flag.Int("f", 3, "set cover max frequency (setcover-f)")
	load := flag.String("load", "", "load the graph from a file (text, binary container, or gzip of either — sniffed) instead of generating one")
	save := flag.String("save", "", "save the generated graph before running (.mrg binary container, .gz gzip, else text)")
	convert := flag.String("convert", "", "with -load: convert the input to a raw binary container at this path and exit without running")
	traceOut := flag.String("trace-out", "", "write a Chrome-trace-event/Perfetto JSON file of per-round phase timings (open in ui.perfetto.dev)")
	workers := flag.Int("workers", 0, "round-executor pool size: 0|1 sequential, >1 that many goroutines, -1 one per CPU")
	flag.Parse()
	start := time.Now()

	if *convert != "" {
		if *load == "" {
			exitOn(fmt.Errorf("-convert needs -load (the file to convert)"))
		}
		exitOn(graph.ConvertFile(*load, *convert, nil))
		fmt.Printf("converted %s -> %s\n", *load, *convert)
		return
	}

	if *alg == "list" {
		for _, a := range core.Algorithms() {
			params := ""
			for _, p := range a.Params {
				params += fmt.Sprintf(" -%s=%g", p.Name, p.Default)
			}
			fmt.Printf("%-16s%-14s %s\n", a.Name, params, a.Summary)
		}
		return
	}

	entry, ok := core.LookupAlgorithm(*alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "mrrun: unknown algorithm %q (use -alg list)\n", *alg)
		os.Exit(2)
	}
	if !(*mu >= 0 && *mu <= 1) { // also refuses NaN
		fmt.Fprintf(os.Stderr, "mrrun: -mu must be in [0, 1], got %g\n", *mu)
		os.Exit(2)
	}
	args := map[string]float64{}
	for _, p := range entry.Params {
		switch p.Name {
		case "b":
			args["b"] = float64(*bcap)
		case "eps":
			args["eps"] = *eps
		}
	}
	if _, err := entry.CanonArgs(args); err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(2)
	}

	// Map the flags onto the instance spec the service layer also builds:
	// the algorithm's input kind picks the generator family, the shared
	// seed drives both generation and the algorithm.
	spec := service.InstanceSpec{Seed: *seed}
	switch entry.Input {
	case core.InputGraph:
		spec.Type = "density"
		spec.N, spec.C = *n, *c
	case core.InputVertexCover:
		spec.Type = "vertexcover"
		spec.N, spec.C = *n, *c
	case core.InputSetCover:
		if *alg == "setcover-greedy" {
			spec.Type = "setcover-greedy"
			spec.N = *n
		} else {
			spec.Type = "setcover-f"
			spec.N, spec.C, spec.F = *n, *c, *f
		}
	}

	var in core.Input
	if *load != "" {
		if entry.Input == core.InputSetCover {
			exitOn(fmt.Errorf("-load carries a graph; %q needs a set cover instance", *alg))
		}
		var err error
		in, err = loadInput(*load, entry.Input, *seed)
		exitOn(err)
	} else {
		var err error
		in, err = service.BuildInstance(spec)
		exitOn(err)
		if *save != "" && in.Graph != nil {
			exitOn(graph.WriteFile(*save, in.Graph))
		}
	}
	instanceDone := time.Now()

	p := core.Params{Mu: *mu, Seed: *seed, Workers: *workers}
	var sink *obs.ChromeTraceSink
	if *traceOut != "" {
		var err error
		sink, err = obs.NewChromeTraceFile(*traceOut)
		exitOn(err)
		p.Sink = sink
		p.TraceLabel = *alg
	}
	runStart := time.Now()
	res, err := entry.Run(in, p, args)
	runDone := time.Now()
	if sink != nil {
		// Close even on a failed run so the file is valid, loadable JSON up
		// to the last completed round.
		exitOn(sink.Close())
	}
	exitOn(err)
	fmt.Println(res.Summary)
	m := res.Metrics
	fmt.Printf("cluster: machines=%d rounds=%d words=%d messages=%d maxSpace=%d maxResident=%d violations=%d\n",
		m.Machines, m.Rounds, m.WordsSent, m.Messages,
		m.MaxSpace, m.MaxResident, m.Violations)
	// Where the seconds and the megabytes went, on stderr so that stdout
	// stays the deterministic result: building or loading the instance
	// (-save included), the algorithm, and the whole process since flag
	// parsing; then the process's resident-set peak and the heap still live
	// after the run.
	total := time.Since(start)
	fmt.Fprintf(os.Stderr, "mrrun: instance %.3fs run %.3fs total %.3fs peak_rss %.1fMB heap %.1fMB\n",
		instanceDone.Sub(start).Seconds(), runDone.Sub(runStart).Seconds(), total.Seconds(),
		peakRSSMB(), liveHeapMB())
}

// loadInput reads the graph at path. A vertex cover algorithm also gets the
// vertex weights the vertexcover spec of seed draws, so an instance saved
// with -save and loaded back runs as the generated one did.
func loadInput(path string, kind core.InputKind, seed uint64) (core.Input, error) {
	g, err := graph.ReadFile(path)
	if err != nil {
		return core.Input{}, err
	}
	if kind == core.InputVertexCover {
		return service.VertexCoverInput(g, seed), nil
	}
	return core.Input{Graph: g}, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrrun:", err)
		os.Exit(1)
	}
}
