// Command mrbench runs the Figure 1 reproduction experiments and the
// ablations, and renders their result tables as markdown or as
// machine-readable JSON (BENCH_quick.json records `mrbench -quick -json`).
//
// Usage:
//
//	mrbench [-quick] [-seed N] [-workers W] [-run F1.Match,F1.VC] [-list] [-json]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// With no -run flag, all experiments run in registry order. -quick shrinks
// the parameter sweeps (used by CI, which checks the results against the
// committed BENCH_quick.json). -workers sets the simulator's round-executor pool
// (-1 = one per CPU); it changes wall-clock only, never results. -json
// replaces the markdown with one JSON document carrying every experiment's
// measurements plus wall-clock, the active worker count, and the
// experiment's mean/max active machines per simulator round (the measured
// per-round work under sparse scheduling), so performance trajectories can
// be tracked across commits (e.g. `mrbench -quick -json >
// BENCH_quick.json`). Each experiment additionally carries a
// round_phase_wall_clock_us object — the mean per-round compute and merge
// phase times measured by a trace sink attached to every algorithm
// run (timing only; the CI trajectory check strips wall_clock keys). The
// per-experiment text footer reports the same activity and phase numbers.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the heap profile is taken after a final GC), so performance
// PRs can attach `go tool pprof` evidence from exactly the workloads the
// tables report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// jsonExperiment is the machine-readable form of one experiment run.
// ActiveMeanPerRound/ActiveMaxPerRound aggregate the simulator's sparse
// scheduling activity (machines actually run per round) across the
// experiment's algorithm runs; like the result cells they are deterministic
// given the seed, so the CI trajectory check covers them.
type jsonExperiment struct {
	ID                 string  `json:"id"`
	Title              string  `json:"title"`
	PaperClaim         string  `json:"paper_claim,omitempty"`
	WallClockMS        float64 `json:"wall_clock_ms"`
	ActiveMeanPerRound float64 `json:"active_mean_per_round"`
	ActiveMaxPerRound  int     `json:"active_max_per_round"`
	// RoundPhase breaks the experiment's wall-clock down into mean
	// per-round phase times (compute/merge µs; barrier is always 0) across
	// every algorithm run, measured by a trace sink on the simulator. Like
	// wall_clock_ms it is timing, not model output; the CI trajectory check
	// strips every key containing "wall_clock" before diffing.
	RoundPhase *obs.PhaseMeans `json:"round_phase_wall_clock_us,omitempty"`
	Columns    []string        `json:"columns"`
	Rows       []jsonRow       `json:"rows"`
	Notes      []string        `json:"notes,omitempty"`
}

type jsonRow struct {
	Config string            `json:"config"`
	Cells  map[string]string `json:"cells"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Seed             uint64           `json:"seed"`
	Quick            bool             `json:"quick"`
	Workers          int              `json:"workers"`
	GoMaxProcs       int              `json:"gomaxprocs"`
	TotalWallClockMS float64          `json:"total_wall_clock_ms"`
	Experiments      []jsonExperiment `json:"experiments"`
}

func main() {
	os.Exit(realMain())
}

// realMain carries the program body so that deferred cleanup — stopping the
// CPU profile and writing the heap profile — runs on every exit path,
// including experiment failures. os.Exit in main would skip the defers and
// leave a truncated -cpuprofile exactly when profiling a failing run.
func realMain() int {
	quick := flag.Bool("quick", false, "run reduced parameter sweeps")
	seed := flag.Uint64("seed", 20180617, "root random seed (default: the paper's arXiv date)")
	workers := flag.Int("workers", -1, "round-executor pool size: 0|1 sequential, >1 that many goroutines, -1 one per CPU")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON document instead of markdown")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile (after a final GC) to this file")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []bench.Experiment
	if *run == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "mrbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	activeWorkers := *workers
	if activeWorkers < 0 {
		activeWorkers = runtime.NumCPU()
	}
	if activeWorkers == 0 {
		activeWorkers = 1
	}
	if *cpuProfile != "" {
		fh, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: cpuprofile: %v\n", err)
			return 1
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			fh, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: memprofile: %v\n", err)
				return
			}
			defer fh.Close()
			runtime.GC() // settle allocations so the heap profile is steady-state
			if err := pprof.WriteHeapProfile(fh); err != nil {
				fmt.Fprintf(os.Stderr, "mrbench: memprofile: %v\n", err)
			}
		}()
	}
	if !*asJSON {
		fmt.Printf("# Experiment results (seed=%d, quick=%v, workers=%d)\n\n", *seed, *quick, activeWorkers)
	}
	report := jsonReport{
		Seed:       *seed,
		Quick:      *quick,
		Workers:    activeWorkers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	total := time.Now()
	for _, e := range selected {
		// Per-experiment header line: id, wall-clock, and the active worker
		// count, so recorded trajectories can attribute speedups.
		start := time.Now()
		acc := &obs.PhaseAccumulator{}
		tab, err := e.Run(bench.RunConfig{Seed: *seed, Quick: *quick, Workers: *workers, Sink: acc})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: %s failed: %v\n", e.ID, err)
			return 1
		}
		elapsed := time.Since(start)
		phases := acc.Means()
		if *asJSON {
			je := jsonExperiment{
				ID:                 tab.ID,
				Title:              tab.Title,
				PaperClaim:         tab.PaperClaim,
				WallClockMS:        float64(elapsed.Microseconds()) / 1000,
				ActiveMeanPerRound: tab.ActiveMeanPerRound(),
				ActiveMaxPerRound:  tab.ActiveMaxPerRound(),
				Columns:            tab.Columns,
				Notes:              tab.Notes,
			}
			if phases.Rounds > 0 {
				je.RoundPhase = &phases
			}
			for _, row := range tab.Rows {
				je.Rows = append(je.Rows, jsonRow{Config: row.Config, Cells: row.Cells})
			}
			report.Experiments = append(report.Experiments, je)
			continue
		}
		if err := tab.WriteMarkdown(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: write: %v\n", err)
			return 1
		}
		fmt.Printf("_%s completed in %v (workers=%d, active machines/round: mean %.1f, max %d; mean µs/round: compute %.1f, merge %.1f)._\n\n",
			e.ID, elapsed.Round(time.Millisecond), activeWorkers,
			tab.ActiveMeanPerRound(), tab.ActiveMaxPerRound(),
			phases.ComputeUS, phases.MergeUS)
	}
	if *asJSON {
		report.TotalWallClockMS = float64(time.Since(total).Microseconds()) / 1000
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "mrbench: json: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Printf("_total wall-clock %v across %d experiments (workers=%d)._\n",
		time.Since(total).Round(time.Millisecond), len(selected), activeWorkers)
	return 0
}
