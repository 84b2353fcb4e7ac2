// Package bench is the experiment harness that regenerates the paper's
// Figure 1 — its single results exhibit — empirically. One Experiment exists
// per Figure 1 row (and per appendix theorem); each runs the corresponding
// MapReduce algorithm on generated workloads across a parameter sweep and
// reports, per configuration:
//
//   - the measured approximation quality against a baseline or certificate,
//   - the measured number of MapReduce rounds against the theorem's bound
//     shape,
//   - the measured per-machine space high-water mark against the cap, and
//   - the communication volume.
//
// The cmd/mrbench binary drives these experiments and renders the tables;
// `go run ./cmd/mrbench -quick -json` reproduces the committed
// BENCH_quick.json.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mpc"
	"repro/internal/obs"
)

// Row is one measured configuration of an experiment.
type Row struct {
	// Config describes the parameter point, e.g. "n=1000 c=0.3 mu=0.2".
	Config string
	// Cells are the measured values keyed by column name.
	Cells map[string]string
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment id from DESIGN.md (e.g. "F1.Match").
	ID string
	// Title is the Figure 1 row being reproduced.
	Title string
	// PaperClaim is the bound the paper states for this row.
	PaperClaim string
	// Columns is the column order.
	Columns []string
	// Rows are the measurements.
	Rows []Row
	// Notes carries caveats (failure rates, substitutions).
	Notes []string

	// Per-experiment scheduling-activity aggregate, fed by Observe: across
	// every algorithm run of the experiment, the mean and max number of
	// machines that actually ran per simulator round (Metrics.ActiveSum /
	// Metrics.Rounds). Under sparse scheduling this is the experiment's
	// measured per-round work, the quantity the paper's geometric decay
	// shrinks; mrbench reports it per experiment in text and JSON output.
	activeSum int64
	roundSum  int64
	activeMax int
}

// Observe folds one run's measured scheduling activity into the table's
// per-experiment aggregate. Experiments call it once per algorithm run.
func (t *Table) Observe(m mpc.Metrics) {
	t.activeSum += m.ActiveSum
	t.roundSum += int64(m.Rounds)
	if m.ActiveMax > t.activeMax {
		t.activeMax = m.ActiveMax
	}
}

// ActiveMeanPerRound returns the mean number of machines that ran per round
// across every observed run (0 if nothing was observed).
func (t *Table) ActiveMeanPerRound() float64 {
	if t.roundSum == 0 {
		return 0
	}
	return float64(t.activeSum) / float64(t.roundSum)
}

// ActiveMaxPerRound returns the largest single-round machine activity seen
// across every observed run.
func (t *Table) ActiveMaxPerRound() int { return t.activeMax }

// RunConfig carries the knobs shared by every experiment run.
type RunConfig struct {
	// Seed is the root random seed; runs are reproducible given Seed.
	Seed uint64
	// Quick shrinks the parameter sweeps (used by CI).
	Quick bool
	// Workers is the simulator round-executor pool size, forwarded to
	// core.Params.Workers: 0 or 1 sequential, > 1 that many goroutines,
	// < 0 one per CPU. Results are identical for every setting.
	Workers int
	// Sink, when non-nil, receives the wall-clock round spans of every
	// algorithm run (core.Params.Sink) — mrbench attaches a phase
	// accumulator per experiment to report mean compute/merge time per
	// round. Purely observational: results are bit-identical with or
	// without it.
	Sink obs.TraceSink
}

// params builds the core.Params for one algorithm run: the experiment's µ
// and per-run seed plus the harness-wide executor and tracing knobs. Every
// experiment goes through here so a configured trace sink covers the whole
// sweep.
func (rc RunConfig) params(mu float64, seed uint64) core.Params {
	p := core.Params{Mu: mu, Seed: seed, Workers: rc.Workers}
	if rc.Sink != nil {
		p.Sink = rc.Sink
	}
	return p
}

// Experiment produces a Table given a run configuration.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Table, error)
}

// registry of all experiments, populated by the fig1_*.go files.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// WriteMarkdown renders t as a GitHub-flavoured markdown table.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.PaperClaim != "" {
		if _, err := fmt.Fprintf(w, "Paper claim: %s\n\n", t.PaperClaim); err != nil {
			return err
		}
	}
	header := append([]string{"config"}, t.Columns...)
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, 0, len(header))
		cells = append(cells, row.Config)
		for _, col := range t.Columns {
			cells = append(cells, row.Cells[col])
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n%s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f2(v float64) string                           { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string                           { return fmt.Sprintf("%.3f", v) }
func d(v int) string                                { return fmt.Sprintf("%d", v) }
func d64(v int64) string                            { return fmt.Sprintf("%d", v) }
func cfg(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }
