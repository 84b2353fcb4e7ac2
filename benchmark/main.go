// Command benchmark is the repository's end-to-end benchmark: one command
// that sets a workload up, runs a fixed schedule of jobs against the public
// functions of repro/internal/..., checks every output, and prints every
// metric BENCHMARK.json names, with its unit. README.md in this directory
// says what each workload and metric is for.
//
//	bash benchmark/run.sh --workload match --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	tiny     bool
	aa       int
	mrrun    string
	outDir   string
	tmpDir   string
	pins     string
}

// contract is BENCHMARK.json: the metric names, units and bounds the
// harness reports against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract reads BENCHMARK.json from the checkout root: the working
// directory when run through run.sh, its parent under go test.
func loadContract() (*contract, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, firstErr
}

// outcome is what one run of one workload measured. values holds every
// metric the pass produced by name; ops counts every checked operation.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	notes     []string // informational lines: job_n, job_hi_s, first failures
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check counts one checked operation; a false ok counts it failed and keeps
// the first few reasons for the report.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if o.failed <= 5 {
			o.notes = append(o.notes, "FAILED: "+fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload once and reduces it to the metrics the
// contract names for the pass: the end-to-end ones untraced, the per-layer
// ones traced. The result line must carry every name, so a per-layer metric
// that does not apply to the workload (layerApplies), or an optional one the
// run could not take, reads 0 there; absent lists those names, and the report
// prints them apart from the measured ones. A metric that applies and is
// missing is an error, never a 0.
func runWorkload(o options, c *contract) (res *result, out *outcome, absent []string, err error) {
	switch o.workload {
	case "match", "ecolour", "mis-rounds":
		out, err = runAlgWorkload(o)
	case "serve":
		out, err = runServe(o)
	default:
		err = fmt.Errorf("unknown workload %q (have match, ecolour, mis-rounds, serve)", o.workload)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	defs := c.EndToEnd
	if o.trace != 0 {
		defs = c.PerLayer
	}
	res = &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		applies := o.trace == 0 || layerApplies(o.workload, d.Name)
		switch {
		case ok && !applies:
			return nil, nil, nil, fmt.Errorf("workload %s produced %s, which layerApplies says it has no layer for", o.workload, d.Name)
		case !ok && applies && !layerOptional(d.Name):
			return nil, nil, nil, fmt.Errorf("workload %s produced no %s", o.workload, d.Name)
		case !ok:
			absent = append(absent, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, nil, nil, fmt.Errorf("workload %s: %s is %v", o.workload, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, out, absent, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: match, ecolour, mis-rounds or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the instance, the algorithm seeds and the serve schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase the fixed job counts are sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "n ≈ 500 and two jobs: a smoke test, not a measurement")
	flag.IntVar(&o.aa, "aa", 0, "run every workload this many times and compare the two halves (A/A)")
	flag.StringVar(&o.mrrun, "mrrun", ".bench_build/mrrun", "built cmd/mrrun binary for the cold one-shot layer metrics")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory the trace file is written to")
	flag.StringVar(&o.tmpDir, "tmp", ".bench_build/tmp", "scratch directory for the serve workload's files")
	flag.StringVar(&o.pins, "pins", "", "write the run's job pins to this file instead of checking them (regenerates expect_seed1.json)")
	flag.Parse()

	c, err := loadContract()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.aa > 0 {
		os.Exit(runAA(o, c))
	}
	res, out, absent, err := runWorkload(o, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printReport(o, res, out, absent)
	if !res.Correct {
		os.Exit(1)
	}
}

// metricLine is how the report prints a figure — name, value, unit — and
// what -aa reads back.
const metricLine = "%-34s %14.6g %s"

// printReport prints every measured metric by name with its unit, the names
// that were not measured, the informational figures, the runtime settings the
// run was made under, and last the result object.
func printReport(o options, res *result, out *outcome, absent []string) {
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("runtime %s GOMAXPROCS=%d GOGC=%q GOMEMLIMIT=%q (empty: the runtime's default)\n",
		runtime.Version(), runtime.GOMAXPROCS(0), os.Getenv("GOGC"), os.Getenv("GOMEMLIMIT"))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		if !slices.Contains(absent, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf(metricLine+"\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if len(absent) > 0 {
		fmt.Printf("not measured on %s (0 in the result line): %s\n", o.workload, strings.Join(absent, " "))
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", res.Attempted, res.Failed)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	line, _ := json.Marshal(res) // plain structs and maps cannot fail to marshal
	fmt.Println(string(line))
}
