package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// issueBound is what ISSUE 13 asked the benchmark to repeat within: a tenth,
// alloc_mb 3 %. The bounds in BENCHMARK.json are what this host allows; -aa
// reports against both, so a pair that passes its bound but misses the issue's
// target says so.
func issueBound(metric string) float64 {
	if metric == "alloc_mb" {
		return 0.03
	}
	return 0.10
}

// runAA is the benchmark compared with itself: every workload is run o.aa
// times as a fresh process, run i with seed i+1, the runs are dealt
// alternately into two sets, and each workload/metric pair is held against
// its bound in BENCHMARK.json the way the acceptance check does it:
//
//   - spread: the distance between the quartiles of all runs, as a share of
//     their median, must stay within the bound (not asked of setup_s);
//   - drift: the second set's median must not be worse than the first's by
//     more than the bound.
//
// and, in the last column, against issueBound in the same way. It returns
// the process's exit code: 0 when every pair passes its BENCHMARK.json bound.
func runAA(o options, c *contract) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	start := time.Now()
	values := make(map[string]map[string][]float64) // workload → metric → one value per run
	for i := 0; i < o.aa; i++ {
		for _, w := range c.Workloads {
			t0 := time.Now()
			res, info, err := runChild(self, o, w.Name, uint64(i+1))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, i+1, err)
				return 2
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			for name, v := range info {
				if _, metric := res.Metrics[name]; !metric { // metric lines have the same form
					values[w.Name][name] = append(values[w.Name][name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %-10s seed %d: %.1f s, failed %d of %d\n",
				i+1, o.aa, w.Name, i+1, time.Since(t0).Seconds(), res.Failed, res.Attempted)
			if !res.Correct {
				return 1
			}
		}
	}

	fmt.Printf("A/A of %d runs per workload (seeds 1..%d, -seconds %d), %.0f s in all\n\n",
		o.aa, o.aa, o.seconds, time.Since(start).Seconds())
	fmt.Println("| workload/metric | unit | median A | IQR A | median B | IQR B | B worse by | spread of all | max run off its set | bound | | issue's 10 % (alloc_mb 3 %) |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|")
	failed, missed := 0, 0
	for _, w := range c.Workloads {
		for _, d := range c.EndToEnd {
			all := values[w.Name][d.Name]
			var a, b []float64
			for i, v := range all {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := iqr(all) / median(all)
			off := math.Max(maxOff(a), maxOff(b))
			within := func(bound float64) bool {
				return worse <= bound && (d.Name == "setup_s" || spread <= bound)
			}
			verdict, target := "PASS", "met"
			if !within(d.Bound) {
				verdict = "FAIL"
				failed++
			}
			if !within(issueBound(d.Name)) {
				target = "NOT MET"
				missed++
			}
			fmt.Printf("| %s/%s | %s | %.5g | %.3g | %.5g | %.3g | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s | %s |\n",
				w.Name, d.Name, d.Unit, ma, iqr(a), mb, iqr(b), 100*worse, 100*spread, 100*off, 100*d.Bound, verdict, target)
		}
	}
	pairs := len(c.Workloads) * len(c.EndToEnd)
	fmt.Printf("\n%d of %d pairs failed their bound; %d of %d missed the issue's target\n\n", failed, pairs, missed, pairs)

	fmt.Println("Every run, in order (odd runs are set A, even runs set B):")
	fmt.Println()
	for _, w := range c.Workloads {
		for _, d := range c.EndToEnd {
			fmt.Printf("    %s/%s:", w.Name, d.Name)
			for _, v := range values[w.Name][d.Name] {
				fmt.Printf(" %.5g", v)
			}
			fmt.Println()
		}
	}
	fmt.Println()

	// The same runs in the host's own seconds: what reference scaling took
	// out, and how disturbed the host was (the reference kernel's median
	// reading per run).
	fmt.Println("| workload | same runs, plain seconds | median of runs | spread of all | lowest | highest | scaled metric | its spread |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range c.Workloads {
		for _, name := range []string{"plain_job_s", "plain_cpu_s", "plain_jobs_per_s", "ref_kernel_ms"} {
			all := values[w.Name][name]
			if len(all) < 2 {
				continue
			}
			fmt.Printf("| %s | %s | %.5g | %.1f %% | %.5g | %.5g |", w.Name, name,
				median(all), 100*iqr(all)/median(all), quantile(all, 0), quantile(all, 1))
			if scaled, ok := strings.CutPrefix(name, "plain_"); ok {
				fmt.Printf(" %s | %.1f %% |\n", scaled, 100*iqr(values[w.Name][scaled])/median(values[w.Name][scaled]))
			} else {
				fmt.Println(" | |")
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload once in a fresh process and parses the result
// object off the last line of its standard output, and the informational
// "name value unit" lines before it.
func runChild(self string, o options, workload string, seed uint64) (*result, map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
		"-mrrun", o.mrrun, "-out", o.outDir, "-tmp", o.tmpDir)
	if o.tiny {
		cmd.Args = append(cmd.Args, "-tiny")
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var last []byte
	info := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
		if f := strings.Fields(sc.Text()); len(f) >= 3 {
			if v, perr := strconv.ParseFloat(f[1], 64); perr == nil {
				info[f[0]] = v
			}
		}
	}
	var res result
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		if err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("no result line: %v", jerr)
	}
	return &res, info, nil // a failed gate exits 1 but still prints its result
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// maxOff returns how far the run farthest from the set's median is from it,
// as a share of that median.
func maxOff(xs []float64) float64 {
	m := median(xs)
	var worst float64
	for _, x := range xs {
		worst = math.Max(worst, math.Abs(x-m)/m)
	}
	return worst
}
