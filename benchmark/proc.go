package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// resident-set high-water mark, so a later peakRSSMB covers only what ran
// in between on top of whatever is still resident now. Without
// /proc/self/clear_refs the mark cannot be reset and peakRSSMB reports the
// whole process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads this process's VmHWM, falling back to getrusage's
// ru_maxrss (KiB on Linux).
func peakRSSMB() float64 {
	if mb, ok := vmHWM("/proc/self/status"); ok {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// vmHWM reads the resident-set high-water mark, in MB, from a /proc status file.
func vmHWM(statusPath string) (float64, bool) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, true
				}
			}
		}
	}
	return 0, false
}

// usage is a snapshot of the process-wide resources a timed phase is charged
// for; sub gives the phase's consumption.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
	gcCPU    float64 // seconds the collector has used, as the runtime estimates them
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	u := usage{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: ms.PauseTotalNs}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

type usageDelta struct {
	wallS, cpuS, allocMB, gcCycles, gcPauseMS, gcCPUS float64
}

func (u usage) since(start usage) usageDelta {
	return usageDelta{
		wallS:     u.wall.Sub(start.wall).Seconds(),
		cpuS:      (u.cpu - start.cpu).Seconds(),
		allocMB:   float64(u.alloc-start.alloc) / (1 << 20),
		gcCycles:  float64(u.gcCycles - start.gcCycles),
		gcPauseMS: float64(u.gcPause-start.gcPause) / 1e6,
		gcCPUS:    u.gcCPU - start.gcCPU,
	}
}

// gcMetrics reports the collector's share of a timed phase of jobs jobs.
func (d usageDelta) gcMetrics(v map[string]float64, jobs int) {
	v["runtime.gc_cycles"] = d.gcCycles / float64(jobs)
	v["runtime.gc_pause_ms"] = d.gcPauseMS / float64(jobs)
	if d.cpuS > 0 {
		v["runtime.gc_cpu_frac"] = d.gcCPUS / d.cpuS
	}
}

// allocMBOf runs f and returns its duration and the Go heap megabytes it
// allocated.
func allocMBOf(f func()) (seconds, mb float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	f()
	seconds = time.Since(t).Seconds()
	runtime.ReadMemStats(&b)
	return seconds, float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs (nearest rank on the sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// The reference kernel: a sequential read of 64 MiB, harness code that no
// change to the repository can touch. It is run before and after every unit
// of a timed phase, and the unit's wall-clock and CPU time are scaled by
// refNominalS ÷ (the mean of the two readings). On this kind of host the job's
// speed follows the memory system's, which other tenants slow by 20 to 40 %
// for a minute at a time; the kernel slows with it, the quotient much less
// (BASELINE.md has the same runs in scaled and in plain seconds).
//
// Each reading takes the next of refWindows windows of one buffer, so the
// window was last touched 448 MiB of kernel reads and several jobs ago: cold
// in any cache, whatever the job's own footprint. (A single 64 MiB buffer
// tracked the host slightly better, but read faster the less cache the job
// used, and so would have charged a change for saving memory traffic.)
//
// refNominalS is the kernel's undisturbed time on the reference host, so
// scaled seconds are that host's quiet seconds; elsewhere it is only a choice
// of unit, the same for both sides of any comparison.
const (
	refWords    = 8 << 20 // uint64s per window: 64 MiB
	refWindows  = 8
	refNominalS = 0.011
)

var (
	refBuf  []uint64
	refNext int    // window the next reading takes
	refSink uint64 // keeps the sums alive
)

// refBufMB is how much of the process's resident set is the kernel's buffer.
func refBufMB() float64 { return float64(len(refBuf)*8) / (1 << 20) }

func refKernel() float64 {
	if refBuf == nil {
		// Mapped outside the Go heap: as live heap it would raise every
		// workload's GC trigger and change what is being measured.
		if b, err := syscall.Mmap(-1, 0, refWindows*refWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
			refBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refWindows*refWords)
		} else {
			refBuf = make([]uint64, refWindows*refWords)
		}
		for i := range refBuf {
			refBuf[i] = uint64(i)
		}
	}
	window := refBuf[refNext*refWords : (refNext+1)*refWords]
	refNext = (refNext + 1) % refWindows
	start := time.Now()
	var sum uint64
	for _, v := range window {
		sum += v
	}
	refSink += sum
	return time.Since(start).Seconds()
}

// reference carries the kernel's last reading from one unit to the next: the
// reading after a unit is the reading before the following one.
type reference struct {
	last     float64
	readings []float64
}

func newReference() reference {
	r := refKernel()
	return reference{last: r, readings: []float64{r}}
}

// unit is the cost of one repetition unit of a timed phase — a job of an
// algorithm workload, a catalogue pass of serve, a set-up repetition —
// measured around it, and the factor that scales it to reference seconds.
type unit struct {
	wallS, cpuS float64
	jobs        int
	scale       float64
}

// unitStart marks the start of a unit; done closes it after jobs jobs and
// takes the reference reading that follows it.
type unitStart struct {
	cpu  time.Duration
	wall time.Time
}

func startUnit() unitStart { return unitStart{cpu: cpuTime(), wall: time.Now()} }

func (s unitStart) done(jobs int, ref *reference) unit {
	u := unit{wallS: time.Since(s.wall).Seconds(), cpuS: (cpuTime() - s.cpu).Seconds(), jobs: jobs}
	after := refKernel()
	u.scale = refNominalS / ((ref.last + after) / 2)
	ref.last = after
	ref.readings = append(ref.readings, after)
	return u
}

// endToEnd reduces an untraced pass to the six end-to-end metrics. Times are
// reference-scaled seconds: setup_s is the median of the set-up repetitions,
// job_s the median latency of the executed jobs, cpu_s the units' CPU seconds
// in all divided by the jobs completed, jobs_per_s the jobs completed divided
// by the units' wall-clock in all. alloc_mb is exact, so it is the plain
// total per job; peak_rss_mb leaves out the reference buffer, which is
// resident throughout. The plain_* lines are the same three figures in the
// host's own seconds, as the run's user saw them.
func endToEnd(out *outcome, setups, latencies, plain []float64, units []unit, ref reference, used usageDelta) {
	var wallS, cpuS, plainWallS, plainCPUS float64
	jobs := 0
	for _, u := range units {
		wallS += u.scale * u.wallS
		cpuS += u.scale * u.cpuS
		plainWallS += u.wallS
		plainCPUS += u.cpuS
		jobs += u.jobs
	}
	v := out.values
	v["setup_s"] = median(setups)
	v["job_s"] = median(latencies)
	v["cpu_s"] = cpuS / float64(jobs)
	v["peak_rss_mb"] = peakRSSMB() - refBufMB()
	v["alloc_mb"] = used.allocMB / float64(jobs)
	v["jobs_per_s"] = float64(jobs) / wallS

	// Informational; -aa reads the "name value unit" lines back.
	out.note("job_n %d latency samples, %d jobs completed in %d units, %d set-up repetitions",
		len(latencies), jobs, len(units), len(setups))
	if pct, hi := highPercentile(latencies); pct > 0 {
		out.note(metricLine+" (job_hi_pct %.1f: ten samples beyond it)", "job_hi_s", hi, "s", pct)
	}
	out.note(metricLine, "plain_job_s", median(plain), "s")
	out.note(metricLine, "plain_cpu_s", plainCPUS/float64(jobs), "s")
	out.note(metricLine, "plain_jobs_per_s", float64(jobs)/plainWallS, "1/s")
	out.note(metricLine+" (reference readings included)", "timed_phase_s", used.wallS, "s")
	out.note(metricLine+" (nominal %g; highest of %d readings %.3f)", "ref_kernel_ms",
		1e3*median(ref.readings), "ms", 1e3*refNominalS, len(ref.readings), 1e3*quantile(ref.readings, 1))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value, averaging the two middle ones of an
// even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// highPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and its value; (0, 0) below 20 samples.
func highPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11 // ten samples lie beyond index i
	return 100 * float64(i+1) / float64(n), s[i]
}
