package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB returns the process's resident-set high-water mark in MB:
// VmHWM from /proc/self/status where there is one, else getrusage's
// ru_maxrss. VmHWM starts afresh at exec; on Linux ru_maxrss is the larger
// of the process's own peak and that of the process it was forked from, so
// a small mrrun started by a large parent would report the parent's.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return maxRSSMB()
}

// liveHeapMB collects the garbage and returns the heap bytes still live, in
// MB: what the run left behind, the instance and the result.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
