//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// maxRSSMB returns getrusage's ru_maxrss in MB: KiB on Linux and the BSDs,
// bytes on Darwin.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}
