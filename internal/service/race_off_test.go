//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation pins skip themselves.
const raceEnabled = false
