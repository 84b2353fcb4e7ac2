//go:build !race

package setcover

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation pins skip themselves.
const raceEnabled = false
