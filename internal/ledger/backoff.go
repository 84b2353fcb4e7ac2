package ledger

import "time"

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix,
// used to derive deterministic jitter from (seed, attempt).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay returns the delay before retry attempt `attempt` (1-based:
// the delay between the first failure and the second try is attempt 1).
// The schedule is exponential from base, capped at max, with each step
// scaled by a jitter factor in [0.5, 1.0) that is a pure function of
// (seed, attempt) — deterministic, so tests see identical timing decisions.
func backoffDelay(attempt int, base, max time.Duration, seed uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	// Jitter scales into [0.5, 1.0): half the nominal delay is always kept,
	// so the schedule stays monotone in expectation while decorrelating
	// concurrent retries.
	frac := float64(splitmix64(seed^uint64(attempt))>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}
