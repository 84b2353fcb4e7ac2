package service

import (
	"strings"
	"testing"
)

// TestAbandonCancelsFlight: abandoning a queued job's only waiter cancels
// the flight — the job fails with the context error instead of burning the
// pool — while a job with a surviving waiter keeps running.
func TestAbandonCancelsFlight(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	// Occupy the single worker long enough that the jobs below stay queued
	// while we abandon.
	blocker := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 20000, C: 0.3, Seed: 42},
		Alg:      "luby", Seed: 42,
	})

	// Two identical submissions batch into one flight: abandoning one
	// waiter must not cancel the other's work.
	shared := JobRequest{
		Instance: InstanceSpec{Type: "density", N: 90, C: 0.3, Seed: 5},
		Alg:      "mis", Seed: 5,
	}
	lead := mustSubmit(t, e, shared)
	follow := mustSubmit(t, e, shared)
	e.Abandon(follow)

	// A job whose sole waiter leaves is canceled.
	doomed := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "density", N: 80, C: 0.3, Seed: 21},
		Alg:      "mis", Seed: 21,
	})
	e.Abandon(doomed)

	blocker.Wait()
	lead.Wait()
	doomed.Wait()
	if v := e.Snapshot(lead); v.Status != StatusDone {
		t.Errorf("shared flight with a surviving waiter: status %s error %q", v.Status, v.Error)
	}
	if v := e.Snapshot(doomed); v.Status != StatusFailed || !strings.Contains(v.Error, "canceled") {
		t.Errorf("abandoned job: status %s error %q, want failed with a canceled error", v.Status, v.Error)
	}
	if got := e.metrics.counter("jobs_abandoned_total"); got != 2 {
		t.Errorf("jobs_abandoned_total = %d, want 2", got)
	}
	// Abandoning a finished job is a no-op.
	e.Abandon(blocker)
	if v := e.Snapshot(blocker); v.Status != StatusDone {
		t.Errorf("abandon after completion changed status to %s", v.Status)
	}
}
