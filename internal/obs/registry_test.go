package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// render returns the registry document as a line slice (no trailing "").
func render(t *testing.T, r *Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := strings.Split(sb.String(), "\n")
	if len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out
}

func TestRegistryRendersInRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	first := NewCounterSet("z_")
	first.Add("first", 7)
	r.Register(first)
	set := NewCounterSet("app_")
	set.Add("b", 2)
	set.Add("a", 1)
	r.Register(set)
	r.Register(NewGaugeFunc("a_last", func() uint64 { return 42 }))

	want := []string{
		"z_first 7",
		"app_a 1",
		"app_b 2",
		"a_last 42",
	}
	got := render(t, r)
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCounterSetZeroDeltaMaterializes(t *testing.T) {
	set := NewCounterSet("p_")
	set.Add("seeded", 0)
	got := set.AppendText(nil)
	if len(got) != 1 || got[0] != "p_seeded 0" {
		t.Fatalf("zero-delta counter not materialized: %v", got)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := NewHistogram("lat", 3) // bounds 1, 2, 4
	h.Observe(0.5)              // le=1
	h.Observe(2)                // le=2
	h.Observe(3)                // le=4
	h.Observe(100)              // +Inf
	want := []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="4"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 105.500",
		"lat_count 4",
	}
	got := h.AppendText(nil)
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d, want 4", h.Count())
	}
}

// TestRegistryConcurrency hammers every collector type from many
// goroutines while concurrently rendering; run under -race this is the
// registry's thread-safety proof, and the final totals check that no
// update was lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	set := NewCounterSet("s_")
	h := NewHistogram("h", 8)
	r.Register(set)
	r.Register(h)

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("k%d", w%4)
			for i := 0; i < perWorker; i++ {
				set.Add(name, 1)
				h.Observe(float64(i % 300))
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Errorf("concurrent WriteText: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := uint64(0)
	for k := 0; k < 4; k++ {
		total += set.Value(fmt.Sprintf("k%d", k))
	}
	if total != workers*perWorker {
		t.Errorf("counter set lost updates: %d != %d", total, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram lost observations: %d != %d", h.Count(), workers*perWorker)
	}
}
