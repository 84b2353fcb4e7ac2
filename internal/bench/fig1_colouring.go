package bench

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func init() {
	register(Experiment{
		ID:    "F1.VCol",
		Title: "Vertex colouring: (1+o(1))∆ colours in O(1) rounds (Theorem 6.4)",
		Run: colouringRunner(Table{
			ID:    "F1.VCol",
			Title: "Vertex colouring (Algorithm 5)",
			Notes: []string{"Shape check: colours/∆ → 1 as n grows (the o(1) term is 6·sqrt(ln n)/n^{µ/2} + n^{-µ}); rounds " +
				"are a constant independent of n."},
		}, "(∆+1) seq", "vertex colouring", core.VertexColouring, graph.IsProperVertexColouring),
	})
	register(Experiment{
		ID:    "F1.ECol",
		Title: "Edge colouring: (1+o(1))∆ colours in O(1) rounds (Theorem 6.6)",
		Run: colouringRunner(Table{
			ID:    "F1.ECol",
			Title: "Edge colouring (Algorithm 5 + Misra–Gries per group, Remark 6.5)",
			Notes: []string{"Per-group Misra–Gries uses ∆_i+1 ≤ (1+o(1))∆/κ + 1 colours; the κ groups multiply back to " +
				"(1+o(1))∆ total. Rounds stay constant in n."},
		}, "vizing ∆+1", "edge colouring", core.EdgeColouring, graph.IsProperEdgeColouring),
	})
}

// colouringRunner returns the Figure 1 experiment for one Algorithm 5
// variant: head's ID, title and notes, with colour checked by proper on
// every configuration and ∆+1 reported in the column named ref.
func colouringRunner(head Table, ref, what string,
	colour func(*graph.Graph, core.Params) (*core.ColouringResult, error),
	proper func(*graph.Graph, []int) bool) func(RunConfig) (*Table, error) {
	return func(rc RunConfig) (*Table, error) {
		t := head
		t.PaperClaim = "(1+o(1))∆ colours, O(1) rounds, O(n^{1+µ}) space"
		t.Columns = []string{"m", "∆", "κ", "colours", "colours/∆", ref, "rounds", "violations"}
		confs := []struct {
			n     int
			c, mu float64
		}{
			{1000, 0.3, 0.1}, {1000, 0.3, 0.2}, {3000, 0.3, 0.2}, {3000, 0.45, 0.2},
		}
		if rc.Quick {
			confs = confs[:1]
			confs[0].n = 300
		}
		r := rng.New(rc.Seed)
		for _, cf := range confs {
			g := graph.Density(cf.n, cf.c, r.Split())
			res, err := colour(g, rc.params(cf.mu, r.Uint64()))
			if err != nil {
				return nil, err
			}
			if !proper(g, res.Colours) {
				return nil, errInvalid(what)
			}
			t.Observe(res.Metrics)
			delta := g.MaxDegree()
			t.Rows = append(t.Rows, Row{
				Config: cfg("n=%d c=%.2f µ=%.2f", cf.n, cf.c, cf.mu),
				Cells: map[string]string{
					"m":          d(g.M()),
					"∆":          d(delta),
					"κ":          d(res.Groups),
					"colours":    d(res.NumColours),
					"colours/∆":  f3(float64(res.NumColours) / float64(delta)),
					ref:          d(delta + 1),
					"rounds":     d(res.Metrics.Rounds),
					"violations": d(res.Metrics.Violations),
				},
			})
		}
		return &t, nil
	}
}
