package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mpc"
	"repro/internal/setcover"
)

// This file is the algorithm registry: one table mapping algorithm names to
// a uniform runner plus a parameter schema. cmd/mrrun dispatches through it,
// cmd/mrserve serves it over HTTP, and the bench harness can enumerate it —
// a new algorithm registered here appears in all three at once.

// InputKind declares what instance shape an algorithm consumes.
type InputKind int

const (
	// InputGraph algorithms consume Input.Graph.
	InputGraph InputKind = iota
	// InputSetCover algorithms consume Input.Cover.
	InputSetCover
	// InputVertexCover algorithms consume both: the set cover instance
	// derived from a vertex-weighted graph (setcover.FromVertexCover) plus
	// the graph itself for validation.
	InputVertexCover
)

// String names the kind for schemas and error messages.
func (k InputKind) String() string {
	switch k {
	case InputGraph:
		return "graph"
	case InputSetCover:
		return "setcover"
	case InputVertexCover:
		return "vertexcover"
	}
	return fmt.Sprintf("InputKind(%d)", int(k))
}

// Input is a problem instance handed to a registered algorithm. Which fields
// are set depends on the InputKind. Algorithms must treat the instance as
// immutable: the service layer shares one Input across concurrent jobs.
type Input struct {
	Graph *graph.Graph
	Cover *setcover.Instance
}

// check validates that in carries the fields kind requires.
func (in Input) check(kind InputKind) error {
	switch kind {
	case InputGraph:
		if in.Graph == nil {
			return fmt.Errorf("core: algorithm requires a graph instance")
		}
	case InputSetCover:
		if in.Cover == nil {
			return fmt.Errorf("core: algorithm requires a set cover instance")
		}
	case InputVertexCover:
		if in.Graph == nil || in.Cover == nil {
			return fmt.Errorf("core: algorithm requires a vertex cover instance (graph + derived set cover)")
		}
	}
	return nil
}

// ParamSpec describes one algorithm-specific numeric parameter.
type ParamSpec struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Help    string  `json:"help"`
}

// RunResult is the uniform outcome of one algorithm execution. Summary is
// the one-line human-readable solution summary (what mrrun prints); the
// scalar fields carry the same information for machine consumers. Given the
// same instance, parameters and Params.Seed, every field is deterministic.
type RunResult struct {
	Summary    string      `json:"summary"`
	Size       int         `json:"size"`
	Weight     float64     `json:"weight"`
	Valid      bool        `json:"valid"`
	Iterations int         `json:"iterations"`
	Metrics    mpc.Metrics `json:"metrics"`
}

// Algorithm is one registry entry.
type Algorithm struct {
	// Name is the dispatch key (mrrun -alg, the service's "alg" field).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Input declares the instance shape the runner consumes.
	Input InputKind
	// Params is the schema of the algorithm-specific parameters accepted in
	// the args map; absent keys take their defaults.
	Params []ParamSpec
	// run executes the algorithm. args has been canonicalized: every
	// schema key present, no unknown keys.
	run func(in Input, p Params, args map[string]float64) (*RunResult, error)
}

// CanonArgs fills defaults for absent parameters and rejects unknown ones
// and non-finite values (a NaN or infinite ε or b has no meaning, and the
// drivers would otherwise panic or spin to their iteration limit on it).
// The returned map has exactly the schema's keys, making it a canonical
// basis for request hashing.
func (a Algorithm) CanonArgs(args map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64, len(a.Params))
	for _, p := range a.Params {
		out[p.Name] = p.Default
	}
	for k, v := range args {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("core: algorithm %q has no parameter %q", a.Name, k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: algorithm %q parameter %q must be finite, got %v", a.Name, k, v)
		}
		out[k] = v
	}
	return out, nil
}

// Run validates the input and arguments and executes the algorithm.
func (a Algorithm) Run(in Input, p Params, args map[string]float64) (*RunResult, error) {
	if err := in.check(a.Input); err != nil {
		return nil, fmt.Errorf("%v (algorithm %q)", err, a.Name)
	}
	canon, err := a.CanonArgs(args)
	if err != nil {
		return nil, err
	}
	return a.run(in, p, canon)
}

// Algorithms returns the registry entries in name order.
func Algorithms() []Algorithm {
	out := append([]Algorithm(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupAlgorithm finds a registry entry by name.
func LookupAlgorithm(name string) (Algorithm, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}

var registry = []Algorithm{
	{
		Name:    "matching",
		Summary: "Algorithm 4: randomized local ratio 2-approximate maximum weight matching",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := RLRMatching(in.Graph, p, MatchingOptions{})
			if err != nil {
				return nil, err
			}
			valid := graph.IsMatching(in.Graph, res.Edges)
			return &RunResult{
				Summary: fmt.Sprintf("matching: %d edges, weight %.2f, valid=%v, iters=%d",
					len(res.Edges), res.Weight, valid, res.Iterations),
				Size: len(res.Edges), Weight: res.Weight, Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "bmatching",
		Summary: "Algorithm 7: ε-adjusted local ratio (3−2/b+2ε)-approximate b-matching",
		Input:   InputGraph,
		Params: []ParamSpec{
			{Name: "b", Default: 2, Help: "per-vertex capacity"},
			{Name: "eps", Default: 0.2, Help: "ε of the ε-adjusted reductions"},
		},
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			b := int(args["b"])
			if b < 1 {
				return nil, fmt.Errorf("core: bmatching requires b >= 1, got %d", b)
			}
			bf := func(int) int { return b }
			res, err := BMatching(in.Graph, p, BMatchingOptions{B: bf, Eps: args["eps"]})
			if err != nil {
				return nil, err
			}
			valid := graph.IsBMatching(in.Graph, res.Edges, bf)
			return &RunResult{
				Summary: fmt.Sprintf("b-matching (b=%d): %d edges, weight %.2f, valid=%v, iters=%d",
					b, len(res.Edges), res.Weight, valid, res.Iterations),
				Size: len(res.Edges), Weight: res.Weight, Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "vertexcover",
		Summary: "Theorem 2.4 (f=2 fast path): local ratio 2-approximate weighted vertex cover",
		Input:   InputVertexCover,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := RLRSetCover(in.Cover, p, CoverOptions{VertexCoverMode: true})
			if err != nil {
				return nil, err
			}
			cover := make(map[int]bool, len(res.Cover))
			for _, v := range res.Cover {
				cover[v] = true
			}
			valid := graph.IsVertexCover(in.Graph, cover)
			return &RunResult{
				Summary: fmt.Sprintf("vertex cover: %d vertices, weight %.2f, valid=%v, ratio-vs-LB %.3f, iters=%d",
					len(res.Cover), res.Weight, valid, res.Weight/res.LowerBound, res.Iterations),
				Size: len(res.Cover), Weight: res.Weight, Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "setcover-f",
		Summary: "Algorithm 1: randomized local ratio f-approximate weighted set cover",
		Input:   InputSetCover,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := RLRSetCover(in.Cover, p, CoverOptions{})
			if err != nil {
				return nil, err
			}
			valid := in.Cover.IsCover(res.Cover)
			return &RunResult{
				Summary: fmt.Sprintf("set cover (f=%d): %d sets, weight %.2f, valid=%v, ratio-vs-LB %.3f, iters=%d",
					in.Cover.MaxFrequency(), len(res.Cover), res.Weight, valid,
					res.Weight/res.LowerBound, res.Iterations),
				Size: len(res.Cover), Weight: res.Weight, Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "setcover-greedy",
		Summary: "Algorithm 3: hungry-greedy (1+ε)·H_∆-approximate weighted set cover",
		Input:   InputSetCover,
		Params: []ParamSpec{
			{Name: "eps", Default: 0.2, Help: "ε of the ε-greedy selection rule"},
		},
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := HGSetCover(in.Cover, p, HGCoverOptions{Eps: args["eps"]})
			if err != nil {
				return nil, err
			}
			valid := in.Cover.IsCover(res.Cover)
			return &RunResult{
				Summary: fmt.Sprintf("set cover (hungry-greedy): %d sets, weight %.2f, valid=%v, iters=%d",
					len(res.Cover), res.Weight, valid, res.Iterations),
				Size: len(res.Cover), Weight: res.Weight, Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "mis",
		Summary: "Algorithm 6: improved maximal independent set in O(c/µ) rounds",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := MISFast(in.Graph, p)
			if err != nil {
				return nil, err
			}
			return misResult("MIS (Algorithm 6)", in.Graph, res), nil
		},
	},
	{
		Name:    "mis-simple",
		Summary: "Algorithm 2: hungry-greedy maximal independent set in O(1/µ²) rounds",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := MIS(in.Graph, p)
			if err != nil {
				return nil, err
			}
			return misResult("MIS (Algorithm 2)", in.Graph, res), nil
		},
	},
	{
		Name:    "luby",
		Summary: "baseline: Luby's maximal independent set",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := LubyMIS(in.Graph, p)
			if err != nil {
				return nil, err
			}
			return misResult("MIS (Luby)", in.Graph, res), nil
		},
	},
	{
		Name:    "clique",
		Summary: "Appendix B: maximal clique via relabeled complement MIS",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := MaximalClique(in.Graph, p)
			if err != nil {
				return nil, err
			}
			valid := graph.IsMaximalClique(in.Graph, res.Clique)
			return &RunResult{
				Summary: fmt.Sprintf("maximal clique: |K|=%d, valid=%v, iters=%d",
					len(res.Clique), valid, res.Iterations),
				Size: len(res.Clique), Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "filtering",
		Summary: "baseline: filtering maximal matching (Lattanzi et al.)",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := FilteringMatching(in.Graph, p)
			if err != nil {
				return nil, err
			}
			valid := graph.IsMaximalMatching(in.Graph, res.Edges)
			return &RunResult{
				Summary: fmt.Sprintf("filtering maximal matching: %d edges, maximal=%v, iters=%d",
					len(res.Edges), valid, res.Iterations),
				Size: len(res.Edges), Valid: valid,
				Iterations: res.Iterations, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "vcolour",
		Summary: "Algorithm 5: (1+o(1))∆ vertex colouring in O(1) rounds",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := VertexColouring(in.Graph, p)
			if err != nil {
				return nil, err
			}
			valid := graph.IsProperVertexColouring(in.Graph, res.Colours)
			return &RunResult{
				Summary: fmt.Sprintf("vertex colouring: %d colours (∆=%d, κ=%d), proper=%v",
					res.NumColours, in.Graph.MaxDegree(), res.Groups, valid),
				Size: res.NumColours, Valid: valid, Metrics: res.Metrics,
			}, nil
		},
	},
	{
		Name:    "ecolour",
		Summary: "Theorem 6.6: (1+o(1))∆ edge colouring in O(1) rounds",
		Input:   InputGraph,
		run: func(in Input, p Params, args map[string]float64) (*RunResult, error) {
			res, err := EdgeColouring(in.Graph, p)
			if err != nil {
				return nil, err
			}
			valid := graph.IsProperEdgeColouring(in.Graph, res.Colours)
			return &RunResult{
				Summary: fmt.Sprintf("edge colouring: %d colours (∆=%d, κ=%d), proper=%v",
					res.NumColours, in.Graph.MaxDegree(), res.Groups, valid),
				Size: res.NumColours, Valid: valid, Metrics: res.Metrics,
			}, nil
		},
	},
}

// misResult builds the uniform result shared by the three MIS variants.
func misResult(label string, g *graph.Graph, res *MISResult) *RunResult {
	valid := graph.IsMaximalIndependentSet(g, res.Set)
	return &RunResult{
		Summary: fmt.Sprintf("%s: |I|=%d, valid=%v, iters=%d",
			label, len(res.Set), valid, res.Iterations),
		Size: len(res.Set), Valid: valid,
		Iterations: res.Iterations, Metrics: res.Metrics,
	}
}
