package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// InstanceSpec declares a problem instance. Specs are pure data: building
// one is deterministic (BuildInstance), so a spec's canonical hash (ID)
// names the instance it produces, and the instance cache can share one
// built instance across every job that references the same spec.
//
// Types and their fields:
//
//	density          n, c, seed   — graph.Density(n, c): m = n^{1+c} edges,
//	                                uniform edge weights in [1,100)
//	vertexcover      n, c, seed   — the density graph plus uniform vertex
//	                                weights in [1,10), converted to the
//	                                f = 2 set cover instance
//	setcover-f       n, c, f, seed — setcover.RandomFrequency: n sets,
//	                                m = n^{1+c} elements, frequency ≤ f
//	setcover-greedy  n, seed      — setcover.RandomSized: n sets over
//	                                max(n/10, 10) elements, ∆ ≈ 12
//	upload           data | id    — a graph in any format graph.DecodeAuto
//	                                accepts (text, binary container, gzip
//	                                wrappings of either); id references a
//	                                previously uploaded instance by its
//	                                content hash, which is format-invariant
//
// The generator seed discipline mirrors cmd/mrrun: a root rng.New(seed)
// split once per generator draw, in a fixed order.
type InstanceSpec struct {
	Type string  `json:"type"`
	N    int     `json:"n,omitempty"`
	C    float64 `json:"c,omitempty"`
	F    int     `json:"f,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
	// Data carries uploaded graph bytes (base64 in JSON) for type
	// "upload". ID references an instance already in the cache instead;
	// when Data is set, ID is ignored and recomputed from the content.
	Data []byte `json:"data,omitempty"`
	ID   string `json:"id,omitempty"`
}

// maxInstanceN and maxInstanceBytes bound generator sizes so a malformed
// request cannot ask the daemon for a terabyte instance: n alone does not
// (n = 2^22 at c = 1 is 8.8·10¹² edges). A spec is charged
// instanceItemBytes for every edge or set–element incidence it implies —
// an edge is 24 B in the edge list and 32 B in the CSR slabs, and its
// generator's duplicate table adds 16–32 B until it returns — so the limit
// is a 4 GiB instance, 2^26 edges.
const (
	maxInstanceN      = 1 << 22
	maxInstanceBytes  = 4 << 30
	instanceItemBytes = 64
	maxInstanceItems  = maxInstanceBytes / instanceItemBytes
)

// Negative, so a compile error, if maxInstanceItems edges could overflow
// the graph kernel's int32 half-edge offsets (2m <= MaxInt32).
const _ = uint(math.MaxInt32/2 - maxInstanceItems)

// items returns the number of edges (density, vertexcover) or set–element
// incidences (setcover-f: at most f an element) the spec asks its generator
// for, in floating point so that no n, c and f can overflow it.
// setcover-greedy needs no entry: its 12n incidences are bounded by
// maxInstanceN.
func (s InstanceSpec) items() float64 {
	n := float64(s.N)
	switch s.Type {
	case "density", "vertexcover":
		return math.Min(math.Floor(math.Pow(n, 1+s.C)), n*(n-1)/2)
	case "setcover-f":
		return math.Floor(math.Pow(n, 1+s.C)) * float64(s.F)
	}
	return 0
}

// Validate checks the spec's parameters without building anything.
func (s InstanceSpec) Validate() error {
	switch s.Type {
	case "density", "vertexcover":
		if s.N < 1 || s.N > maxInstanceN {
			return fmt.Errorf("service: %s spec needs 1 <= n <= %d, got %d", s.Type, maxInstanceN, s.N)
		}
		if !(s.C >= 0 && s.C <= 1) { // NaN fails every comparison
			return fmt.Errorf("service: %s spec needs 0 <= c <= 1, got %g", s.Type, s.C)
		}
	case "setcover-f":
		if s.N < 1 || s.N > maxInstanceN {
			return fmt.Errorf("service: setcover-f spec needs 1 <= n <= %d, got %d", maxInstanceN, s.N)
		}
		if !(s.C >= 0 && s.C <= 1) {
			return fmt.Errorf("service: setcover-f spec needs 0 <= c <= 1, got %g", s.C)
		}
		if s.F < 1 || s.F > s.N {
			return fmt.Errorf("service: setcover-f spec needs 1 <= f <= n, got f=%d n=%d", s.F, s.N)
		}
	case "setcover-greedy":
		if s.N < 1 || s.N > maxInstanceN {
			return fmt.Errorf("service: setcover-greedy spec needs 1 <= n <= %d, got %d", maxInstanceN, s.N)
		}
	case "upload":
		if len(s.Data) == 0 && s.ID == "" {
			return fmt.Errorf("service: upload spec needs data or id")
		}
	case "":
		return fmt.Errorf("service: instance spec missing type")
	default:
		return fmt.Errorf("service: unknown instance type %q", s.Type)
	}
	if items := s.items(); items > maxInstanceItems {
		return fmt.Errorf("service: %s spec n=%d c=%g asks for %.3g edges or set elements, over the limit of %d (a %d GiB instance)",
			s.Type, s.N, s.C, items, maxInstanceItems, maxInstanceBytes>>30)
	}
	return nil
}

// Provides reports whether instances of this spec satisfy an algorithm's
// input requirement.
func (s InstanceSpec) Provides(kind core.InputKind) bool {
	switch s.Type {
	case "density", "upload":
		return kind == core.InputGraph
	case "vertexcover":
		// The built input carries both the graph and the derived set
		// cover instance, so plain graph algorithms can run on it too.
		return kind == core.InputGraph || kind == core.InputVertexCover
	case "setcover-f", "setcover-greedy":
		return kind == core.InputSetCover
	}
	return false
}

// canonical returns the deterministic serialization hashed into the spec
// ID. Only the fields that affect the built instance participate.
func (s InstanceSpec) canonical() (string, error) {
	switch s.Type {
	case "density", "vertexcover":
		return fmt.Sprintf("%s n=%d c=%g seed=%d", s.Type, s.N, s.C, s.Seed), nil
	case "setcover-f":
		return fmt.Sprintf("setcover-f n=%d c=%g f=%d seed=%d", s.N, s.C, s.F, s.Seed), nil
	case "setcover-greedy":
		return fmt.Sprintf("setcover-greedy n=%d seed=%d", s.N, s.Seed), nil
	case "upload":
		if len(s.Data) == 0 {
			if s.ID == "" {
				return "", fmt.Errorf("service: upload spec needs data or id")
			}
			return "", errUploadByID
		}
		g, err := graph.DecodeAuto(bytes.NewReader(s.Data))
		if err != nil {
			return "", err
		}
		return uploadCanonical(g)
	}
	return "", fmt.Errorf("service: unknown instance type %q", s.Type)
}

// uploadCanonical returns the canonical serialization of an uploaded graph:
// the decoded, re-encoded text content. Hashing this makes the id invariant
// under transport format — text, gzip, or binary container uploads of the
// same graph share one instance — but sensitive to edge order (edge order is
// part of the algorithms' determinism contract).
func uploadCanonical(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := graph.Encode(h, g); err != nil {
		return "", err
	}
	return "upload sha256=" + hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalID hashes a canonical serialization into a spec id.
func canonicalID(canon string) string {
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:16])
}

// uploadID is the instance id of an uploaded graph: SpecID of an upload
// spec carrying any encoding of g.
func uploadID(g *graph.Graph) (string, error) {
	canon, err := uploadCanonical(g)
	if err != nil {
		return "", err
	}
	return canonicalID(canon), nil
}

// errUploadByID marks a spec that references an uploaded instance by id:
// it cannot be built from the spec alone, only found in the cache.
var errUploadByID = fmt.Errorf("service: upload spec references an instance by id")

// SpecID returns the canonical content hash naming the instance the spec
// builds. For upload-by-id specs it returns the referenced id verbatim.
func SpecID(s InstanceSpec) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	canon, err := s.canonical()
	if err == errUploadByID {
		return s.ID, nil
	}
	if err != nil {
		return "", err
	}
	return canonicalID(canon), nil
}

// BuildInstance deterministically builds the instance a spec describes and
// pre-materializes every lazily-built index the algorithms read (CSR
// adjacency, set cover dual), so the returned Input is safe to share across
// concurrent readers. Upload-by-id specs cannot be built here; the instance cache
// resolves them.
func BuildInstance(s InstanceSpec) (core.Input, error) {
	if err := s.Validate(); err != nil {
		return core.Input{}, err
	}
	r := rng.New(s.Seed)
	var in core.Input
	switch s.Type {
	case "density":
		g := graph.Density(s.N, s.C, r.Split())
		g.AssignUniformWeights(r.Split(), 1, 100)
		in = core.Input{Graph: g}
	case "vertexcover":
		g := graph.Density(s.N, s.C, r.Split())
		g.AssignUniformWeights(r.Split(), 1, 100)
		in = VertexCoverInput(g, s.Seed)
	case "setcover-f":
		m := int(math.Pow(float64(s.N), 1+s.C))
		in = core.Input{Cover: setcover.RandomFrequency(s.N, m, s.F, 10, r.Split())}
	case "setcover-greedy":
		m := s.N / 10
		if m < 10 {
			m = 10
		}
		in = core.Input{Cover: setcover.RandomSized(s.N, m, 12, 8, r.Split())}
	case "upload":
		if len(s.Data) == 0 {
			return core.Input{}, errUploadByID
		}
		g, err := graph.DecodeAuto(bytes.NewReader(s.Data))
		if err != nil {
			return core.Input{}, err
		}
		in = core.Input{Graph: g}
	default:
		return core.Input{}, fmt.Errorf("service: unknown instance type %q", s.Type)
	}
	materialize(in)
	return in, nil
}

// VertexCoverInput pairs g with the vertex weights a vertexcover spec of
// this seed draws, uniform in [1, 10), and the set cover instance they
// define. The weights come from the seed's third split, after the graph's
// and its edge weights', so a generated instance saved and loaded back
// (mrrun -load) gets the weights it was built with.
func VertexCoverInput(g *graph.Graph, seed uint64) core.Input {
	r := rng.New(seed)
	r.Split() // the graph
	r.Split() // its edge weights
	wr := r.Split()
	w := make([]float64, g.N)
	for i := range w {
		w[i] = wr.UniformWeight(1, 10)
	}
	return core.Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}
}

// materialize forces every lazily-built index the algorithms read, so
// concurrent jobs only ever read. Graph.Build and Instance.Dual mutate on
// first use — done here, once, before the instance is shared. The weight
// slab NeighborsW fills is not part of a shared instance: every registry
// algorithm reads a weight as Edges[id].W, and the slab would add 16 B an
// edge (TestInstancesStayResident holds that line).
func materialize(in core.Input) {
	if g := in.Graph; g != nil {
		g.Build()
	}
	if c := in.Cover; c != nil {
		c.Dual()
	}
}

// instanceWords approximates the resident size of an instance in words,
// for the instance listing: the heap bytes the graph's edge list and CSR
// slabs hold (Graph.ResidentBytes, nothing for the views of a mapped
// graph), rounded up to words, plus the set system's words.
func instanceWords(in core.Input) int64 {
	var w int64
	if g := in.Graph; g != nil {
		w += (g.ResidentBytes() + 7) / 8
	}
	if c := in.Cover; c != nil {
		w += int64(c.NumSets()) + 2*int64(c.TotalSize())
	}
	return w
}
