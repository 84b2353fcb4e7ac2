package service

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
)

// jobRequestSeeds returns JSON job requests for the fuzz corpus: the smoke
// script's request, one request per job kind the serve benchmark submits, at
// full and tiny scale, and boundary specs — the largest n, c = 1, an implied
// item count over the limit, µ outside [0, 1], and an upload by content and
// by id.
func jobRequestSeeds(tb testing.TB) [][]byte {
	smoke, err := os.ReadFile("../../scripts/smoke_job.json")
	if err != nil {
		tb.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.Encode(&text, graph.Path(5)); err != nil {
		tb.Fatal(err)
	}
	zero, five, minusOne := 0.0, 5.0, -1.0
	reqs := []JobRequest{
		{Instance: InstanceSpec{Type: "upload", Data: text.Bytes()}, Alg: "matching", Seed: 1},
		{Instance: InstanceSpec{Type: "upload", ID: "0123456789abcdef0123456789abcdef"}, Alg: "mis", Seed: 1},
		{Instance: InstanceSpec{Type: "upload", ID: "unknown"}, Alg: "vcolour", Seed: 1},
		{Instance: InstanceSpec{Type: "density", N: maxInstanceN, C: 0, Seed: 3}, Alg: "mis"},
		{Instance: InstanceSpec{Type: "density", N: maxInstanceN, C: 1, Seed: 3}, Alg: "mis"},
		{Instance: InstanceSpec{Type: "density", N: 100, C: 1}, Alg: "ecolour", Mu: &zero},
		{Instance: InstanceSpec{Type: "density", N: 2000, C: 0.3, Seed: 5}, Alg: "matching", Seed: 5, Mu: &five},
		{Instance: InstanceSpec{Type: "density", N: 2000, C: 0.3, Seed: 5}, Alg: "matching", Seed: 5, Mu: &minusOne},
		{Instance: InstanceSpec{Type: "setcover-greedy", N: maxInstanceN}, Alg: "setcover-greedy"},
		{Instance: InstanceSpec{Type: "setcover-f", N: 100000, C: 0.3, F: 100000}, Alg: "setcover-f"},
	}
	for _, n := range []int{8000, 300} {
		reqs = append(reqs,
			JobRequest{Instance: InstanceSpec{Type: "vertexcover", N: n, C: 0.3, Seed: 1}, Alg: "vertexcover", Seed: 1},
			JobRequest{Instance: InstanceSpec{Type: "setcover-f", N: n, C: 0.3, F: 3, Seed: 1}, Alg: "setcover-f", Seed: 1},
			JobRequest{Instance: InstanceSpec{Type: "setcover-greedy", N: 5 * n, Seed: 1}, Alg: "setcover-greedy", Seed: 1},
			JobRequest{Instance: InstanceSpec{Type: "density", N: n, C: 0.3, Seed: 1}, Alg: "bmatching",
				Args: map[string]float64{"b": 3, "eps": 0.1}, Seed: 1})
	}
	seeds := [][]byte{smoke, nil, []byte("{}")}
	for _, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzJobRequest holds the submit path's validation to the decoder rule:
// any bytes that unmarshal into a JobRequest are either rejected with an
// error or canonicalized into a job key, the same key every time, without a
// panic and without building the instance.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range jobRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		cj, err := canonRequest(req)
		if err != nil {
			return
		}
		if !(cj.mu >= 0 && cj.mu <= 1) {
			t.Fatalf("request %s: accepted mu %g", data, cj.mu)
		}
		if cj.instID == "" || !strings.HasPrefix(cj.key, "inst="+cj.instID+" alg="+req.Alg+" ") {
			t.Fatalf("request %s: key %q for instance %q", data, cj.key, cj.instID)
		}
		again, err := canonRequest(req)
		if err != nil || again.key != cj.key {
			t.Fatalf("request %s: key %q, then %q (%v)", data, cj.key, again.key, err)
		}
	})
}
