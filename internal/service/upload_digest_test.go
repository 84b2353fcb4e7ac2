package service

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// serveUploadID is the id Upload returned for the end-to-end harness's serve
// graph — Density(16000, 0.3) with weights uniform in [1,100), both drawn
// from rng.New(1) — on the commit before the codec was rewritten. Upload ids
// are ledger keys, so a change here orphans every recorded upload job.
const serveUploadID = "7d70dd2407f37f3ef801e2f937b70609"

// TestUploadIDDigest pins that id for the graph's text and container
// encodings.
func TestUploadIDDigest(t *testing.T) {
	gen := rng.New(1)
	g := graph.Density(16000, 0.3, gen.Split())
	g.AssignUniformWeights(gen.Split(), 1, 100)
	var text, bin bytes.Buffer
	if err := graph.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.EncodeContainer(&bin, g); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	for name, data := range map[string][]byte{"text": text.Bytes(), "container": bin.Bytes()} {
		id, _, err := e.Upload(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id != serveUploadID {
			t.Errorf("%s upload id %s, want %s", name, id, serveUploadID)
		}
	}
}
