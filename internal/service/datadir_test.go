package service

// Out-of-core serving: uploads in any format share one content id, DataDir
// spools them to mapped containers, and evicted spooled instances
// resurrect from disk instead of failing.

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// uploadGraph is a small deterministic weighted graph for upload tests.
func uploadGraph() *graph.Graph {
	r := rng.New(31)
	g := graph.GNM(120, 600, r)
	g.AssignUniformWeights(r, 1, 30)
	return g
}

// encodeAll returns the same graph in every transport format Upload accepts.
func encodeAll(t *testing.T, g *graph.Graph) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var text, bin bytes.Buffer
	if err := graph.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.EncodeContainer(&bin, g); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	out["text"] = text.Bytes()
	out["container"] = bin.Bytes()
	out["gzip-text"] = gz.Bytes()
	return out
}

// TestUploadFormatInvariantID checks that every encoding of the same graph
// uploads to the same content-addressed instance id.
func TestUploadFormatInvariantID(t *testing.T) {
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	g := uploadGraph()
	var firstID string
	for name, data := range encodeAll(t, g) {
		id, info, err := e.Upload(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if firstID == "" {
			firstID = id
		}
		if id != firstID {
			t.Fatalf("%s uploaded as id %s, want %s (ids must be format-invariant)", name, id, firstID)
		}
		if info.N != g.N || info.M != g.M() {
			t.Fatalf("%s: info (%d,%d), want (%d,%d)", name, info.N, info.M, g.N, g.M())
		}
	}
}

// TestDataDirSpoolsUploads checks that with DataDir set, uploads are
// spooled as containers, served mapped, and produce results identical to
// heap-served uploads.
func TestDataDirSpoolsUploads(t *testing.T) {
	g := uploadGraph()
	var text bytes.Buffer
	if err := graph.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	req := func(id string) JobRequest {
		return JobRequest{
			Instance: InstanceSpec{Type: "upload", ID: id},
			Alg:      "matching",
			Seed:     7,
		}
	}

	heapEng := NewEngine(Config{Pool: 1})
	defer heapEng.Close()
	heapID, heapInfo, err := heapEng.Upload(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if heapInfo.Mapped {
		t.Fatal("upload without DataDir reported Mapped")
	}
	heapRes := finished(t, heapEng, mustSubmit(t, heapEng, req(heapID)))

	dir := t.TempDir()
	mapEng := NewEngine(Config{Pool: 1, DataDir: dir})
	defer mapEng.Close()
	mapID, mapInfo, err := mapEng.Upload(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mapID != heapID {
		t.Fatalf("spooled upload id %s differs from heap id %s", mapID, heapID)
	}
	if !mapInfo.Mapped {
		t.Fatal("upload with DataDir not served mapped")
	}
	spool := filepath.Join(dir, mapID+".mrg")
	if err := graph.VerifyContainer(spool); err != nil {
		t.Fatalf("spooled container: %v", err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, ".spool-*")); len(leftovers) != 0 {
		t.Fatalf("temp spool files leaked: %v", leftovers)
	}

	mapRes := finished(t, mapEng, mustSubmit(t, mapEng, req(mapID)))
	if mapRes.Result.Summary != heapRes.Result.Summary ||
		mapRes.Result.Metrics != heapRes.Result.Metrics {
		t.Fatalf("mapped result differs from heap result:\n  heap:   %s\n  mapped: %s",
			heapRes.Result.Summary, mapRes.Result.Summary)
	}

	// The instance listing reports the mapped form.
	for _, info := range mapEng.Instances() {
		if info.ID == mapID && !info.Mapped {
			t.Fatal("instance listing lost the Mapped flag")
		}
	}
}

// TestDataDirResurrection checks that an upload evicted from the instance
// cache is remapped from the spool on the next job, instead of failing with
// unknown-id.
func TestDataDirResurrection(t *testing.T) {
	dir := t.TempDir()
	// Capacity 1: the second upload evicts the first.
	e := NewEngine(Config{Pool: 1, Instances: 1, DataDir: dir})
	defer e.Close()

	var a, b bytes.Buffer
	if err := graph.Encode(&a, uploadGraph()); err != nil {
		t.Fatal(err)
	}
	g2 := graph.GNM(80, 200, rng.New(99))
	g2.AssignUnitWeights()
	if err := graph.Encode(&b, g2); err != nil {
		t.Fatal(err)
	}
	idA, _, err := e.Upload(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Upload(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(e.Instances()) != 1 {
		t.Fatalf("cache holds %d instances, want 1 (eviction)", len(e.Instances()))
	}

	j := mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "upload", ID: idA},
		Alg:      "mis",
		Seed:     3,
	})
	v := finished(t, e, j)
	if v.Result == nil || v.Result.InstanceID != idA {
		t.Fatal("resurrected job did not run against the original instance")
	}

	// Without a data directory the same eviction is fatal for the id.
	plain := NewEngine(Config{Pool: 1, Instances: 1})
	defer plain.Close()
	idP, _, err := plain.Upload(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.Upload(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	jp := mustSubmit(t, plain, JobRequest{
		Instance: InstanceSpec{Type: "upload", ID: idP},
		Alg:      "mis",
		Seed:     3,
	})
	jp.Wait()
	if vp := plain.Snapshot(jp); vp.Status != StatusFailed {
		t.Fatalf("evicted upload without DataDir: status %s, want failed", vp.Status)
	}
}

// TestPreloadFile checks that preloading a graph file registers it under
// the same id an HTTP upload of the bytes would get, for both text and
// container files.
func TestPreloadFile(t *testing.T) {
	g := uploadGraph()
	var text bytes.Buffer
	if err := graph.Encode(&text, g); err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(Config{Pool: 1})
	defer ref.Close()
	wantID, _, err := ref.Upload(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	textPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(textPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "g.mrg")
	if err := graph.WriteContainerFile(binPath, g); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Config{Pool: 1, DataDir: filepath.Join(dir, "data")})
	defer e.Close()
	for _, path := range []string{textPath, binPath} {
		id, info, err := e.PreloadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if id != wantID {
			t.Fatalf("%s: preloaded as %s, upload id is %s", path, id, wantID)
		}
		if !info.Mapped {
			t.Fatalf("%s: preloaded instance not mapped", path)
		}
	}

	v := finished(t, e, mustSubmit(t, e, JobRequest{
		Instance: InstanceSpec{Type: "upload", ID: wantID},
		Alg:      "vcolour",
		Seed:     5,
	}))
	if v.Result == nil {
		t.Fatal("no result from preloaded instance")
	}
}

// corruptFile flips a bit in the last byte of a container at path — the
// high byte of the last edge's weight — through a rename, so a mapping of
// the old file is never touched.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	tmp := path + ".corrupt"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// TestPreloadRejectsCorruptContainer: mrserve -preload of a container whose
// section body fails its checksum is an error, not a served instance.
func TestPreloadRejectsCorruptContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.mrg")
	if err := graph.WriteContainerFile(path, uploadGraph()); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, path)
	e := NewEngine(Config{Pool: 1})
	defer e.Close()
	if _, _, err := e.PreloadFile(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("preloading a corrupt container: %v, want a checksum mismatch", err)
	}
	if n := len(e.Instances()); n != 0 {
		t.Fatalf("the cache holds %d instances after a refused preload", n)
	}
}

// TestResurrectionRejectsCorruptSpool: an evicted upload whose spooled
// container was corrupted on disk fails its job with the checksum error
// instead of being remapped and served.
func TestResurrectionRejectsCorruptSpool(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(Config{Pool: 1, Instances: 1, DataDir: dir})
	defer e.Close()
	var a, b bytes.Buffer
	if err := graph.Encode(&a, uploadGraph()); err != nil {
		t.Fatal(err)
	}
	if err := graph.Encode(&b, graph.GNM(80, 200, rng.New(99))); err != nil {
		t.Fatal(err)
	}
	idA, _, err := e.Upload(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Upload(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, spoolPath(dir, idA))

	j := mustSubmit(t, e, JobRequest{Instance: InstanceSpec{Type: "upload", ID: idA}, Alg: "mis", Seed: 3})
	j.Wait()
	v := e.Snapshot(j)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "checksum mismatch") {
		t.Fatalf("job on a corrupt spool: status %s, error %q; want failed with a checksum mismatch", v.Status, v.Error)
	}
}

// TestRespoolReplacesCorruptSpool: an upload whose <id>.mrg is already in
// the data directory — written by an earlier engine, then corrupted on disk
// — is not served from that file. The new engine replaces it with the
// uploaded graph's container, and jobs see the uploaded graph.
func TestRespoolReplacesCorruptSpool(t *testing.T) {
	var text bytes.Buffer
	if err := graph.Encode(&text, uploadGraph()); err != nil {
		t.Fatal(err)
	}
	req := func(id string) JobRequest {
		return JobRequest{Instance: InstanceSpec{Type: "upload", ID: id}, Alg: "matching", Seed: 7}
	}
	heapEng := NewEngine(Config{Pool: 1})
	defer heapEng.Close()
	heapID, _, err := heapEng.Upload(text.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := finished(t, heapEng, mustSubmit(t, heapEng, req(heapID)))

	dir := t.TempDir()
	first := NewEngine(Config{Pool: 1, DataDir: dir})
	id, _, err := first.Upload(text.Bytes())
	first.Close()
	if err != nil {
		t.Fatal(err)
	}
	spool := spoolPath(dir, id)
	corruptFile(t, spool)

	e := NewEngine(Config{Pool: 1, DataDir: dir})
	defer e.Close()
	if _, info, err := e.Upload(text.Bytes()); err != nil || !info.Mapped {
		t.Fatalf("re-upload over a corrupt spool: mapped %v, err %v", info.Mapped, err)
	}
	if err := graph.VerifyContainer(spool); err != nil {
		t.Fatalf("the corrupt spool was not replaced: %v", err)
	}
	got := finished(t, e, mustSubmit(t, e, req(id)))
	if got.Result.Summary != want.Result.Summary || got.Result.Metrics != want.Result.Metrics {
		t.Fatalf("job on the re-uploaded instance differs from the heap upload's:\n  heap:   %s\n  spool:  %s",
			want.Result.Summary, got.Result.Summary)
	}
}
