package graph

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// This file is the out-of-core construction path: BuildExternal turns a
// stream of edges into a binary container without ever holding the
// graph in memory. Peak memory is O(n) (the degree histogram) plus the
// configured chunk budget; everything else spools through temporary run
// files and a k-way merge. ConvertFile takes this path for text graphs
// whose container exceeds convertInMemoryBytes; smaller ones decode to the
// heap, which is about three times faster.
//
// The output is byte-identical to WriteContainerFile on the in-heap graph
// built from the same edge stream. That works because the in-heap CSR slab
// order has a closed form: within a vertex, incident half-edges appear in
// ascending global edge index. The external path therefore tags every
// half-edge with (vertex, edge index), sorts runs by that key, and the
// merge reproduces the slab order exactly — no reference to the in-heap
// code path, same bytes out.

// ExtBuildConfig tunes BuildExternal. The zero value (or nil) uses the
// defaults; results never depend on the configuration, only peak memory and
// speed do.
type ExtBuildConfig struct {
	// ChunkEdges is the number of half-edge records buffered and sorted per
	// temporary run (two records per input edge). Default 1<<21 (~48 MB of
	// run buffer). Smaller budgets mean more runs and a wider merge.
	ChunkEdges int
	// TmpDir receives the temporary run files. Default: the directory of
	// the output file, so spill I/O lands on the same filesystem.
	TmpDir string
}

func (c *ExtBuildConfig) withDefaults(outPath string) ExtBuildConfig {
	out := ExtBuildConfig{}
	if c != nil {
		out = *c
	}
	if out.ChunkEdges <= 0 {
		out.ChunkEdges = 1 << 21
	}
	if out.ChunkEdges < 2 {
		out.ChunkEdges = 2
	}
	if out.TmpDir == "" {
		out.TmpDir = filepath.Dir(outPath)
	}
	return out
}

// halfEdge is one directed incidence: edge idx contributes nbr (and the
// edge's weight) to vertex v's slab range. The merge key (v, idx) is
// globally unique — an edge's two half-edges carry different v.
type halfEdge struct {
	v, nbr, idx int32
	w           float64
}

const halfEdgeRec = 20 // v i32 | nbr i32 | idx i32 | w f64 on the run files

// fileRegionWriter is a sequential io.Writer positioned at a fixed offset
// of an os.File; three of them let the merge emit the adjNbr, adjEdge and
// adjW sections in one pass, each section strictly sequentially.
type fileRegionWriter struct {
	f   *os.File
	off int64
}

func (w *fileRegionWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// BuildExternal streams m edges from next into a binary container at
// path, using external sorting so the graph never needs to fit in memory.
// next is called exactly m times and must yield the edges in their input
// order (the order that defines the graph: g.Edges, and through it every
// algorithm's determinism contract). The resulting file is byte-identical
// to WriteContainerFile(path, g) for the in-heap g with the same edges.
func BuildExternal(path string, n, m int, next func() (Edge, error), cfg *ExtBuildConfig) (err error) {
	if n < 0 || m < 0 {
		return fmt.Errorf("graph: negative dimensions n=%d m=%d", n, m)
	}
	if err := checkCSRBounds(n, m); err != nil {
		return err
	}
	conf := cfg.withDefaults(path)
	h := rawLayout(n, m)

	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	// Pre-size the file: the holes between sections read as zeros, which is
	// exactly the padding EncodeContainer writes.
	if err := out.Truncate(int64(h.totalSize())); err != nil {
		return err
	}

	var runs []*os.File
	defer func() {
		for _, r := range runs {
			name := r.Name()
			r.Close()
			os.Remove(name)
		}
	}()

	// Pass 1: stream the edges. Each edge is validated, written to the
	// edges section in input order, counted into the degree histogram, and
	// split into two half-edges buffered for sorting.
	deg := make([]int32, n+1) // deg[v+1] = degree of v, then prefix-summed
	chunk := make([]halfEdge, 0, conf.ChunkEdges)
	recBuf := make([]byte, halfEdgeRec)
	spill := func() error {
		sort.Slice(chunk, func(i, j int) bool {
			if chunk[i].v != chunk[j].v {
				return chunk[i].v < chunk[j].v
			}
			return chunk[i].idx < chunk[j].idx
		})
		run, err := os.CreateTemp(conf.TmpDir, "mrg-extsort-*.run")
		if err != nil {
			return err
		}
		runs = append(runs, run)
		bw := bufio.NewWriterSize(run, 1<<16)
		le := binary.LittleEndian
		for _, he := range chunk {
			le.PutUint32(recBuf, uint32(he.v))
			le.PutUint32(recBuf[4:], uint32(he.nbr))
			le.PutUint32(recBuf[8:], uint32(he.idx))
			le.PutUint64(recBuf[12:], math.Float64bits(he.w))
			if _, err := bw.Write(recBuf); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		chunk = chunk[:0]
		return nil
	}

	edgeSec := h.sections[4]
	var edgeEnc sectionEncoder
	edgeEnc.reset(&fileRegionWriter{f: out, off: int64(edgeSec.off)})
	for i := 0; i < m; i++ {
		e, err := next()
		if err != nil {
			return fmt.Errorf("graph: edge stream ended at edge %d of %d: %v", i, m, err)
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			return fmt.Errorf("graph: invalid edge (%d,%d) for n=%d", e.U, e.V, n)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: non-finite weight on edge (%d,%d)", e.U, e.V)
		}
		edgeEnc.putEdge(e)
		deg[e.U+1]++
		deg[e.V+1]++
		chunk = append(chunk,
			halfEdge{v: int32(e.U), nbr: int32(e.V), idx: int32(i), w: e.W},
			halfEdge{v: int32(e.V), nbr: int32(e.U), idx: int32(i), w: e.W})
		if len(chunk) >= conf.ChunkEdges {
			if err := spill(); err != nil {
				return err
			}
		}
	}
	crc, nbytes, err := edgeEnc.finish()
	if err != nil {
		return err
	}
	if nbytes != edgeSec.len {
		return fmt.Errorf("graph: edge section wrote %d bytes, layout promises %d", nbytes, edgeSec.len)
	}
	h.sections[4].crc = crc

	// adjStart: prefix-sum the histogram in place and write it out.
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	var enc sectionEncoder
	enc.reset(&fileRegionWriter{f: out, off: int64(h.sections[0].off)})
	enc.putInt32s(deg)
	if h.sections[0].crc, _, err = enc.finish(); err != nil {
		return err
	}

	// Merge: the spilled runs plus the in-memory tail chunk, ascending by
	// (v, idx), emit the three positional slabs in one pass.
	sort.Slice(chunk, func(i, j int) bool {
		if chunk[i].v != chunk[j].v {
			return chunk[i].v < chunk[j].v
		}
		return chunk[i].idx < chunk[j].idx
	})
	sources := make([]halfEdgeSource, 0, len(runs)+1)
	for _, run := range runs {
		if _, err := run.Seek(0, 0); err != nil {
			return err
		}
		sources = append(sources, &runSource{r: bufio.NewReaderSize(run, 1<<16)})
	}
	if len(chunk) > 0 {
		sources = append(sources, &memSource{rec: chunk})
	}

	var nbrEnc, edgeIdxEnc, wEnc sectionEncoder
	nbrEnc.reset(&fileRegionWriter{f: out, off: int64(h.sections[1].off)})
	edgeIdxEnc.reset(&fileRegionWriter{f: out, off: int64(h.sections[2].off)})
	wEnc.reset(&fileRegionWriter{f: out, off: int64(h.sections[3].off)})

	mh := make(mergeHeap, 0, len(sources))
	for _, src := range sources {
		he, ok, err := src.next()
		if err != nil {
			return err
		}
		if ok {
			mh = append(mh, mergeItem{he: he, src: src})
		}
	}
	heap.Init(&mh)
	emitted := 0
	for len(mh) > 0 {
		it := mh[0]
		nbrEnc.putUint32(uint32(it.he.nbr))
		edgeIdxEnc.putUint32(uint32(it.he.idx))
		wEnc.putUint64(math.Float64bits(it.he.w))
		emitted++
		he, ok, err := it.src.next()
		if err != nil {
			return err
		}
		if ok {
			mh[0].he = he
			heap.Fix(&mh, 0)
		} else {
			heap.Pop(&mh)
		}
	}
	if emitted != 2*m {
		return fmt.Errorf("graph: merge emitted %d half-edges, expected %d", emitted, 2*m)
	}
	if h.sections[1].crc, _, err = nbrEnc.finish(); err != nil {
		return err
	}
	if h.sections[2].crc, _, err = edgeIdxEnc.finish(); err != nil {
		return err
	}
	if h.sections[3].crc, _, err = wEnc.finish(); err != nil {
		return err
	}

	// Patch the now-complete prologue (section checksums) into place.
	if _, err := out.WriteAt(h.marshal(), 0); err != nil {
		return err
	}
	return nil
}

// halfEdgeSource yields half-edges in ascending (v, idx) order.
type halfEdgeSource interface {
	next() (halfEdge, bool, error)
}

// runSource streams a spilled, sorted run file.
type runSource struct {
	r   *bufio.Reader
	buf [halfEdgeRec]byte
}

func (s *runSource) next() (halfEdge, bool, error) {
	if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
		if err == io.EOF {
			return halfEdge{}, false, nil
		}
		return halfEdge{}, false, err
	}
	le := binary.LittleEndian
	return halfEdge{
		v:   int32(le.Uint32(s.buf[:])),
		nbr: int32(le.Uint32(s.buf[4:])),
		idx: int32(le.Uint32(s.buf[8:])),
		w:   math.Float64frombits(le.Uint64(s.buf[12:])),
	}, true, nil
}

// memSource drains the sorted in-memory tail chunk.
type memSource struct{ rec []halfEdge }

func (s *memSource) next() (halfEdge, bool, error) {
	if len(s.rec) == 0 {
		return halfEdge{}, false, nil
	}
	he := s.rec[0]
	s.rec = s.rec[1:]
	return he, true, nil
}

// mergeItem pairs a source's current head with the source.
type mergeItem struct {
	he  halfEdge
	src halfEdgeSource
}

// mergeHeap is a min-heap on the unique key (v, idx).
type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].he.v != h[j].he.v {
		return h[i].he.v < h[j].he.v
	}
	return h[i].he.idx < h[j].he.idx
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}
