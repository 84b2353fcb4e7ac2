package graph

import (
	"fmt"
	"os"
	"runtime"
	"unsafe"
)

// This file is the mmap-backed side of the binary container: OpenMapped
// maps a container read-only and serves the kernel accessors
// (Neighbors, NeighborsW, IncidentEdges, Degree — and g.Edges itself) as
// zero-copy views straight off the mapping. Opening costs O(header): no
// edge is touched until an algorithm scans it, and then the OS page cache —
// not the Go heap — decides what stays resident, which is what lets an
// instance 10-100x larger than memory run at all.
//
// Lifetime: the returned *Graph pins the mapping. Explicit Close unmaps;
// otherwise a finalizer unmaps when the last reference (graph or any job
// holding it) is collected, so the instance cache can evict a mapped
// instance while jobs still scan it. One file, one mapping, any number of
// concurrent readers.

// mapping is the pinned byte range behind a mapped graph. data is either a
// live mmap (unmap true) or a heap buffer on platforms without mmap.
type mapping struct {
	data  []byte
	unmap bool
}

// close releases the mapping; idempotent.
func (m *mapping) close() error {
	data, doUnmap := m.data, m.unmap
	m.data, m.unmap = nil, false
	runtime.SetFinalizer(m, nil)
	if doUnmap && data != nil {
		return munmap(data)
	}
	return nil
}

// holds reports whether p points into m's bytes; a nil mapping holds
// nothing.
func (m *mapping) holds(p unsafe.Pointer) bool {
	return m != nil && uintptr(p)-uintptr(unsafe.Pointer(unsafe.SliceData(m.data))) < uintptr(len(m.data))
}

// hostLittleEndian reports the native byte order; the container's on-disk
// layout is little-endian, so only LE hosts can alias sections in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// edgeLayoutMatches reports whether the in-memory Edge struct has exactly
// the on-disk record layout (u i64, v i64, w f64 — 24 bytes, 8-aligned), so
// the edges section can back g.Edges directly. True on every 64-bit
// little-endian platform Go supports.
var edgeLayoutMatches = hostLittleEndian &&
	unsafe.Sizeof(Edge{}) == 24 &&
	unsafe.Offsetof(Edge{}.V) == 8 &&
	unsafe.Offsetof(Edge{}.W) == 16

// viewInt32, viewFloat64 and viewEdges reinterpret an aligned byte section
// as a typed slice without copying. The container format 8-aligns every
// section, and both mmap and ReadContainer's buffer (alignedBytes) start at
// an 8-aligned base, so the casts are aligned.
func viewInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewEdges(b []byte) []Edge {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*Edge)(unsafe.Pointer(&b[0])), len(b)/24)
}

// OpenMapped opens the binary container at path as a read-only mapped
// graph: the CSR slabs (and the edge list, on 64-bit little-endian hosts)
// are zero-copy views of the file mapping, the open itself is O(header),
// and one physical mapping serves any number of concurrent readers.
//
// The header checksum is verified and the table must be the one layout for
// the header's n and m; section payloads are not (that would fault in the whole file — run
// VerifyContainer for a full integrity check). A big-endian host copies
// every section out of the mapping and unmaps it: same graph, heap-resident.
//
// The returned graph is immutable — in-place mutators panic; Clone gives a
// mutable heap copy. Close (or garbage collection of the graph and every
// holder of its slices) releases the mapping.
//
// A mapping whose payload is corrupt serves out-of-range neighbour ids to
// whatever scans it, so files this process did not just write itself
// should go through OpenVerified.
func OpenMapped(path string) (*Graph, error) { return openMapped(path, false) }

// OpenVerified is OpenMapped plus the checks ReadContainer makes on every
// load (the two share containerGraph): each section checksum over the
// mapped bytes, then the slab invariants (validateSlabs), which replay
// Build's fill against the loaded adjacency. On a 35 MB container of 661 k
// edges that is about 13 ms of checksums and 30 ms of replay (2 CPUs). It
// returns an error instead of a graph that would index out of range or
// whose adjacency disagrees with its edge list.
func OpenVerified(path string) (*Graph, error) { return openMapped(path, true) }

func openMapped(path string, verify bool) (*Graph, error) {
	m, h, err := mapContainer(path)
	if err != nil {
		return nil, err
	}
	g, err := containerGraph(sectionsOf(m.data, h), h, verify)
	if err != nil {
		m.close()
		return nil, err
	}
	if !hostLittleEndian {
		m.close() // every section was copied out: a heap graph
		return g, nil
	}
	g.backing = m
	return g, nil
}

// mapContainer checks the prologue of the container at path and maps the
// h.totalSize() bytes it describes.
func mapContainer(path string) (*mapping, containerHeader, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, containerHeader{}, err
	}
	defer fh.Close()

	h, err := readProlog(fh)
	if err != nil {
		return nil, h, err
	}
	st, err := fh.Stat()
	if err != nil {
		return nil, h, err
	}
	size := h.totalSize()
	if uint64(st.Size()) < size {
		return nil, h, fmt.Errorf("graph: container truncated: %d bytes on disk, header promises %d", st.Size(), size)
	}

	data, mapped, err := mmapFile(fh, int(size))
	if err != nil {
		return nil, h, fmt.Errorf("graph: mmap %s: %v", path, err)
	}
	m := &mapping{data: data, unmap: mapped}
	runtime.SetFinalizer(m, (*mapping).close)
	return m, h, nil
}
