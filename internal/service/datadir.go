package service

import (
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/ledger"
)

// The data directory is the daemon's out-of-core instance store: when
// Config.DataDir is set, every uploaded or preloaded graph is spooled to
// DataDir/<id>.mrg as a raw binary container and served through
// graph.OpenMapped. The kernel's page cache then decides how much of each
// instance is resident; the engine holds only the O(header) mapping plus
// the small edge-list alias, one physical mapping shared by every
// concurrent job referencing the instance. Because the file name is the
// content-addressed instance id, an evicted upload can be resurrected from
// disk on the next reference instead of failing (instanceCache.get).

// spoolPath is the content-addressed container location for an instance id.
func spoolPath(dir, id string) string { return filepath.Join(dir, id+".mrg") }

// spoolMapped writes g to the data directory as a raw binary container and
// reopens it mapped. A content-addressed file already there — left by an
// earlier spool, possibly by another process on the same directory — may
// have changed on disk since it was written, so it is served only if
// OpenVerified accepts it, and is otherwise replaced by g's container.
// The write is atomic AND durable — temp file, fsync, rename, directory
// fsync — so neither a concurrent spool of the same id nor a crash at any
// point can leave a partial or unlinked container behind. Durability
// matters here because the job ledger references spooled instances by
// content id across restarts: a torn <id>.mrg would poison every future
// replay of the jobs recorded against it.
func spoolMapped(dir, id string, g *graph.Graph) (*graph.Graph, error) {
	path := spoolPath(dir, id)
	if _, err := os.Stat(path); err == nil {
		if mg, err := graph.OpenVerified(path); err == nil {
			return mg, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, ".spool-*.tmp")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	if err := graph.EncodeContainer(tmp, g); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	// The container's bytes must be on stable storage before the rename
	// publishes the name: rename-then-crash must never expose an empty or
	// torn file under the content-addressed id.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	// And the directory entry itself must survive the crash, or the file
	// exists with no name.
	if err := ledger.SyncDir(dir); err != nil {
		return nil, err
	}
	// The file was written just now from g, so the header check suffices.
	return graph.OpenMapped(path)
}

// openSpooled maps a previously spooled instance, if the data directory has
// it. Used to resurrect evicted uploads by id and to audit ledger records
// against them. The file may have changed on disk since it was written, so
// every checksum and slab invariant is checked before it is served.
func openSpooled(dir, id string) (*graph.Graph, error) {
	if dir == "" {
		return nil, os.ErrNotExist
	}
	return graph.OpenVerified(spoolPath(dir, id))
}
