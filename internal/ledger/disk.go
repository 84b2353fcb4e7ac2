package ledger

// The append-only segmented disk store. Layout of a ledger directory:
//
//	seg-00000001.log   sealed segments, complete and immutable
//	seg-00000002.log
//	ledger.active      the tail segment being appended
//
// Each record is framed as
//
//	u32  CRC-32C (Castagnoli) over the body
//	u32  body length
//	body: u64 seq · i64 unix-nanos · u32 keyLen · u32 payloadLen ·
//	      key · payload · resultHash(32) · metricsHash(32) · link(32)
//
// all little-endian. Appends write one batch, then fsync — the durability
// point the ledger reports to callers. When the active file grows past the
// segment budget it is sealed: fsync, atomic rename to the next seg-N name,
// directory fsync, fresh active file. Only the active file can therefore
// ever hold a torn record (a kill -9 between write and fsync); sealed
// segments were complete before the rename made them visible under their
// final name. Recovery truncates a torn active tail exactly once and
// treats any other CRC failure as corruption, pinpointing the file.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// DefaultSegmentBytes is the default segment rotation budget.
const DefaultSegmentBytes = 8 << 20

// maxBodyBytes caps one record's body so a corrupted length field cannot
// ask recovery for a multi-gigabyte allocation.
const maxBodyBytes = 1 << 30

// recordOverhead counts the fixed bytes around key+payload.
const recordOverhead = 4 + 4 + 8 + 8 + 4 + 4 + 3*HashSize

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// activeName is the tail segment file name.
const activeName = "ledger.active"

// segName formats the n-th sealed segment file name.
func segName(n int) string { return fmt.Sprintf("seg-%08d.log", n) }

// CorruptError reports a record that failed its CRC or framing check
// somewhere verification cannot excuse as a torn tail. Path and Offset
// pinpoint the damage for operators (and for scripts/ledger_smoke.sh,
// which corrupts one byte with dd and asserts the report names the file).
type CorruptError struct {
	Path   string // file holding the bad record
	Offset int64  // byte offset of the record's frame
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ledger: corrupt record in %s at byte %d: %s", e.Path, e.Offset, e.Reason)
}

// DiskOptions tunes the disk store.
type DiskOptions struct {
	// SegmentBytes rotates the active file once it reaches this size;
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
}

func (o DiskOptions) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

// RecoverStats reports what OpenDisk found and repaired.
type RecoverStats struct {
	// Records is the number of valid records on disk.
	Records uint64
	// Segments counts sealed segments (the active file excluded).
	Segments int
	// TornTail is true when a partial or checksum-failing record at the
	// physical tail of the active file was truncated away — the expected
	// aftermath of a kill -9 mid-write, repaired exactly once.
	TornTail bool
	// TruncatedBytes is how many trailing bytes the torn-tail repair
	// removed.
	TruncatedBytes int64
}

// DiskStore is the append-only segmented file Store.
type DiskStore struct {
	// The ledger's batcher is the only appender, but Replay (on-demand
	// verification) may run concurrently with it, so both take mu: a
	// replay never observes a half-written batch.
	mu      sync.Mutex
	dir     string
	opts    DiskOptions
	f       *os.File // the active file, positioned at its end
	size    int64    // current active file size
	sealed  int      // number of sealed segments
	scratch []byte   // encode buffer reused across batches
}

// OpenDisk opens (creating if needed) a ledger directory, validates every
// record frame on disk, truncates a torn active tail, and returns the
// store positioned for appending. Chain validation (links, sequence) is
// the ledger's job on top; OpenDisk validates framing and checksums.
func OpenDisk(dir string, opts DiskOptions) (*DiskStore, RecoverStats, error) {
	var stats RecoverStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	segs, err := sealedSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	for _, path := range segs {
		n, good, torn, err := scanFile(path, nil)
		if err != nil {
			return nil, stats, err
		}
		if torn {
			// Sealed segments were fsynced before the rename made them
			// visible; a torn record here is damage, not a crash artifact.
			return nil, stats, &CorruptError{Path: path, Offset: good,
				Reason: "sealed segment ends in a torn or checksum-failing record"}
		}
		stats.Records += n
	}
	stats.Segments = len(segs)

	active := filepath.Join(dir, activeName)
	n, good, torn, err := scanFile(active, nil)
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, err
	}
	stats.Records += n
	if torn {
		info, statErr := os.Stat(active)
		if statErr != nil {
			return nil, stats, statErr
		}
		stats.TornTail = true
		stats.TruncatedBytes = info.Size() - good
		if err := truncateTail(active, good); err != nil {
			return nil, stats, err
		}
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, stats, err
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	return &DiskStore{dir: dir, opts: opts, f: f, size: size, sealed: len(segs)}, stats, nil
}

// sealedSegments lists seg-*.log in order.
func sealedSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// truncateTail cuts a file to size and syncs the result.
func truncateTail(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// Append implements Store: encode the batch, write, fsync, rotate if the
// active file is past its budget. A failing write or fsync is unwound
// (the active file truncated back to its pre-batch size) so the ledger's
// retry re-appends the batch onto a clean tail.
func (s *DiskStore) Append(recs []*Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.scratch[:0]
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	s.scratch = buf[:0]
	if _, err := s.f.Write(buf); err != nil {
		return s.unwindLocked(err)
	}
	if err := s.f.Sync(); err != nil {
		return s.unwindLocked(err)
	}
	s.size += int64(len(buf))
	if s.size >= s.opts.segmentBytes() {
		s.rotateLocked()
	}
	return nil
}

// unwindLocked makes a failed Append idempotent. The batch's bytes may
// already sit — partially or fully — in the append-only active file even
// though Write or Sync returned an error; without an unwind, a retry would
// re-append the same records and the duplicate sequence numbers (or the
// garbage half-record mid-file) would read as corruption on the next open.
// Truncating back to s.size (only advanced after a fully synced batch)
// restores the pre-batch tail; the file is in O_APPEND mode, so the retry
// writes land at the restored end. If the truncate itself fails the tail
// state is unknown and retrying could corrupt the chain, so the error is
// marked terminal: the ledger degrades instead of retrying.
func (s *DiskStore) unwindLocked(cause error) error {
	if err := s.f.Truncate(s.size); err != nil {
		return fmt.Errorf("ledger: append failed (%v) and the active file could not be truncated back to %d bytes (%v): %w",
			cause, s.size, err, ErrTerminal)
	}
	return cause
}

// rotateLocked seals the active file under the next segment name and
// starts a fresh one. The rename is atomic, and the directory is fsynced
// after, so a crash leaves either the old layout or the new — never a
// half-rotated ledger. The batch that triggered rotation is already
// durable, so every failure in here is deliberately non-fatal: the store
// keeps appending through the file descriptor it already holds and tries
// to rotate again on a later batch, rather than returning an error the
// ledger would answer by re-sending a batch that is safely on disk.
func (s *DiskStore) rotateLocked() {
	active := filepath.Join(s.dir, activeName)
	if err := os.Rename(active, filepath.Join(s.dir, segName(s.sealed+1))); err != nil {
		return
	}
	s.sealed++
	f, err := os.OpenFile(active, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// No fresh active file could be made: undo the rename so the file
		// the store keeps appending to is still the active tail (only the
		// active file may ever hold a torn record), and retry the whole
		// rotation on a later batch. If even the rename-back fails, keep
		// appending through the open fd to the sealed name — it is the
		// highest-numbered segment and there is no active file, so replay
		// order and sequence continuity still hold.
		if rerr := os.Rename(filepath.Join(s.dir, segName(s.sealed)), active); rerr == nil {
			s.sealed--
		}
		SyncDir(s.dir)
		return
	}
	old := s.f
	s.f, s.size = f, 0
	old.Close()
	SyncDir(s.dir)
}

// Replay implements Store: stream every record from disk, strictly — the
// store repaired any legitimate torn tail at open, so a failing checksum
// during replay is corruption and surfaces as a *CorruptError naming the
// file.
func (s *DiskStore) Replay(fn func(*Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := sealedSegments(s.dir)
	if err != nil {
		return err
	}
	segs = append(segs, filepath.Join(s.dir, activeName))
	for _, path := range segs {
		if _, good, torn, err := scanFile(path, fn); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		} else if torn {
			// The store repaired any legitimate torn active tail at open, so
			// a failing tail record now — sealed or active — is damage.
			return &CorruptError{Path: path, Offset: good,
				Reason: "torn or checksum-failing record at the file tail"}
		}
	}
	return nil
}

// Close implements Store.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// ReadStats summarizes an offline ReadDir pass.
type ReadStats struct {
	Records  uint64
	Segments int
	// TornTail reports a partial trailing record in the active file that
	// the read-only pass skipped (a concurrently running server may be
	// mid-append; its own recovery or fsync will resolve it).
	TornTail bool
}

// ReadDir is the read-only replay used by the offline auditor
// (cmd/mrverify): it never truncates or repairs, tolerates a torn tail in
// the active file (skipping it), and reports strict corruption everywhere
// else. Safe to run against a live server's ledger directory.
func ReadDir(dir string, fn func(*Record) error) (ReadStats, error) {
	var stats ReadStats
	segs, err := sealedSegments(dir)
	if err != nil {
		return stats, err
	}
	for _, path := range segs {
		n, good, torn, err := scanFile(path, fn)
		if err != nil {
			return stats, err
		}
		if torn {
			return stats, &CorruptError{Path: path, Offset: good,
				Reason: "sealed segment ends in a torn or checksum-failing record"}
		}
		stats.Records += n
	}
	stats.Segments = len(segs)
	n, _, torn, err := scanFile(filepath.Join(dir, activeName), fn)
	if err != nil && !os.IsNotExist(err) {
		return stats, err
	}
	stats.Records += n
	stats.TornTail = torn
	return stats, nil
}

// appendRecord encodes one record frame onto buf.
func appendRecord(buf []byte, r *Record) []byte {
	bodyLen := recordOverhead - 8 + len(r.Key) + len(r.Payload)
	start := len(buf)
	buf = append(buf, make([]byte, 8)...) // crc + len, patched below
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Time))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
	buf = append(buf, r.Key...)
	buf = append(buf, r.Payload...)
	buf = append(buf, r.ResultHash[:]...)
	buf = append(buf, r.MetricsHash[:]...)
	buf = append(buf, r.Link[:]...)
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(body)))
	if len(body) != bodyLen {
		panic("ledger: record encoding drifted from recordOverhead")
	}
	return buf
}

// scanFile parses every record frame in path with scanBytes.
func scanFile(path string, fn func(*Record) error) (n uint64, good int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	return scanBytes(data, path, fn)
}

// scanBytes parses every record frame in data, the contents of the segment
// file path, calling fn (when non-nil) for each. Returns the count, the byte
// offset after the last whole valid record, and whether the file ends in a
// torn record: one whose frame runs past EOF, or whose checksum fails with
// no valid data after it. A checksum failure that is NOT at the physical
// tail is corruption and returns a *CorruptError naming path instead.
func scanBytes(data []byte, path string, fn func(*Record) error) (n uint64, good int64, torn bool, err error) {
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return n, off, true, nil
		}
		crc := binary.LittleEndian.Uint32(rest)
		bodyLen := int64(binary.LittleEndian.Uint32(rest[4:]))
		if bodyLen > maxBodyBytes || bodyLen < recordOverhead-8 {
			// A garbage length field: indistinguishable from a torn partial
			// header if it is the last thing in the file.
			return n, off, true, nil
		}
		if int64(len(rest)) < 8+bodyLen {
			return n, off, true, nil
		}
		body := rest[8 : 8+bodyLen]
		if crc32.Checksum(body, crcTable) != crc {
			if int64(len(rest)) == 8+bodyLen {
				// The failing record is the physical tail: a torn write.
				return n, off, true, nil
			}
			return n, off, false, &CorruptError{Path: path, Offset: off,
				Reason: "CRC-32C mismatch"}
		}
		rec, derr := decodeBody(body)
		if derr != nil {
			return n, off, false, &CorruptError{Path: path, Offset: off, Reason: derr.Error()}
		}
		if fn != nil {
			if ferr := fn(rec); ferr != nil {
				return n, off, false, ferr
			}
		}
		n++
		off += 8 + bodyLen
	}
	return n, off, false, nil
}

// decodeBody parses a checksum-validated record body.
func decodeBody(body []byte) (*Record, error) {
	r := &Record{}
	r.Seq = binary.LittleEndian.Uint64(body)
	r.Time = int64(binary.LittleEndian.Uint64(body[8:]))
	keyLen := int(binary.LittleEndian.Uint32(body[16:]))
	payLen := int(binary.LittleEndian.Uint32(body[20:]))
	if keyLen < 0 || payLen < 0 || 24+keyLen+payLen+3*HashSize != len(body) {
		return nil, fmt.Errorf("inconsistent key/payload lengths")
	}
	p := 24
	r.Key = string(body[p : p+keyLen])
	p += keyLen
	r.Payload = append([]byte(nil), body[p:p+payLen]...)
	p += payLen
	copy(r.ResultHash[:], body[p:])
	p += HashSize
	copy(r.MetricsHash[:], body[p:])
	p += HashSize
	copy(r.Link[:], body[p:])
	return r, nil
}

// SyncDir fsyncs a directory so a just-renamed or just-created entry
// survives a crash. Best-effort on filesystems that reject directory
// fsync: the error is ignored there, matching common practice.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
