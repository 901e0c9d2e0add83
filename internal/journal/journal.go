package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the per-record framing overhead: u32 payload
// length + u32 CRC-32C.
const frameHeaderSize = 8

// maxFrame bounds a single record payload. Real records are tens to
// hundreds of bytes; a length beyond this can only be corruption.
const maxFrame = 1 << 24

// FsyncMode selects when appends reach stable storage.
type FsyncMode string

const (
	// FsyncAlways syncs after every append: an acknowledged mutation
	// survives power loss, at ~one disk flush per operation.
	FsyncAlways FsyncMode = "always"
	// FsyncInterval syncs on a background ticker. Appends still go
	// straight to the kernel via write(2) — no userspace buffering — so
	// a process crash (SIGKILL) loses nothing; only a whole-machine
	// power cut can lose the last interval's worth.
	FsyncInterval FsyncMode = "interval"
)

// ParseFsyncMode validates a -fsync flag value.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncAlways, FsyncInterval:
		return FsyncMode(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync mode %q (want %q or %q)", s, FsyncAlways, FsyncInterval)
}

// Options configure a Journal.
type Options struct {
	// Fsync is the append durability policy; empty defaults to
	// FsyncAlways.
	Fsync FsyncMode
	// Interval is the background sync period under FsyncInterval;
	// zero defaults to 100ms.
	Interval time.Duration
}

// Stats is a point-in-time snapshot of journal counters, all scoped to
// the current process (recovery totals live in Recovered).
type Stats struct {
	Records              uint64 // records appended
	Bytes                uint64 // frame bytes appended
	Fsyncs               uint64 // File.Sync calls issued
	LastSeq              uint64 // highest sequence number on disk
	SnapshotLSN          uint64 // LSN covered by the latest durable snapshot
	SnapshotBytes        int64  // size of that snapshot file
	SnapshotUnixNano     int64  // wall time the latest snapshot landed (0 = none this process)
	RecordsSinceSnapshot uint64 // journal records not yet covered by a snapshot
}

// Journal is an append-only write-ahead log in one directory:
//
//	snapshot      latest durable snapshot (magic, length, CRC, JSON)
//	wal           records; those with Seq > snapshot LSN are live
//	snapshot.tmp  in-flight snapshot write, ignored by recovery
//
// WriteSnapshot persists the snapshot first and truncates wal after,
// so every crash window leaves either the old state (snapshot + full
// wal) or the new (snapshot covering everything, wal empty or stale
// and skipped by LSN) — never a gap.
//
// Appends go straight to the kernel with one write(2) per record from
// a reused buffer: zero allocations in steady state, and no userspace
// buffer for a SIGKILL to tear.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	buf     []byte
	nextSeq uint64
	dirty   bool // unsynced appends outstanding
	closed  bool
	err     error // sticky write/sync failure; journal refuses further appends

	stats Stats

	// Recovery results from Open, for the owning System to replay.
	recSnap *Snapshot
	recRecs []Record

	stop chan struct{} // closes the interval-sync goroutine
	done chan struct{}

	// syncFn replaces f.Sync in the interval-sync loop when set; tests
	// use it to hold a background sync in flight or make it fail.
	syncFn func() error
}

// Open loads (or creates) the journal directory, recovers its
// contents, and opens the log for appending. A torn final record —
// the one failure a crash mid-append produces — is discarded and
// truncated away; any other inconsistency (zero-length frame, checksum
// mismatch mid-file, sequence gap or duplicate, undecodable payload)
// is a hard error, because silently dropping acknowledged mutations is
// worse than refusing to start. Recovered state is available from
// Recovered until the first Append.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncAlways
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A leftover snapshot.tmp is an abandoned write; the rename never
	// happened, so the durable snapshot (if any) is still authoritative.
	os.Remove(filepath.Join(dir, "snapshot.tmp"))

	snap, snapBytes, err := readSnapshotFile(dir)
	if err != nil {
		return nil, err
	}
	var snapLSN uint64
	if snap != nil {
		snapLSN = snap.LSN
	}

	walPath := filepath.Join(dir, "wal")
	recs, goodLen, torn, err := scanWAL(walPath)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := os.Truncate(walPath, goodLen); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", walPath, err)
		}
	}
	live, lastSeq, err := cutBySnapshot(recs, snapLSN, walPath)
	if err != nil {
		return nil, err
	}

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}

	j := &Journal{
		dir:     dir,
		opts:    opts,
		f:       f,
		nextSeq: lastSeq + 1,
		recSnap: snap,
		recRecs: live,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	j.stats.LastSeq = lastSeq
	j.stats.SnapshotLSN = snapLSN
	j.stats.SnapshotBytes = snapBytes
	j.stats.RecordsSinceSnapshot = uint64(len(live))
	if opts.Fsync == FsyncInterval {
		go j.syncLoop()
	} else {
		close(j.done)
	}
	return j, nil
}

// Recover is the read-only half of Open: it loads the snapshot and
// live records from dir without truncating anything or taking an
// append handle. Tooling and tests use it to inspect a journal a
// (possibly crashed) daemon left behind.
func Recover(dir string) (*Snapshot, []Record, error) {
	snap, _, err := readSnapshotFile(dir)
	if err != nil {
		return nil, nil, err
	}
	var snapLSN uint64
	if snap != nil {
		snapLSN = snap.LSN
	}
	walPath := filepath.Join(dir, "wal")
	recs, _, _, err := scanWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	live, _, err := cutBySnapshot(recs, snapLSN, walPath)
	if err != nil {
		return nil, nil, err
	}
	return snap, live, nil
}

// Recovered returns what Open found on disk: the latest snapshot (nil
// if none) and the journal records newer than it, in log order. The
// slices are owned by the caller.
func (j *Journal) Recovered() (*Snapshot, []Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recSnap, j.recRecs
}

// Append assigns r the next sequence number and writes its frame with
// a single write(2), syncing per the fsync policy. The caller is the
// owning System, already holding its state lock, so journal order is
// the observed linearization order. On error the record is not
// considered durable and the error is sticky: the journal refuses
// further appends rather than let a gap form.
func (j *Journal) Append(r *Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after Close")
	}
	if j.err != nil {
		return fmt.Errorf("journal: log is failed: %w", j.err)
	}
	r.Seq = j.nextSeq

	j.buf = j.buf[:0]
	j.buf = append(j.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	j.buf = appendPayload(j.buf, r)
	payload := j.buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(j.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(j.buf[4:8], crc32.Checksum(payload, crcTable))

	if _, err := j.f.Write(j.buf); err != nil {
		j.err = err
		return fmt.Errorf("journal: append: %w", err)
	}
	if j.opts.Fsync == FsyncAlways {
		if err := j.f.Sync(); err != nil {
			j.err = err
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.stats.Fsyncs++
	} else {
		j.dirty = true
	}
	j.nextSeq++
	j.stats.Records++
	j.stats.Bytes += uint64(len(j.buf))
	j.stats.LastSeq = r.Seq
	j.stats.RecordsSinceSnapshot++
	return nil
}

// WriteSnapshot persists snap and compacts the log. The caller must
// hold the owning System's state lock and pass a snapshot capturing
// exactly the state after the last appended record — snap.LSN must
// equal LastSeq — so that nothing can commit between capture and
// write. The snapshot is fully durable (fsynced, renamed, directory
// synced) before the wal is truncated; a crash at any point leaves a
// recoverable pair.
func (j *Journal) WriteSnapshot(snap *Snapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: snapshot after Close")
	}
	if j.err != nil {
		return fmt.Errorf("journal: log is failed: %w", j.err)
	}
	if last := j.nextSeq - 1; snap.LSN != last {
		return fmt.Errorf("journal: snapshot LSN %d does not cover log end %d", snap.LSN, last)
	}
	// Records the snapshot covers must not outlive it only in the page
	// cache: sync the wal first so the snapshot can never be the sole
	// durable witness of a half-synced log, then write the snapshot,
	// then drop the covered records.
	if j.dirty {
		if err := j.f.Sync(); err != nil {
			j.err = err
			return fmt.Errorf("journal: fsync before snapshot: %w", err)
		}
		j.dirty = false
		j.stats.Fsyncs++
	}
	size, err := writeSnapshotFile(j.dir, snap)
	if err != nil {
		j.err = err
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		// The snapshot is durable and covers everything; a failed
		// truncate only means recovery will skip the stale records.
		// Still, refuse further appends: the append offset is O_APPEND
		// so writes stay consistent, but treat the volume as suspect.
		j.err = err
		return fmt.Errorf("journal: truncating wal after snapshot: %w", err)
	}
	j.stats.SnapshotLSN = snap.LSN
	j.stats.SnapshotBytes = size
	j.stats.SnapshotUnixNano = time.Now().UnixNano()
	j.stats.RecordsSinceSnapshot = 0
	// Recovery data has served its purpose; free it.
	j.recSnap, j.recRecs = nil, nil
	return nil
}

// LastSeq returns the sequence number of the last appended (or
// recovered) record; 0 means the log is empty.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Stats returns current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close syncs outstanding appends and closes the log. It stops and
// joins the interval-sync loop first, so a background sync in flight
// finishes before the final one.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.dirty && j.err == nil {
		err = j.f.Sync()
		j.dirty = false
		j.stats.Fsyncs++
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncLoop flushes dirty appends every opts.Interval under
// FsyncInterval. The lock is held only to read and update state, never
// across the fsync itself: appends arrive under the owning System's
// state lock, and must not wait out the disk.
func (j *Journal) syncLoop() {
	defer close(j.done)
	t := time.NewTicker(j.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.dirty || j.closed || j.err != nil {
				j.mu.Unlock()
				continue
			}
			// Every record below end was written before the sync
			// starts, so the sync makes all of them durable. dirty stays
			// set until then: a WriteSnapshot in the meantime must not
			// take the records for synced.
			end := j.nextSeq
			syncFn := j.syncFn
			j.mu.Unlock()
			if syncFn == nil {
				syncFn = j.f.Sync
			}
			err := syncFn()
			j.mu.Lock()
			if err != nil {
				if j.err == nil {
					j.err = err
				}
			} else {
				j.stats.Fsyncs++
				if j.nextSeq == end {
					j.dirty = false
				}
			}
			j.mu.Unlock()
		}
	}
}

// ScanFile parses one wal file, returning its records in order plus
// each record's end offset in the file (so tests can truncate to an
// exact record boundary). Tolerates a torn final record, reported via
// torn; all other damage is an error.
func ScanFile(path string) (recs []Record, ends []int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	return scanFrames(path, data)
}

// scanWAL reads path (absent = empty) and parses its frames, returning
// the records, the byte length of the intact prefix, and whether a
// torn final record was discarded.
func scanWAL(path string) (recs []Record, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	recs, ends, torn, err := scanFrames(path, data)
	if err != nil {
		return nil, 0, false, err
	}
	if n := len(ends); n > 0 {
		goodLen = ends[n-1]
	}
	return recs, goodLen, torn, nil
}

// scanFrames walks data frame by frame. The tolerance contract lives
// here: a partial frame at end-of-file, or a checksum mismatch on the
// very last frame, is a torn append and is dropped; a zero-length
// frame, a mid-file checksum mismatch, or an undecodable payload is a
// hard error.
func scanFrames(path string, data []byte) (recs []Record, ends []int64, torn bool, err error) {
	off := int64(0)
	n := int64(len(data))
	for off < n {
		if n-off < frameHeaderSize {
			return recs, ends, true, nil // partial header: torn append
		}
		ln := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if ln == 0 {
			return nil, nil, false, fmt.Errorf("journal: %s: zero-length frame at offset %d", path, off)
		}
		if ln > maxFrame {
			return nil, nil, false, fmt.Errorf("journal: %s: implausible frame length %d at offset %d", path, ln, off)
		}
		if n-off-frameHeaderSize < ln {
			return recs, ends, true, nil // partial payload: torn append
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+ln]
		if got := crc32.Checksum(payload, crcTable); got != crc {
			if off+frameHeaderSize+ln == n {
				return recs, ends, true, nil // damaged final frame: torn append
			}
			return nil, nil, false, fmt.Errorf("journal: %s: checksum mismatch at offset %d followed by more data", path, off)
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			return nil, nil, false, fmt.Errorf("journal: %s: offset %d: %w", path, off, derr)
		}
		recs = append(recs, rec)
		off += frameHeaderSize + ln
		ends = append(ends, off)
	}
	return recs, ends, false, nil
}

// cutBySnapshot validates sequence contiguity across recs, checks they
// connect to the snapshot at snapLSN, and returns the live suffix
// (records with Seq > snapLSN) plus the log's end sequence.
func cutBySnapshot(recs []Record, snapLSN uint64, path string) (live []Record, lastSeq uint64, err error) {
	lastSeq = snapLSN
	if len(recs) == 0 {
		return nil, lastSeq, nil
	}
	for i, r := range recs {
		if r.Seq == 0 {
			return nil, 0, fmt.Errorf("journal: %s: record %d has sequence 0", path, i)
		}
		if i > 0 && r.Seq != recs[i-1].Seq+1 {
			if r.Seq <= recs[i-1].Seq {
				return nil, 0, fmt.Errorf("journal: %s: duplicate or regressing sequence %d after %d", path, r.Seq, recs[i-1].Seq)
			}
			return nil, 0, fmt.Errorf("journal: %s: sequence gap: %d after %d", path, r.Seq, recs[i-1].Seq)
		}
	}
	first, end := recs[0].Seq, recs[len(recs)-1].Seq
	if first > snapLSN+1 {
		return nil, 0, fmt.Errorf("journal: %s: first record sequence %d leaves a gap after snapshot LSN %d", path, first, snapLSN)
	}
	if end > snapLSN {
		lastSeq = end
		live = recs[snapLSN+1-first:]
	}
	return live, lastSeq, nil
}
