package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// The store's failpoints, pre-resolved once so consulting them is one
// atomic load. File-level points (<role>.read/.write/.sync) are wired by
// fault.WrapFile at each open site under these role prefixes:
//
//	store.log      — the active append log (any generation)
//	store.ckpt     — checkpoint files (temp during write, final for reads)
//	store.compact  — a compacted log being written
//	store.manifest — the manifest temp file
//
// The commit-step points below cover the renames that publish an artifact;
// the directory fsync that makes a rename durable sits behind store.dirsync,
// which fault.Temp owns.
var (
	fpManifestRename = fault.P("store.manifest.rename")
	fpCkptRename     = fault.P("store.ckpt.rename")
	fpCompactRename  = fault.P("store.compact.rename")
)

// SyncPolicy selects whether a LogStore fsyncs its commits. The two
// policies trade the durability of *acknowledged* mutations for write
// throughput. Neither can make reopen serve wrong or half-applied data:
// recovery either reconstructs a consistent record prefix (truncating a torn
// tail whole) or fails loudly with ErrCorrupt. The difference is what a
// power loss can cost. Under SyncAlways every acknowledged mutation is on
// stable storage, so recovery always succeeds with at most an
// unacknowledged tail lost. Under SyncOff an unsynced tail may vanish — and
// because the OS may write its pages back out of order, a crash can in rare
// cases leave a gap mid-tail, which recovery reports as ErrCorrupt
// (refusing to guess) rather than truncating valid-looking records behind
// it; restore the file or rebuild the index then. fsync is exactly the
// barrier that rules that case out.
type SyncPolicy int

const (
	// SyncAlways fsyncs every commit — each ApplyBatch, of one item or of
	// many — before it is acknowledged, so an acknowledged mutation survives
	// power loss. The zero value.
	SyncAlways SyncPolicy = iota
	// SyncOff never fsyncs; the OS flushes at its leisure. Fastest, and a
	// power loss may drop any recently acknowledged mutations (see the
	// type comment for the recovery contract).
	SyncOff
)

// SyncBatch is the legacy spelling of SyncAlways. It used to fsync group
// commits only and let single-record appends ride the page cache; every
// mutation is a group commit now, so nothing is left for it to skip.
const SyncBatch = SyncAlways

// String names the policy like the fuzzyserve -fsync flag values.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// LogStore is a mutable on-disk store: an append-only log of put and
// tombstone records. It is the write-side counterpart of the immutable
// DiskStore format — where DiskStore finalizes a directory and footer once,
// LogStore recovers its directory by replaying the log on open, so the file
// is always in a servable state, even right after a crash.
//
// File layout (little-endian):
//
//	header:  magic "FZKNNLG1" | version u32 | dims u32
//	record:  kind u8 | length u32 | payload | crc32 u4 (of kind+length+payload)
//
// A put record's payload is a codec record; a tombstone's payload is the
// deleted id (u64). On open, a record cut short at end-of-file is a
// crash tail: it is discarded and the file truncated to the last complete
// record. A full-length record with a bad checksum, or a semantically
// impossible record (duplicate live put, tombstone for a dead id), is
// corruption and surfaces as ErrCorrupt.
//
// Deletes are logical: the payload bytes stay in the file and Get keeps
// serving the most recent tombstoned version of an id, so index snapshots
// taken before a delete still resolve their probes. Checkpoint snapshots
// the live set and CompactLog rewrites the log without dead records (see
// Checkpointer); files they retire stay open until Close so those in-flight
// reads keep resolving.
//
// All methods are safe for concurrent use; appends are serialized, reads use
// positioned I/O.
type LogStore struct {
	mu     sync.RWMutex
	f      fault.File
	path   string // base path; manifest/checkpoint/compacted logs are named after it ("" = anonymous, no checkpoints)
	dims   int
	policy SyncPolicy
	live   map[uint64]dirEntry
	dead   map[uint64]dirEntry // most recent tombstoned version per id
	offset int64               // append position
	failed error               // sticky fail-stop poison (wraps ErrFailed); see failLocked

	ckptMu    sync.Mutex // serializes Checkpoint and CompactLog
	ckptF     fault.File // current checkpoint file (nil when ckptGen == 0)
	ckptGen   uint64
	ckptIDs   map[uint64]struct{} // ids the current checkpoint holds
	ckptBytes int64
	ckptAt    int64        // checkpoint cut time, unix nanos
	logSeq    uint64       // active log sequence (0 = the original path)
	tail      int64        // manifest-bound replay start; earlier bytes are covered by the checkpoint
	retired   []fault.File // superseded files kept open for in-flight readers until Close
	replayed  int          // records replayed at open (reopen-cost diagnostics)
}

const (
	logMagic      = "FZKNNLG1"
	logVersion    = 1
	logHeaderSize = 8 + 4 + 4
	logFrameSize  = 1 + 4 // kind + payload length
	recPut        = byte(1)
	recTombstone  = byte(2)
	recBatch      = byte(3) // group commit: one frame holding many sub-records
)

// A batch record's payload is a count followed by that many sub-records,
// each framed like a top-level record but without its own trailing CRC (the
// outer frame's CRC covers the whole batch):
//
//	payload:     count u32 | sub-record*
//	sub-record:  kind u8 | length u32 | payload
//
// Sub-record kinds are recPut and recTombstone with their usual payloads.
// Because the batch is one record frame, crash-tail truncation drops a torn
// batch whole — a group commit is atomic across power loss by construction.
const (
	batchCountSize   = 4
	minTombstoneSub  = logFrameSize + 8                 // smallest possible sub-record
	minPutPayloadLen = codec.HeaderSize + codec.CRCSize // a put payload cannot be shorter
)

// OpenLogPolicy opens (or creates) a log store at path under an fsync
// policy (see SyncPolicy for the durability tradeoffs; the on-disk format
// is policy-independent, so a log may be reopened under any policy). For a
// new file, dims fixes the store's dimensionality and must be >= 1; for an
// existing file, dims must be 0 or match the file's header. A trailing
// partial record — the signature of a crash mid-append — is truncated
// away; any other inconsistency returns ErrCorrupt.
//
// If a manifest exists next to the log (written by Checkpoint or
// CompactLog), the open loads the checkpoint it binds and replays only the
// log suffix past the checkpoint cut, making reopen cost proportional to
// live data plus writes since the last checkpoint instead of total
// history. Without a manifest the whole log is replayed as before.
func OpenLogPolicy(path string, dims int, policy SyncPolicy) (*LogStore, error) {
	man, err := readManifest(manifestPath(path))
	if err != nil {
		return nil, err
	}
	var s *LogStore
	if man == nil {
		osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		f := fault.WrapFile(osf, "store.log")
		if s, err = openLogFile(f, dims); err != nil {
			f.Close()
			return nil, err
		}
	} else if s, err = openWithManifest(path, dims, man); err != nil {
		return nil, err
	}
	s.path = path
	s.policy = policy
	cleanupLogDebris(path, man)
	return s, nil
}

// openWithManifest restores the (checkpoint, log-suffix) pair a manifest
// binds. The manifest's own commit discipline guarantees that whatever it
// names was fully durable when it was published, so every mismatch here —
// a missing or stale checkpoint, a log shorter than the committed size —
// is corruption, never a crash artifact.
func openWithManifest(path string, dims int, man *logManifest) (*LogStore, error) {
	if dims != 0 && dims != man.dims {
		return nil, fmt.Errorf("store: log manifest dims %d, requested %d", man.dims, dims)
	}
	s := &LogStore{
		path:    path,
		dims:    man.dims,
		live:    make(map[uint64]dirEntry),
		dead:    make(map[uint64]dirEntry),
		ckptGen: man.gen,
		logSeq:  man.logSeq,
		tail:    man.tail,
		ckptAt:  man.created,
	}
	ok := false
	defer func() {
		if !ok {
			if s.ckptF != nil {
				s.ckptF.Close()
			}
			if s.f != nil {
				s.f.Close()
			}
		}
	}()
	if man.gen > 0 {
		if err := s.loadCheckpoint(ckptPath(path, man.gen), man); err != nil {
			return nil, err
		}
	}
	lp := logPathFor(path, man.logSeq)
	osf, err := os.OpenFile(lp, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest names log %s: %v", ErrCorrupt, filepath.Base(lp), err)
	}
	f := fault.WrapFile(osf, "store.log")
	s.f = f
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < man.size {
		return nil, fmt.Errorf("%w: log %s is %d bytes, manifest committed %d (fsync'd data missing)",
			ErrCorrupt, filepath.Base(lp), size, man.size)
	}
	hdims, err := readLogHeader(f)
	if err != nil {
		return nil, err
	}
	if hdims != man.dims {
		return nil, fmt.Errorf("%w: log dims %d, manifest dims %d", ErrCorrupt, hdims, man.dims)
	}
	if err := s.replay(man.tail, size); err != nil {
		return nil, err
	}
	if s.offset < man.size {
		return nil, fmt.Errorf("%w: log recovered to %d bytes, manifest committed %d (fsync'd records lost)",
			ErrCorrupt, s.offset, man.size)
	}
	ok = true
	return s, nil
}

func openLogFile(f fault.File, dims int) (*LogStore, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	s := &LogStore{
		f:    f,
		live: make(map[uint64]dirEntry),
		dead: make(map[uint64]dirEntry),
		tail: logHeaderSize,
	}
	if st.Size() < logHeaderSize {
		// Empty file, or a partial header left by a crash during creation
		// (no record can have been committed): (re-)initialize.
		if dims < 1 {
			return nil, fmt.Errorf("store: creating a log store needs dims >= 1, got %d", dims)
		}
		if st.Size() > 0 {
			if err := f.Truncate(0); err != nil {
				return nil, err
			}
		}
		if _, err := f.WriteAt(logHeader(dims), 0); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		s.dims = dims
		s.offset = logHeaderSize
		return s, nil
	}

	hdims, err := readLogHeader(f)
	if err != nil {
		return nil, err
	}
	s.dims = hdims
	if dims != 0 && dims != s.dims {
		return nil, fmt.Errorf("store: log file dims %d, requested %d", s.dims, dims)
	}
	if err := s.replay(logHeaderSize, st.Size()); err != nil {
		return nil, err
	}
	return s, nil
}

// logHeader renders the fixed log file header.
func logHeader(dims int) []byte {
	hdr := make([]byte, logHeaderSize)
	copy(hdr, logMagic)
	binary.LittleEndian.PutUint32(hdr[8:], logVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(dims))
	return hdr
}

// readLogHeader validates the fixed log file header and returns its dims.
func readLogHeader(f fault.File) (int, error) {
	hdr := make([]byte, logHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, logHeaderSize), hdr); err != nil {
		return 0, fmt.Errorf("%w: unreadable log header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != logMagic {
		return 0, fmt.Errorf("%w: bad log magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != logVersion {
		return 0, fmt.Errorf("%w: unsupported log version %d", ErrCorrupt, v)
	}
	d := int(binary.LittleEndian.Uint32(hdr[12:]))
	if d < 1 {
		return 0, fmt.Errorf("%w: log header dims %d", ErrCorrupt, d)
	}
	return d, nil
}

// replay scans the records in [start, size), rebuilding the live/dead
// directories. A partial record at the very end is a crash tail and gets
// truncated; everything else must be coherent. Before trusting an apparent
// crash tail, the frame is cross-checked against its own payload (see
// checkTailPlausible) so a corrupted length field cannot masquerade as a
// crash and destroy the valid records behind it. One read buffer is reused
// across records, so replay cost is I/O plus directory inserts — not one
// allocation per historical record.
func (s *LogStore) replay(start, size int64) error {
	pos := start
	frame := make([]byte, logFrameSize)
	var buf []byte
	for pos < size {
		if size-pos < logFrameSize {
			// Less than one frame header: cannot hide a valid record.
			return s.truncateTail(pos)
		}
		if _, err := s.f.ReadAt(frame, pos); err != nil {
			return fmt.Errorf("%w: unreadable record frame: %v", ErrCorrupt, err)
		}
		kind := frame[0]
		length := int64(binary.LittleEndian.Uint32(frame[1:]))
		if kind != recPut && kind != recTombstone && kind != recBatch {
			return fmt.Errorf("%w: unknown record kind %d at offset %d", ErrCorrupt, kind, pos)
		}
		if size-pos < logFrameSize+length+4 {
			if err := s.checkTailPlausible(kind, length, pos, size); err != nil {
				return err
			}
			return s.truncateTail(pos)
		}
		need := logFrameSize + length + 4
		if int64(cap(buf)) < need {
			buf = make([]byte, need, need+need/2)
		}
		buf = buf[:need]
		if _, err := s.f.ReadAt(buf, pos); err != nil {
			return fmt.Errorf("%w: unreadable record: %v", ErrCorrupt, err)
		}
		body, crcB := buf[:len(buf)-4], buf[len(buf)-4:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcB) {
			return fmt.Errorf("%w: log record checksum mismatch at offset %d", ErrCorrupt, pos)
		}
		payload := body[logFrameSize:]
		switch kind {
		case recPut:
			if err := s.applyPut(payload, pos+logFrameSize, pos); err != nil {
				return err
			}
		case recTombstone:
			if err := s.applyTombstone(payload, pos); err != nil {
				return err
			}
		case recBatch:
			if err := s.applyBatchPayload(payload, pos+logFrameSize, pos); err != nil {
				return err
			}
		}
		s.replayed++
		pos += logFrameSize + length + 4
	}
	s.offset = pos
	return nil
}

// applyPut replays one put payload located at filePos (for the directory
// entry); recPos is the owning record's offset, used in error messages only.
func (s *LogStore) applyPut(payload []byte, filePos, recPos int64) error {
	// The frame CRC guarantees byte integrity; validate the record's shape
	// without materializing the object (Get decodes on demand).
	id, err := putShape(payload, int64(len(payload)), s.dims)
	if err != nil {
		return fmt.Errorf("%w: put record at offset %d: %v", ErrCorrupt, recPos, err)
	}
	if _, isLive := s.live[id]; isLive {
		return fmt.Errorf("%w: duplicate live put for id %d at offset %d", ErrCorrupt, id, recPos)
	}
	s.live[id] = dirEntry{id: id, offset: uint64(filePos), length: uint64(len(payload))}
	return nil
}

// applyTombstone replays one tombstone payload.
func (s *LogStore) applyTombstone(payload []byte, recPos int64) error {
	if len(payload) != 8 {
		return fmt.Errorf("%w: tombstone length %d at offset %d", ErrCorrupt, len(payload), recPos)
	}
	id := binary.LittleEndian.Uint64(payload)
	e, isLive := s.live[id]
	if !isLive {
		return fmt.Errorf("%w: tombstone for non-live id %d at offset %d", ErrCorrupt, id, recPos)
	}
	delete(s.live, id)
	s.dead[id] = e
	return nil
}

// applyBatchPayload replays one group-commit record: count, then that many
// framed sub-records applied in order. The outer frame's CRC already
// guarantees the bytes, so any structural inconsistency here is corruption,
// never a crash tail (torn batches are caught at the frame level and
// dropped whole).
func (s *LogStore) applyBatchPayload(payload []byte, filePos, recPos int64) error {
	if len(payload) < batchCountSize {
		return fmt.Errorf("%w: batch record shorter than its count at offset %d", ErrCorrupt, recPos)
	}
	count := binary.LittleEndian.Uint32(payload)
	if count == 0 {
		return fmt.Errorf("%w: empty batch record at offset %d", ErrCorrupt, recPos)
	}
	pos := batchCountSize
	for i := uint32(0); i < count; i++ {
		if len(payload)-pos < logFrameSize {
			return fmt.Errorf("%w: batch record at offset %d truncates sub-record %d", ErrCorrupt, recPos, i)
		}
		kind := payload[pos]
		length := int(binary.LittleEndian.Uint32(payload[pos+1:]))
		sub := pos + logFrameSize
		if length < 0 || len(payload)-sub < length {
			return fmt.Errorf("%w: batch record at offset %d: sub-record %d overruns the frame", ErrCorrupt, recPos, i)
		}
		switch kind {
		case recPut:
			if err := s.applyPut(payload[sub:sub+length], filePos+int64(sub), recPos); err != nil {
				return err
			}
		case recTombstone:
			if err := s.applyTombstone(payload[sub:sub+length], recPos); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: batch record at offset %d: sub-record kind %d", ErrCorrupt, recPos, kind)
		}
		pos = sub + length
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: batch record at offset %d carries %d trailing bytes", ErrCorrupt, recPos, len(payload)-pos)
	}
	return nil
}

// putShape validates a put payload from its header alone (hdr holds at
// least its first codec.HeaderSize bytes): the object's own n and d must
// account for exactly the length the enclosing frame claims, at the store's
// dimensionality. It neither allocates nor verifies the record's CRC — the
// enclosing frame's CRC already guarantees the bytes.
func putShape(hdr []byte, length int64, dims int) (id uint64, err error) {
	id, _, d, err := codec.Shape(hdr, int(length)-codec.CRCSize)
	if err == nil && d != dims {
		err = fmt.Errorf("record dims %d, store dims %d", d, dims)
	}
	return id, err
}

// checkTailPlausible decides whether a record extending past end-of-file
// is a genuine crash tail (truncation-safe) or evidence of a corrupted
// length field (which must NOT be truncated — the bytes behind it may be
// valid, fsync'd records). A crashed append leaves a prefix of the record
// that was being written, so whatever payload bytes are present must be
// internally consistent with the frame's claimed length. For a batch frame
// (one group commit, many sub-records) the surviving prefix is walked
// sub-record by sub-record and every complete sub-frame must itself be
// plausible — a single corrupt byte in a length field anywhere in the chain
// refuses truncation instead of destroying the fsync'd records behind it.
func (s *LogStore) checkTailPlausible(kind byte, length, pos, size int64) error {
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s at offset %d (refusing to truncate)",
			ErrCorrupt, fmt.Sprintf(format, args...), pos)
	}
	switch kind {
	case recTombstone:
		if length != 8 {
			return refuse("tombstone length %d", length)
		}
		return nil
	case recPut:
		if length < minPutPayloadLen {
			return refuse("put length %d", length)
		}
		// With the object header on disk we can read the record's own n and
		// d and check them against the claimed length; a mismatch means the
		// frame's length field is corrupt, not that the write was cut off.
		if size-pos < logFrameSize+codec.HeaderSize {
			return nil // too little survived to judge; bounded loss, truncate
		}
		hdr := make([]byte, codec.HeaderSize)
		if _, err := s.f.ReadAt(hdr, pos+logFrameSize); err != nil {
			return fmt.Errorf("%w: unreadable tail record: %v", ErrCorrupt, err)
		}
		if _, err := putShape(hdr, length, s.dims); err != nil {
			return refuse("tail record length %d: %v", length, err)
		}
		return nil
	case recBatch:
		if length < batchCountSize+minTombstoneSub {
			return refuse("batch length %d below the smallest possible group", length)
		}
		avail := size - pos - logFrameSize // payload bytes that survived
		if avail > length {
			avail = length // ignore stray bytes of the torn trailing CRC
		}
		if avail < batchCountSize {
			return nil // too little survived to judge; bounded loss, truncate
		}
		buf := make([]byte, avail)
		if _, err := s.f.ReadAt(buf, pos+logFrameSize); err != nil {
			return fmt.Errorf("%w: unreadable tail record: %v", ErrCorrupt, err)
		}
		count := int64(binary.LittleEndian.Uint32(buf))
		if count == 0 || batchCountSize+count*minTombstoneSub > length {
			return refuse("batch count %d impossible for length %d", count, length)
		}
		var walked int64
		subPos := int64(batchCountSize)
		for subPos < avail {
			if walked == count {
				// Every claimed sub-record has been walked, so the payload
				// must end exactly here; a longer claimed length means the
				// frame's length field is corrupt, not torn.
				if subPos != length {
					return refuse("batch length %d but its %d sub-records end at %d", length, count, subPos)
				}
				break // the remaining bytes are the torn trailing CRC
			}
			if avail-subPos < logFrameSize {
				return nil // cut mid sub-frame header: consistent crash tail
			}
			subKind := buf[subPos]
			subLen := int64(binary.LittleEndian.Uint32(buf[subPos+1:]))
			switch subKind {
			case recTombstone:
				if subLen != 8 {
					return refuse("batch sub-record %d tombstone length %d", walked, subLen)
				}
			case recPut:
				if subLen < minPutPayloadLen {
					return refuse("batch sub-record %d put length %d", walked, subLen)
				}
				if avail-subPos-logFrameSize >= codec.HeaderSize {
					if _, err := putShape(buf[subPos+logFrameSize:], subLen, s.dims); err != nil {
						return refuse("batch sub-record %d length %d: %v", walked, subLen, err)
					}
				}
			default:
				return refuse("batch sub-record %d kind %d", walked, subKind)
			}
			walked++
			subPos += logFrameSize + subLen
			if subPos > length {
				return refuse("batch sub-records overrun the frame length %d", length)
			}
		}
		if avail == length && (subPos != length || walked != count) {
			return refuse("batch payload inconsistent with count %d", count)
		}
		return nil
	}
	return nil
}

// truncateTail discards a partial trailing record left by a crash.
func (s *LogStore) truncateTail(pos int64) error {
	if err := s.f.Truncate(pos); err != nil {
		return err
	}
	s.offset = pos
	return nil
}

// appendFrame appends one log record — kind | length | payload | crc — to
// buf.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// writeRecord lands one framed record at the append position, fsyncing it
// unless the policy is SyncOff — without the fsync a power loss could
// silently drop an acknowledged commit (reopen would truncate it as a crash
// tail) — and advances the position only on success. Any failure
// fail-stops the store (see failLocked): a short or torn write leaves
// garbage at the tail that a full-length reopen scan could mistake for
// corruption, and a failed fsync means the page cache may already have
// dropped acknowledged bytes — in both cases continuing to acknowledge
// writes would be lying about durability.
func (s *LogStore) writeRecord(buf []byte) error {
	if _, err := s.f.WriteAt(buf, s.offset); err != nil {
		return s.failLocked("log append", err)
	}
	if s.policy != SyncOff {
		if err := s.f.Sync(); err != nil {
			return s.failLocked("log fsync", err)
		}
	}
	s.offset += int64(len(buf))
	return nil
}

// failLocked poisons the store after an I/O failure on the active log:
// the first caller records a sticky error wrapping ErrFailed and makes a
// best-effort truncate back to the acknowledged append position, so the
// on-disk file holds exactly the pre-failure record prefix (a torn write
// must not leave bytes a reopen would have to interpret). Every later
// mutation returns the recorded error unchanged. Callers hold s.mu.
func (s *LogStore) failLocked(op string, cause error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("%w: %s: %w", ErrFailed, op, cause)
		// Best effort — if even the truncate fails, reopen's tail scan is
		// the backstop, and it may (correctly, loudly) refuse the garbage.
		s.f.Truncate(s.offset)
	}
	return s.failed
}

// Failed reports the sticky fail-stop error, nil while healthy.
func (s *LogStore) Failed() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failed
}

// fileFor resolves the file backing an entry's payload — the active log,
// the checkpoint, or a retired handle. Call with s.mu held (either mode).
func (s *LogStore) fileFor(e dirEntry) fault.File {
	if e.src != nil {
		return e.src
	}
	return s.f
}

// Get implements Reader. The most recent version of a tombstoned id remains
// readable (see the type comment). The entry and its backing file are
// captured together under the lock: a concurrent Checkpoint or CompactLog
// may swap the active files, but the captured handle stays open (retired,
// not closed) until Close, so the positioned read below stays valid.
func (s *LogStore) Get(id uint64) (*fuzzy.Object, error) {
	s.mu.RLock()
	e, ok := s.live[id]
	if !ok {
		e, ok = s.dead[id]
	}
	f := s.fileFor(e)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return readObject(f, e, s.dims)
}

// IDs implements Reader; like MemStore's, assembled per call.
func (s *LogStore) IDs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Sorted(maps.Keys(s.live))
}

// Len implements Reader.
func (s *LogStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.live)
}

// Dims implements Reader.
func (s *LogStore) Dims() int { return s.dims }

// Live implements LivenessChecker.
func (s *LogStore) Live(id uint64) (bool, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, isLive := s.live[id]
	return isLive, true
}

// ApplyBatch implements Mutator: the whole batch — puts first, then
// tombstones — is encoded into ONE record frame, landed with one write and
// (policy permitting) one fsync. Because the group is a single record
// frame, a crash mid-write tears the batch as a unit: reopen drops the
// partial frame whole and every previously fsync'd record survives, so a
// group commit is atomic across power loss.
//
// A group of several items is a batch record. A group of one is the plain
// put or tombstone record — a sub-record closed by its own CRC instead of
// the batch's — which replay must decode anyway (older files, every
// compacted log), so a lone insert or delete costs no batch header.
func (s *LogStore) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	n := len(inserts) + len(deletes)
	if n == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if _, err := validateBatch(inserts, deletes, s.dims, func(id uint64) bool {
		_, isLive := s.live[id]
		return isLive
	}); err != nil {
		return err
	}

	payloadSize := batchCountSize + (logFrameSize+8)*len(deletes)
	for _, o := range inserts {
		payloadSize += logFrameSize + codec.Size(o) + codec.CRCSize
	}
	if uint64(payloadSize) > uint64(^uint32(0)) {
		return fmt.Errorf("store: batch payload %d bytes exceeds the record frame limit", payloadSize)
	}
	buf := make([]byte, 0, logFrameSize+payloadSize+4)
	if n > 1 {
		buf = append(buf, recBatch)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadSize))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	entries := make([]dirEntry, len(inserts))
	for i, o := range inserts {
		size := codec.Size(o) + codec.CRCSize
		buf = append(buf, recPut)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
		entries[i] = dirEntry{id: o.ID(), offset: uint64(s.offset + int64(len(buf))), length: uint64(size)}
		buf = codec.AppendRecord(buf, o)
	}
	for _, id := range deletes {
		buf = append(buf, recTombstone)
		buf = binary.LittleEndian.AppendUint32(buf, 8)
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := s.writeRecord(buf); err != nil {
		return err
	}
	for _, e := range entries {
		s.live[e.id] = e
	}
	for _, id := range deletes {
		e := s.live[id]
		delete(s.live, id)
		s.dead[id] = e
	}
	return nil
}

// Sync flushes the file to stable storage. Under SyncAlways every commit
// already syncs itself and this is defense in depth; under SyncOff it is
// how a caller forces accumulated commits down before an external
// checkpoint.
func (s *LogStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if err := s.f.Sync(); err != nil {
		return s.failLocked("log fsync", err)
	}
	return nil
}

// Close releases the log, the checkpoint, and every retired file handle.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.f.Close()
	if s.ckptF != nil {
		if cerr := s.ckptF.Close(); err == nil {
			err = cerr
		}
	}
	for _, f := range s.retired {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	s.retired = nil
	return err
}
