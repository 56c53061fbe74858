package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fault"
)

// ErrUnsupported is returned for checkpoint operations on stores that have
// no durable log to checkpoint (in-memory or immutable stores).
var ErrUnsupported = errors.New("store: operation unsupported")

// CheckpointInfo describes a log store's durable checkpoint state.
type CheckpointInfo struct {
	Generation uint64    // checkpoint generation; 0 means no checkpoint yet
	Objects    int       // live objects the checkpoint holds
	Bytes      int64     // checkpoint file size
	LogSeq     uint64    // active log sequence (0 = the original log file)
	LogBytes   int64     // active log size (the append position)
	TailBytes  int64     // log bytes past the checkpoint cut that reopen must replay
	CreatedAt  time.Time // when the checkpoint was cut; zero when Generation == 0
}

// Checkpointer is implemented by stores that can cut durable checkpoints of
// their live set, so reopen cost is proportional to live data, not total
// history.
type Checkpointer interface {
	// Checkpoint atomically writes a snapshot of all live objects, moves
	// the log records written since into a fresh log and commits a
	// manifest binding the two. The writer stays live throughout.
	Checkpoint() (CheckpointInfo, error)
	// CheckpointInfo reports the current checkpoint state. The bool is
	// false when the underlying store cannot checkpoint at all.
	CheckpointInfo() (CheckpointInfo, bool)
}

// Manifest file layout (little-endian, fixed size):
//
//	magic "FZKNNMF1" | version u32 | dims u32 | gen u64 | objects u64 |
//	logSeq u64 | logTail u64 | logSize u64 | createdUnixNano u64 | crc32 u4
//
// The manifest crash-safely binds the (checkpoint, log) pair: reopen loads
// checkpoint generation gen, opens log file logSeq, and replays only the
// records in [logTail, end). It is always published with temp file + fsync
// + rename (+ directory fsync), so the path atomically holds either the
// old manifest or the new one — a torn manifest is therefore never a crash
// artifact and is refused as ErrCorrupt, the manifest's analogue of the
// log's refuse-to-truncate rule. logSize records how much of the log was
// fsync'd at commit time: recovering less than that means durable records
// were lost (a torn log, a rolled-back file system), which is
// likewise refused rather than silently truncated.
const (
	manifestMagic   = "FZKNNMF1"
	manifestVersion = 1
	manifestSize    = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4
)

type logManifest struct {
	dims    int
	gen     uint64 // checkpoint generation (0 = none: the log alone is the state)
	objects uint64 // object count the checkpoint must contain
	logSeq  uint64 // active log file (0 = the base path, else path.log-<seq>)
	tail    int64  // replay starts here; earlier bytes are covered by the checkpoint
	size    int64  // log size at commit, all of it fsync'd
	created int64  // unix nanos of the checkpoint cut
}

func manifestPath(path string) string { return path + ".manifest" }

func ckptPath(path string, gen uint64) string {
	return fmt.Sprintf("%s.ckpt-%d", path, gen)
}

// logPathFor names the active log file: a checkpoint never rewrites a log in
// place, it publishes a new generation under the next sequence number and
// lets the manifest name the winner (two files cannot be swapped in one
// atomic step, but one rename of the manifest commits both).
func logPathFor(path string, seq uint64) string {
	if seq == 0 {
		return path
	}
	return fmt.Sprintf("%s.log-%d", path, seq)
}

func encodeManifest(m *logManifest) []byte {
	buf := make([]byte, manifestSize)
	copy(buf, manifestMagic)
	binary.LittleEndian.PutUint32(buf[8:], manifestVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.dims))
	binary.LittleEndian.PutUint64(buf[16:], m.gen)
	binary.LittleEndian.PutUint64(buf[24:], m.objects)
	binary.LittleEndian.PutUint64(buf[32:], m.logSeq)
	binary.LittleEndian.PutUint64(buf[40:], uint64(m.tail))
	binary.LittleEndian.PutUint64(buf[48:], uint64(m.size))
	binary.LittleEndian.PutUint64(buf[56:], uint64(m.created))
	binary.LittleEndian.PutUint32(buf[64:], crc32.ChecksumIEEE(buf[:manifestSize-4]))
	return buf
}

// readManifest loads and validates path's manifest. A missing manifest is
// not an error — (nil, nil) means the store opens in the single-log layout
// that predates checkpoints. Anything else wrong is ErrCorrupt (see the
// format comment for why a torn manifest cannot be a crash artifact).
func readManifest(path string) (*logManifest, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(buf) != manifestSize {
		return nil, fmt.Errorf("%w: manifest is %d bytes, want %d", ErrCorrupt, len(buf), manifestSize)
	}
	if string(buf[:8]) != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(buf[:manifestSize-4]) != binary.LittleEndian.Uint32(buf[manifestSize-4:]) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, v)
	}
	m := &logManifest{
		dims:    int(binary.LittleEndian.Uint32(buf[12:])),
		gen:     binary.LittleEndian.Uint64(buf[16:]),
		objects: binary.LittleEndian.Uint64(buf[24:]),
		logSeq:  binary.LittleEndian.Uint64(buf[32:]),
		tail:    int64(binary.LittleEndian.Uint64(buf[40:])),
		size:    int64(binary.LittleEndian.Uint64(buf[48:])),
		created: int64(binary.LittleEndian.Uint64(buf[56:])),
	}
	// Plausibility rules, mirroring the log's tail checks: refuse field
	// combinations no commit could have produced.
	if m.dims < 1 {
		return nil, fmt.Errorf("%w: manifest dims %d", ErrCorrupt, m.dims)
	}
	if m.tail < logHeaderSize || m.size < m.tail {
		return nil, fmt.Errorf("%w: manifest log tail %d / size %d implausible", ErrCorrupt, m.tail, m.size)
	}
	if m.gen == 0 && (m.objects != 0 || m.tail != logHeaderSize) {
		return nil, fmt.Errorf("%w: manifest has no checkpoint but binds tail %d / %d objects", ErrCorrupt, m.tail, m.objects)
	}
	return m, nil
}

// Checkpoint file layout (little-endian):
//
//	header:  magic "FZKNNCK1" | version u32 | dims u32 | gen u64 | count u64
//	record:  length u32 | codec record (count times, sorted by id)
//	footer:  crc32 u4 of every preceding byte
//
// The embedded generation must match the manifest that names the file —
// that is what catches a stale checkpoint (say, restored from a backup)
// paired with a newer manifest. The whole-file CRC means a truncated or
// bit-flipped snapshot is detected before a single entry is trusted.
const (
	ckptMagic      = "FZKNNCK1"
	ckptVersion    = 1
	ckptHeaderSize = 8 + 4 + 4 + 8 + 8
)

// ckptSource pairs a directory entry with the file its payload currently
// lives in, captured together under the lock so the pair stays coherent
// after the lock is dropped.
type ckptSource struct {
	e dirEntry
	f fault.File
}

// read fetches the source's record into buf (grown when too small) and
// checks its embedded CRC before it lands in a new artifact, so a read that
// silently returned corrupt bytes (bit rot, a lying disk) cannot be
// laundered into a freshly checksummed checkpoint.
func (src ckptSource) read(buf []byte) ([]byte, error) {
	if uint64(cap(buf)) < src.e.length {
		buf = make([]byte, src.e.length)
	}
	buf = buf[:src.e.length]
	if _, err := src.f.ReadAt(buf, int64(src.e.offset)); err != nil {
		return nil, fmt.Errorf("store: copy of object %d: %w", src.e.id, err)
	}
	if err := codec.VerifyRecord(buf); err != nil {
		return nil, fmt.Errorf("%w: object %d failed its embedded checksum during copy: %v", ErrCorrupt, src.e.id, err)
	}
	return buf, nil
}

// publishArtifact streams a checkpoint or a log generation to path through a
// 1 MiB buffer and publishes it atomically (see fault.Temp). Neither is
// referenced until a manifest names it, so a rename whose directory fsync
// failed is dropped again — the clean abort.
func publishArtifact(path, role string, rename *fault.Point, write func(w *bufio.Writer) error) error {
	committed, err := fault.Publish(path, role, rename, func(f fault.File) error {
		w := bufio.NewWriterSize(f, 1<<20)
		if err := write(w); err != nil {
			return err
		}
		return w.Flush()
	})
	if committed && err != nil {
		os.Remove(path)
	}
	return err
}

// writeCheckpoint publishes a snapshot of srcs at path, returning each
// record's payload offset and the final size.
func writeCheckpoint(path string, dims int, gen uint64, srcs []ckptSource) (offsets []int64, size int64, err error) {
	offsets = make([]int64, len(srcs))
	pos := int64(ckptHeaderSize)
	err = publishArtifact(path, "store.ckpt", fpCkptRename, func(bw *bufio.Writer) error {
		crc := crc32.NewIEEE()
		w := io.MultiWriter(bw, crc)
		hdr := make([]byte, ckptHeaderSize)
		copy(hdr, ckptMagic)
		binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(dims))
		binary.LittleEndian.PutUint64(hdr[16:], gen)
		binary.LittleEndian.PutUint64(hdr[24:], uint64(len(srcs)))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		var frame [4]byte
		var payload []byte
		for i, src := range srcs {
			var err error
			if payload, err = src.read(payload); err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
			if _, err := w.Write(frame[:]); err != nil {
				return err
			}
			if _, err := w.Write(payload); err != nil {
				return err
			}
			offsets[i] = pos + 4
			pos += 4 + int64(len(payload))
		}
		binary.LittleEndian.PutUint32(frame[:], crc.Sum32())
		_, err := bw.Write(frame[:]) // the footer is outside its own CRC
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return offsets, pos + 4, nil
}

// loadCheckpoint opens the checkpoint the manifest binds and fills the live
// directory from it, in one sequential CRC-verified pass. Every structural
// violation — wrong generation, wrong count, implausible record shape,
// truncation, checksum mismatch — is ErrCorrupt: checkpoints are published
// atomically, so unlike a log they have no legitimate torn state.
func (s *LogStore) loadCheckpoint(path string, man *logManifest) error {
	osf, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: manifest names checkpoint %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	f := fault.WrapFile(osf, "store.ckpt")
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < ckptHeaderSize+4 {
		return fmt.Errorf("%w: checkpoint is %d bytes, shorter than its header", ErrCorrupt, size)
	}
	crc := crc32.NewIEEE()
	r := io.TeeReader(bufio.NewReaderSize(io.NewSectionReader(f, 0, size-4), 1<<20), crc)

	hdr := make([]byte, ckptHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("%w: unreadable checkpoint header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != ckptMagic {
		return fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != ckptVersion {
		return fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorrupt, v)
	}
	if d := int(binary.LittleEndian.Uint32(hdr[12:])); d != man.dims {
		return fmt.Errorf("%w: checkpoint dims %d, manifest dims %d", ErrCorrupt, d, man.dims)
	}
	if g := binary.LittleEndian.Uint64(hdr[16:]); g != man.gen {
		return fmt.Errorf("%w: checkpoint generation %d, manifest expects %d (stale snapshot)", ErrCorrupt, g, man.gen)
	}
	count := binary.LittleEndian.Uint64(hdr[24:])
	if count != man.objects {
		return fmt.Errorf("%w: checkpoint holds %d objects, manifest expects %d", ErrCorrupt, count, man.objects)
	}
	if count > uint64(size)/(4+minPutPayloadLen)+1 {
		return fmt.Errorf("%w: checkpoint count %d impossible for %d bytes", ErrCorrupt, count, size)
	}

	entries := make(map[uint64]dirEntry, count)
	pos := int64(ckptHeaderSize)
	var prefix [4 + codec.HeaderSize]byte // record length + the payload's own id/n/d header
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			return fmt.Errorf("%w: checkpoint record %d truncated: %v", ErrCorrupt, i, err)
		}
		length := int64(binary.LittleEndian.Uint32(prefix[:]))
		if length < minPutPayloadLen || pos+4+length > size-4 {
			return fmt.Errorf("%w: checkpoint record %d length %d overruns the file", ErrCorrupt, i, length)
		}
		id, err := putShape(prefix[4:], length, man.dims)
		if err != nil {
			return fmt.Errorf("%w: checkpoint record %d length %d: %v", ErrCorrupt, i, length, err)
		}
		if _, dup := entries[id]; dup {
			return fmt.Errorf("%w: duplicate id %d in checkpoint", ErrCorrupt, id)
		}
		entries[id] = dirEntry{id: id, offset: uint64(pos + 4), length: uint64(length), src: f}
		if _, err := io.CopyN(io.Discard, r, length-codec.HeaderSize); err != nil {
			return fmt.Errorf("%w: checkpoint record %d truncated: %v", ErrCorrupt, i, err)
		}
		pos += 4 + length
	}
	if pos != size-4 {
		return fmt.Errorf("%w: checkpoint carries %d trailing bytes", ErrCorrupt, size-4-pos)
	}
	var foot [4]byte
	if _, err := f.ReadAt(foot[:], size-4); err != nil {
		return fmt.Errorf("%w: unreadable checkpoint footer: %v", ErrCorrupt, err)
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(foot[:]) {
		return fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}

	for id, e := range entries {
		s.live[id] = e
	}
	s.ckptObjects = len(entries)
	s.ckptF = f
	s.ckptBytes = size
	ok = true
	return nil
}

// commitManifestLocked publishes man as the store's manifest — the commit
// point of Checkpoint. A false committed is a clean abort:
// the previous manifest is intact and the caller drops the artifact it just
// built. True with an error means the manifest renamed but its durability is
// unknowable: the manifest on disk names the new artifacts while memory
// still matches the previous one. Reads stay correct through the handles
// already open, but acknowledging any further write would be acknowledging
// into state the next open may never read — so the store is poisoned and the
// new artifacts stay in place for whichever manifest survives. Callers hold
// s.mu.
func (s *LogStore) commitManifestLocked(man *logManifest) (committed bool, err error) {
	committed, err = fault.Publish(manifestPath(s.path), "store.manifest", fpManifestRename, func(f fault.File) error {
		_, err := f.Write(encodeManifest(man))
		return err
	})
	if committed && err != nil {
		err = s.failLocked("manifest directory fsync", err)
	}
	return committed, err
}

// cleanupLogDebris removes files a crash mid-swap can leave next to the
// store: torn temp files, checkpoints and log generations that were fully
// written but never manifest-committed, and a superseded log the crash
// struck before unlinking. Anything the manifest (or, without one, the
// base log) does not reference is unreachable and safe to drop.
// Best-effort: removal failures are ignored, reopen will retry.
func cleanupLogDebris(path string, man *logManifest) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepCkpt, keepLog := "", base
	if man != nil {
		if man.gen > 0 {
			keepCkpt = filepath.Base(ckptPath(path, man.gen))
		}
		keepLog = filepath.Base(logPathFor(path, man.logSeq))
	}
	for _, de := range names {
		name := de.Name()
		doomed := false
		switch {
		case name == base+".manifest.tmp":
			doomed = true
		case strings.HasPrefix(name, base+".ckpt-"):
			doomed = name != keepCkpt
		case strings.HasPrefix(name, base+".log-"):
			doomed = name != keepLog
		case name == base:
			doomed = man != nil && man.logSeq > 0 // superseded by a later generation
		}
		if doomed {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Checkpoint implements Checkpointer: it cuts a durable snapshot of all
// live objects, moves the log records written since the cut into the next
// log generation and commits one manifest binding the two, so the next open
// loads the snapshot and replays only those records. The writer stays live
// throughout: only the cut (phase 1) and the commit (phase 3) take the store
// lock; the big snapshot write (phase 2) runs lock-free, and anything
// written concurrently lands after the cut and moves with the suffix.
func (s *LogStore) Checkpoint() (CheckpointInfo, error) {
	if s.path == "" {
		return CheckpointInfo{}, fmt.Errorf("%w: anonymous log store cannot checkpoint", ErrUnsupported)
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	p, err := s.snapshot()
	if err != nil {
		return CheckpointInfo{}, err
	}
	return s.commitCheckpoint(p)
}

// pendingCheckpoint is a published snapshot no manifest names yet.
type pendingCheckpoint struct {
	gen     uint64
	cut     int64        // the log offset the snapshot covers
	srcs    []ckptSource // the live set at the cut, sorted by id
	offsets []int64      // each source's payload offset in the snapshot
	size    int64
	f       fault.File // the snapshot, open for reads
}

// snapshot runs the checkpoint's first two phases. Phase 1, the cut,
// captures under the read lock the live directory, the log offset it covers
// and each entry's backing file (payloads may live in the log or in the
// previous checkpoint). Phase 2 streams the snapshot with no lock held.
func (s *LogStore) snapshot() (*pendingCheckpoint, error) {
	s.mu.RLock()
	if err := s.failed; err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	p := &pendingCheckpoint{gen: s.ckptGen + 1, cut: s.offset, srcs: make([]ckptSource, 0, len(s.live))}
	for _, e := range s.live {
		p.srcs = append(p.srcs, ckptSource{e: e, f: s.fileFor(e)})
	}
	s.mu.RUnlock()
	slices.SortFunc(p.srcs, func(a, b ckptSource) int { return cmp.Compare(a.e.id, b.e.id) })

	path := ckptPath(s.path, p.gen)
	var err error
	if p.offsets, p.size, err = writeCheckpoint(path, s.dims, p.gen, p.srcs); err != nil {
		return nil, err
	}
	osf, err := os.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	p.f = fault.WrapFile(osf, "store.ckpt")
	return p, nil
}

// commitCheckpoint is phase 3, under the store lock: it forces the log down,
// copies the records written since the cut into the next log generation,
// publishes the manifest binding {snapshot, that log} and swaps both in.
// Every failure before the manifest rename is a clean abort that drops both
// new files and leaves the previous generation in charge.
func (s *LogStore) commitCheckpoint(p *pendingCheckpoint) (CheckpointInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cpath, lpath := ckptPath(s.path, p.gen), logPathFor(s.path, s.logSeq+1)
	abort := func(err error) (CheckpointInfo, error) {
		p.f.Close()
		os.Remove(cpath)
		return CheckpointInfo{}, err
	}
	if s.failed != nil {
		return abort(s.failed)
	}
	if err := s.f.Sync(); err != nil {
		// The log the suffix is copied from failed its fsync: fsyncgate
		// territory — poison, never acknowledge.
		return abort(s.failLocked("checkpoint log fsync", err))
	}
	if err := publishArtifact(lpath, "store.compact", fpCompactRename, func(w *bufio.Writer) error {
		return s.copySuffix(w, p.cut)
	}); err != nil {
		return abort(err)
	}
	osf, err := os.OpenFile(lpath, os.O_RDWR, 0o644)
	if err != nil {
		os.Remove(lpath)
		return abort(err)
	}
	newLog := fault.WrapFile(osf, "store.log")
	shift := uint64(p.cut - logHeaderSize)
	now := time.Now().UnixNano()
	man := &logManifest{
		dims:    s.dims,
		gen:     p.gen,
		objects: uint64(len(p.srcs)),
		logSeq:  s.logSeq + 1,
		tail:    logHeaderSize,
		size:    s.offset - int64(shift),
		created: now,
	}
	if committed, err := s.commitManifestLocked(man); err != nil {
		newLog.Close()
		if committed {
			p.f.Close()
			return CheckpointInfo{}, err
		}
		os.Remove(lpath)
		return abort(err)
	}
	for i, src := range p.srcs {
		// Rebind only entries the concurrent writer has not touched since
		// the cut; a reinserted id already points at its newer log record.
		if cur, ok := s.live[src.e.id]; ok && cur == src.e {
			s.live[src.e.id] = dirEntry{id: src.e.id, offset: uint64(p.offsets[i]), length: src.e.length, src: p.f}
		}
	}
	// What the live set still holds in the log was written after the cut
	// and moved down by a constant; dead payloads stay readable through the
	// retiring log's handle.
	for id, e := range s.live {
		if e.src == nil {
			e.offset -= shift
			s.live[id] = e
		}
	}
	for id, e := range s.dead {
		if e.src == nil {
			e.src = s.f
			s.dead[id] = e
		}
	}
	// Superseded files: unlink the paths; in-flight readers keep the
	// retired handles until Close.
	os.Remove(logPathFor(s.path, s.logSeq))
	s.retired = append(s.retired, s.f)
	if s.ckptF != nil {
		os.Remove(ckptPath(s.path, s.ckptGen))
		s.retired = append(s.retired, s.ckptF)
	}
	s.f, s.offset, s.logSeq, s.tail = newLog, man.size, man.logSeq, man.tail
	s.ckptF, s.ckptGen, s.ckptObjects, s.ckptBytes, s.ckptAt = p.f, p.gen, len(p.srcs), p.size, now
	return s.checkpointInfoLocked(), nil
}

// copySuffix writes a log header, then the log records in [from, s.offset)
// byte for byte, each checked against its frame CRC first: a bad read
// aborts the checkpoint instead of landing in the only copy of the record
// that survives it. Callers hold s.mu.
func (s *LogStore) copySuffix(w io.Writer, from int64) error {
	if _, err := w.Write(logHeader(s.dims)); err != nil {
		return err
	}
	var frame [logFrameSize]byte
	var rec []byte
	for pos := from; pos < s.offset; pos += int64(len(rec)) {
		if _, err := s.f.ReadAt(frame[:], pos); err != nil {
			return fmt.Errorf("store: copy of the log record at offset %d: %w", pos, err)
		}
		n := logFrameSize + int64(binary.LittleEndian.Uint32(frame[1:])) + 4
		if n > s.offset-pos {
			return fmt.Errorf("%w: the log record at offset %d overruns the log during copy", ErrCorrupt, pos)
		}
		rec = slices.Grow(rec[:0], int(n))[:n]
		if _, err := s.f.ReadAt(rec, pos); err != nil {
			return fmt.Errorf("store: copy of the log record at offset %d: %w", pos, err)
		}
		if crc32.ChecksumIEEE(rec[:n-4]) != binary.LittleEndian.Uint32(rec[n-4:]) {
			return fmt.Errorf("%w: the log record at offset %d failed its checksum during copy", ErrCorrupt, pos)
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *LogStore) checkpointInfoLocked() CheckpointInfo {
	info := CheckpointInfo{
		Generation: s.ckptGen,
		Objects:    s.ckptObjects,
		Bytes:      s.ckptBytes,
		LogSeq:     s.logSeq,
		LogBytes:   s.offset,
		TailBytes:  s.offset - s.tail,
	}
	if s.ckptGen > 0 {
		info.CreatedAt = time.Unix(0, s.ckptAt)
	}
	return info
}

// CheckpointInfo implements Checkpointer.
func (s *LogStore) CheckpointInfo() (CheckpointInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.checkpointInfoLocked(), true
}

// ReplayedRecords reports how many log records the open had to replay —
// the structural measure of reopen cost: after a checkpoint it is the
// number of records appended since the cut, not the full history.
func (s *LogStore) ReplayedRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replayed
}
