// Package store persists fuzzy objects and serves random access to them.
//
// The paper's search algorithms keep only compact per-object summaries in
// the in-memory R-tree and fetch ("probe") full objects from external
// storage when a candidate must be refined. The dominant cost metric of the
// evaluation — the number of object accesses — is the number of Get calls
// against a store, which the Counting wrapper measures.
//
// The on-disk format is a single file: a fixed header, one checksummed
// record per object, a directory of (id, offset, length) triples and a
// footer locating the directory. All integers are little-endian.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// Reader is the read side of an object store. Implementations must be safe
// for concurrent use by multiple goroutines.
type Reader interface {
	// Get returns the object with the given id, or ErrNotFound. Mutable
	// stores retain deleted payloads (see Mutator), so Get may serve an
	// object that a later delete logically removed — this is what lets
	// queries running against an older index snapshot still resolve their
	// probes.
	Get(id uint64) (*fuzzy.Object, error)
	// IDs returns the live object ids in ascending order.
	IDs() []uint64
	// Len returns the number of live objects.
	Len() int
	// Dims returns the dimensionality of stored objects.
	Dims() int
}

// Mutator is the write side of an object store: a Reader that also commits
// groups of mutations. There is one write — ApplyBatch — and a single insert
// or delete is a group of one. Implementations must be safe for concurrent
// use and must retain deleted payloads for Get (deletes are logical —
// tombstones — so snapshot readers keep working). Each id's most recent
// tombstoned payload is kept for the store's lifetime: nothing reclaims it
// before Close.
//
// Caveat of the versionless Get contract: re-inserting a previously
// deleted id makes the new payload the one Get serves. A query whose
// snapshot predates the delete and that races the delete + re-insert pair
// of one id may therefore probe the successor payload and compute its
// distances from it. Callers that need exact historical answers should not
// recycle ids while such queries can be in flight.
type Mutator interface {
	Reader
	// ApplyBatch atomically applies all inserts, then all deletes: either
	// every item takes effect or none does. A batch must be self-consistent:
	// each id may appear at most once across the whole batch, insert ids
	// must not be live (ErrDuplicate), delete ids must be live
	// (ErrNotFound), and dimensionalities must match the store's (an empty
	// store adopts its first object's, and keeps it even across deletion of
	// every object). Implementations validate the entire batch before
	// touching any state and report the first offending item as an
	// *ItemError; a nil error means every item took effect.
	//
	// The point of the shape is group commit: a log-backed store encodes the
	// whole batch into one record frame, issues one write and one fsync,
	// instead of one of each per item.
	ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error
}

// LivenessChecker is an optional store capability: a cheap "is this id
// live?" probe that does not fetch the payload and does not count as an
// object access. Index layers use it to validate whole batches before
// committing anything. ok reports whether the store can answer at all —
// wrappers over stores without liveness return (false, false), which
// callers must treat as "unknown", never as "dead".
type LivenessChecker interface {
	Live(id uint64) (live, ok bool)
}

// ItemError locates the offending item of a rejected batch mutation. The
// batch was not applied — all-or-nothing — and Pos indexes into the
// inserts slice (Delete false) or the deletes slice (Delete true) of the
// ApplyBatch call.
type ItemError struct {
	Delete bool
	Pos    int
	Err    error
}

// Error implements error.
func (e *ItemError) Error() string {
	op := "insert"
	if e.Delete {
		op = "delete"
	}
	return fmt.Sprintf("store: batch %s %d: %v", op, e.Pos, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// ErrNotFound is returned by Get for unknown object ids.
var ErrNotFound = errors.New("store: object not found")

// ErrCorrupt wraps all integrity failures (bad magic, checksum mismatch,
// truncated records).
var ErrCorrupt = errors.New("store: corrupt data")

// ErrReadOnly is returned for mutations on stores without a write side.
var ErrReadOnly = errors.New("store: read-only")

// ErrDuplicate is returned for an insert whose id is already live.
var ErrDuplicate = errors.New("store: duplicate object id")

// ErrFailed marks a store that has fail-stopped: an I/O error on its
// active log (a failed write or — critically — a failed fsync, after
// which the page cache may have dropped acknowledged data, so retrying
// the fsync can "succeed" without restoring durability) poisoned it
// permanently. Every subsequent mutation returns an error wrapping
// ErrFailed; reads keep serving whatever was already published. Recovery
// is reopening the store, which replays only what is actually on disk.
var ErrFailed = errors.New("store: failed (fail-stop after storage fault)")

const (
	magic      = "FZKNNST1"
	version    = 1
	headerSize = 8 + 4 + 4 // magic + version + dims
	footerSize = 8 + 8 + 8 // dirOffset + count + magic
	dirEntSize = 8 + 8 + 8 // id + offset + length
)

// MemStore is an in-memory Mutator, used by tests and small workloads.
// Deletes are logical: the payload stays readable through Get (for index
// snapshots still referencing it) for the store's lifetime.
type MemStore struct {
	mu   sync.RWMutex
	objs map[uint64]*fuzzy.Object // live and tombstoned payloads
	live map[uint64]struct{}
	dims int
}

// NewMemStore builds a MemStore over the given objects. Object ids must be
// unique and dimensionalities consistent.
func NewMemStore(objs []*fuzzy.Object) (*MemStore, error) {
	m := &MemStore{
		objs: make(map[uint64]*fuzzy.Object, len(objs)),
		live: make(map[uint64]struct{}, len(objs)),
	}
	for _, o := range objs {
		if _, dup := m.objs[o.ID()]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicate, o.ID())
		}
		if m.dims == 0 {
			m.dims = o.Dims()
		} else if o.Dims() != m.dims {
			return nil, fmt.Errorf("store: mixed dimensionality %d vs %d", o.Dims(), m.dims)
		}
		m.objs[o.ID()] = o
		m.live[o.ID()] = struct{}{}
	}
	return m, nil
}

// Get implements Reader. Tombstoned payloads remain readable.
func (m *MemStore) Get(id uint64) (*fuzzy.Object, error) {
	m.mu.RLock()
	o, ok := m.objs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return o, nil
}

// IDs implements Reader. The ascending list is assembled per call: it is
// read at index build, snapshot cuts and by tools, never per request, so a
// commit does not pay to keep it sorted.
func (m *MemStore) IDs() []uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Sorted(maps.Keys(m.live))
}

// Len implements Reader.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.live)
}

// Dims implements Reader.
func (m *MemStore) Dims() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dims
}

// Live implements LivenessChecker.
func (m *MemStore) Live(id uint64) (bool, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, isLive := m.live[id]
	return isLive, true
}

// ApplyBatch implements Mutator: the whole batch is validated, then applied
// under one lock acquisition.
func (m *MemStore) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dims, err := validateBatch(inserts, deletes, m.dims, func(id uint64) bool {
		_, isLive := m.live[id]
		return isLive
	})
	if err != nil {
		return err
	}
	m.dims = dims
	for _, o := range inserts {
		m.objs[o.ID()] = o
		m.live[o.ID()] = struct{}{}
	}
	for _, id := range deletes {
		delete(m.live, id)
	}
	return nil
}

// validateBatch checks the shared Mutator.ApplyBatch contract — unique ids
// across the batch, consistent dimensionality, inserts not live, deletes
// live — against a store's live-set predicate, and returns the
// dimensionality the store adopts if the batch commits (an empty store takes
// the first insert's). Every violation is reported as an *ItemError carrying the
// offending position.
func validateBatch(inserts []*fuzzy.Object, deletes []uint64, dims int, live func(uint64) bool) (int, error) {
	seen := make(map[uint64]bool, len(inserts)+len(deletes))
	for i, o := range inserts {
		if o == nil {
			return 0, &ItemError{Pos: i, Err: errors.New("nil object")}
		}
		if dims == 0 {
			dims = o.Dims()
		} else if o.Dims() != dims {
			return 0, &ItemError{Pos: i, Err: fmt.Errorf("object dims %d, store dims %d", o.Dims(), dims)}
		}
		if seen[o.ID()] {
			return 0, &ItemError{Pos: i, Err: fmt.Errorf("%w: %d (repeated in batch)", ErrDuplicate, o.ID())}
		}
		if live(o.ID()) {
			return 0, &ItemError{Pos: i, Err: fmt.Errorf("%w: %d", ErrDuplicate, o.ID())}
		}
		seen[o.ID()] = true
	}
	for i, id := range deletes {
		if seen[id] {
			return 0, &ItemError{Delete: true, Pos: i, Err: fmt.Errorf("id %d already appears in the batch", id)}
		}
		if !live(id) {
			return 0, &ItemError{Delete: true, Pos: i, Err: fmt.Errorf("%w: id %d", ErrNotFound, id)}
		}
		seen[id] = true
	}
	return dims, nil
}

// Writer streams objects into a store file. Create one with Create, Append
// objects, then Close to finalize the directory and footer. Writes go
// through one buffer, so a write error may surface at a later Append or at
// Close.
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	rec    []byte // the record being written, reused across Appends
	dims   int
	offset uint64
	dir    []dirEntry
	seen   map[uint64]bool
	err    error
}

type dirEntry struct {
	id, offset, length uint64
	// src is the payload's backing file when it is not the owner's active
	// data file: LogStore points entries at its checkpoint or at a retired
	// log after a checkpoint. nil (the only value Writer/DiskStore use)
	// means the active file.
	src fault.File
}

// Create opens path for writing a new store of objects with the given
// dimensionality, truncating any existing file.
func Create(path string, dims int) (*Writer, error) {
	if dims < 1 {
		return nil, errors.New("store: dims must be >= 1")
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 64<<10), dims: dims, offset: headerSize, seen: make(map[uint64]bool)}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(dims))
	_, _ = w.w.Write(hdr) // cannot fail: it fits the empty buffer
	return w, nil
}

// Append serializes one object. Objects must have the writer's
// dimensionality and unique ids.
func (w *Writer) Append(o *fuzzy.Object) error {
	if w.err != nil {
		return w.err
	}
	if o.Dims() != w.dims {
		return fmt.Errorf("store: object dims %d, writer dims %d", o.Dims(), w.dims)
	}
	if w.seen[o.ID()] {
		return fmt.Errorf("%w: %d", ErrDuplicate, o.ID())
	}
	w.rec = codec.AppendRecord(w.rec[:0], o)
	if _, err := w.w.Write(w.rec); err != nil {
		w.err = err
		return err
	}
	w.dir = append(w.dir, dirEntry{id: o.ID(), offset: w.offset, length: uint64(len(w.rec))})
	w.offset += uint64(len(w.rec))
	w.seen[o.ID()] = true
	return nil
}

// Close writes the directory and footer, flushes and closes the file,
// returning the first error any write met. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	dirOffset := w.offset
	buf := make([]byte, len(w.dir)*dirEntSize+footerSize)
	pos := 0
	for _, e := range w.dir {
		binary.LittleEndian.PutUint64(buf[pos:], e.id)
		binary.LittleEndian.PutUint64(buf[pos+8:], e.offset)
		binary.LittleEndian.PutUint64(buf[pos+16:], e.length)
		pos += dirEntSize
	}
	binary.LittleEndian.PutUint64(buf[pos:], dirOffset)
	binary.LittleEndian.PutUint64(buf[pos+8:], uint64(len(w.dir)))
	copy(buf[pos+16:], magic)
	_, _ = w.w.Write(buf) // a failure here stays in the buffer for Flush
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// recBufs recycles readObject's record buffers: a decoded object owns its
// own slabs and aliases nothing of the bytes it was read from.
var recBufs = sync.Pool{New: func() any { return new([]byte) }}

// readObject fetches and decodes the record a directory entry locates. The
// record must be the object the directory promised: its own checksum
// intact, the entry's id, the store's dimensionality. Entry lengths are
// bounded by their file where the directory is built (openFile, log replay).
func readObject(f io.ReaderAt, e dirEntry, dims int) (*fuzzy.Object, error) {
	bp := recBufs.Get().(*[]byte)
	defer recBufs.Put(bp)
	buf := slices.Grow((*bp)[:0], int(e.length))[:e.length]
	*bp = buf
	if _, err := f.ReadAt(buf, int64(e.offset)); err != nil {
		return nil, fmt.Errorf("%w: read object %d: %v", ErrCorrupt, e.id, err)
	}
	o, err := codec.DecodeRecord(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: object %d: %v", ErrCorrupt, e.id, err)
	}
	if o.ID() != e.id || o.Dims() != dims {
		return nil, fmt.Errorf("%w: record of object %d (dims %d) at directory slot for %d (dims %d)",
			ErrCorrupt, o.ID(), o.Dims(), e.id, dims)
	}
	return o, nil
}

// DiskStore is a Reader over a store file. Open loads only the directory;
// objects are decoded on demand with positioned reads, so Gets from multiple
// goroutines are safe.
type DiskStore struct {
	f    *os.File
	dims int
	dir  map[uint64]dirEntry
	ids  []uint64
}

// Open opens a store file created by Writer.
func Open(path string) (*DiskStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(f *os.File) (*DiskStore, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerSize), hdr); err != nil {
		return nil, fmt.Errorf("%w: unreadable header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[12:]))

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerSize+footerSize {
		return nil, fmt.Errorf("%w: file too short", ErrCorrupt)
	}
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(foot, st.Size()-footerSize); err != nil {
		return nil, fmt.Errorf("%w: unreadable footer: %v", ErrCorrupt, err)
	}
	if string(foot[16:]) != magic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	// The footer is untrusted: count is bounded by the entries the file has
	// room for before it is multiplied, so dirLen cannot wrap.
	dirOffset := binary.LittleEndian.Uint64(foot[0:])
	count := binary.LittleEndian.Uint64(foot[8:])
	if count > uint64(st.Size()-headerSize-footerSize)/dirEntSize {
		return nil, fmt.Errorf("%w: directory of %d entries exceeds the file", ErrCorrupt, count)
	}
	dirLen := int64(count) * dirEntSize
	if dirOffset != uint64(st.Size()-footerSize-dirLen) {
		return nil, fmt.Errorf("%w: directory bounds inconsistent", ErrCorrupt)
	}
	dirBuf := make([]byte, dirLen)
	if _, err := f.ReadAt(dirBuf, int64(dirOffset)); err != nil {
		return nil, fmt.Errorf("%w: unreadable directory: %v", ErrCorrupt, err)
	}
	s := &DiskStore{
		f:    f,
		dims: dims,
		dir:  make(map[uint64]dirEntry, count),
		ids:  make([]uint64, 0, count),
	}
	for pos := int64(0); pos < dirLen; pos += dirEntSize {
		e := dirEntry{
			id:     binary.LittleEndian.Uint64(dirBuf[pos:]),
			offset: binary.LittleEndian.Uint64(dirBuf[pos+8:]),
			length: binary.LittleEndian.Uint64(dirBuf[pos+16:]),
		}
		// Records live between the header and the directory; compared
		// without adding, so a huge offset or length cannot wrap past it.
		if e.offset < headerSize || e.offset > dirOffset ||
			e.length < codec.HeaderSize+codec.CRCSize || e.length > dirOffset-e.offset {
			return nil, fmt.Errorf("%w: object %d record [%d,+%d) outside the data section", ErrCorrupt, e.id, e.offset, e.length)
		}
		if _, dup := s.dir[e.id]; dup {
			return nil, fmt.Errorf("%w: duplicate id %d in directory", ErrCorrupt, e.id)
		}
		s.dir[e.id] = e
		s.ids = append(s.ids, e.id)
	}
	slices.Sort(s.ids)
	return s, nil
}

// Get implements Reader.
func (s *DiskStore) Get(id uint64) (*fuzzy.Object, error) {
	e, ok := s.dir[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return readObject(s.f, e, s.dims)
}

// IDs implements Reader.
func (s *DiskStore) IDs() []uint64 { return s.ids }

// Len implements Reader.
func (s *DiskStore) Len() int { return len(s.ids) }

// Dims implements Reader.
func (s *DiskStore) Dims() int { return s.dims }

// Close releases the underlying file.
func (s *DiskStore) Close() error { return s.f.Close() }

// WriteAll is a convenience that writes objs to path in one call.
func WriteAll(path string, dims int, objs []*fuzzy.Object) error {
	w, err := Create(path, dims)
	if err != nil {
		return err
	}
	for _, o := range objs {
		if err := w.Append(o); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}
