package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

// OpenLog is OpenLogPolicy under SyncAlways, the policy most tests run.
func OpenLog(path string, dims int) (*LogStore, error) {
	return OpenLogPolicy(path, dims, SyncAlways)
}

// appendFrame appends one log record — kind | length | payload | crc — to
// buf, for tests that craft log images by hand.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

func TestLogStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	path := filepath.Join(t.TempDir(), "objects.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*fuzzy.Object, 20)
	for i := range objs {
		objs[i] = randObject(rng, uint64(i+1), 5+rng.IntN(20), 2)
		if err := insertOne(s, objs[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if s.Len() != len(objs) || s.Dims() != 2 {
		t.Fatalf("len=%d dims=%d", s.Len(), s.Dims())
	}
	for _, o := range objs {
		got, err := s.Get(o.ID())
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, o, got)
	}
	// Delete a few; they leave the live set but stay readable.
	for _, id := range []uint64{3, 7, 11} {
		if err := deleteOne(s, id); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(objs)-3 {
		t.Fatalf("len after deletes = %d", s.Len())
	}
	if _, err := s.Get(7); err != nil {
		t.Fatalf("tombstoned payload must stay readable: %v", err)
	}
	if err := deleteOne(s, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if err := insertOne(s, objs[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	// Re-inserting a deleted id is allowed.
	if err := insertOne(s, randObject(rng, 7, 4, 2)); err != nil {
		t.Fatalf("re-insert after delete: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same live set, same contents, tombstones honored.
	s2, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(objs)-2 {
		t.Fatalf("reopened len = %d", s2.Len())
	}
	got, err := s2.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, objs[4], got)
	ids := s2.IDs()
	for _, id := range ids {
		if id == 3 || id == 11 {
			t.Fatalf("deleted id %d still live after reopen", id)
		}
	}
	if _, err := s2.Get(3); err != nil {
		t.Fatalf("tombstoned payload must stay readable after reopen: %v", err)
	}
}

// TestLogStorePartialHeaderRecovered covers a crash during creation: a
// file shorter than the header holds no committed records, so reopening
// with dims re-initializes it instead of reporting corruption.
func TestLogStorePartialHeaderRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.fzl")
	if err := os.WriteFile(path, []byte("FZKNN"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Without dims there is nothing to re-initialize with.
	if _, err := OpenLog(path, 0); err == nil {
		t.Fatal("partial header without dims must fail")
	}
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatalf("partial header with dims: %v", err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	if err := insertOne(s, randObject(rng, 1, 4, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("len = %d", s2.Len())
	}
}

func TestLogStoreDimsHandling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.fzl")
	if _, err := OpenLog(path, 0); err == nil {
		t.Fatal("creating a log store without dims must fail")
	}
	s, err := OpenLog(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	if err := insertOne(s, randObject(rng, 1, 5, 2)); err == nil {
		t.Fatal("mismatched object dims accepted")
	}
	if err := insertOne(s, randObject(rng, 1, 5, 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenLog(path, 2); err == nil {
		t.Fatal("mismatched reopen dims accepted")
	}
	s2, err := OpenLog(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestLogStoreCrashTruncation simulates a crash mid-append: a trailing
// partial record must be silently discarded on reopen, and the next append
// must land cleanly where the log was cut.
func TestLogStoreCrashTruncation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	path := filepath.Join(t.TempDir(), "objects.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file at every byte boundary inside the last record.
	lastStart := lastRecordStart(t, full)
	for _, cut := range []int64{lastStart + 1, lastStart + 3, lastStart + 20, int64(len(full)) - 1} {
		if cut >= int64(len(full)) {
			continue
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenLog(path, 0)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if s2.Len() != 4 {
			t.Fatalf("cut at %d: len = %d, want 4", cut, s2.Len())
		}
		// The store keeps working after recovery.
		if err := insertOne(s2, randObject(rng, 99, 5, 2)); err != nil {
			t.Fatalf("cut at %d: insert after recovery: %v", cut, err)
		}
		if s2.Len() != 5 {
			t.Fatalf("cut at %d: len after insert = %d", cut, s2.Len())
		}
		s2.Close()
		s3, err := OpenLog(path, 0)
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery append: %v", cut, err)
		}
		if s3.Len() != 5 {
			t.Fatalf("cut at %d: reopened len = %d", cut, s3.Len())
		}
		s3.Close()
	}
}

// lastRecordStart walks the frames of a well-formed log image and returns
// the offset of the final record.
func lastRecordStart(t *testing.T, data []byte) int64 {
	t.Helper()
	pos := int64(logHeaderSize)
	last := pos
	for pos < int64(len(data)) {
		last = pos
		length := int64(uint32(data[pos+1]) | uint32(data[pos+2])<<8 | uint32(data[pos+3])<<16 | uint32(data[pos+4])<<24)
		pos += logFrameSize + length + 4
	}
	if pos != int64(len(data)) {
		t.Fatalf("log image not frame-aligned: pos=%d size=%d", pos, len(data))
	}
	return last
}

// TestLogStoreCorruptionRejected flips bytes inside a complete record: that
// is corruption, not a crash tail, and must surface as ErrCorrupt.
func TestLogStoreCorruptionRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	path := filepath.Join(t.TempDir(), "objects.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record (not the last, so it cannot
	// be mistaken for a crash tail).
	corrupt := append([]byte(nil), full...)
	corrupt[logHeaderSize+logFrameSize+60] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload: got %v, want ErrCorrupt", err)
	}
	// A bad header is equally fatal.
	corrupt = append([]byte(nil), full...)
	corrupt[0] = 'X'
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// TestLogStoreTailRefusals crafts, for each check that tells a corrupt
// length field from a crash tail, a last record cut short whose surviving
// bytes contradict its frame: a tombstone claiming a length other than 8,
// a put whose own header sizes it differently from its frame, and a batch
// whose count cannot fit its length. Each must be refused as ErrCorrupt,
// while the honest frame over the same bytes truncates as a crash tail.
func TestLogStoreTailRefusals(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 19))
	base := appendFrame(logHeader(2), recPut, codec.AppendRecord(nil, randObject(rng, 1, 3, 2)))
	frame := func(kind byte, length int, payload ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{kind}, uint32(length))
		for _, p := range payload {
			b = append(b, p...)
		}
		return b
	}
	id := binary.LittleEndian.AppendUint64(nil, 1)
	put := codec.AppendRecord(nil, randObject(rng, 2, 3, 2))
	count := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	sub := frame(recTombstone, 8, id)
	for _, tc := range []struct {
		name          string
		honest, lying []byte
	}{
		{"tombstone length", frame(recTombstone, 8, id[:4]), frame(recTombstone, 16, id[:4])},
		{"put shape", frame(recPut, len(put), put[:codec.HeaderSize+4]), frame(recPut, len(put)+8, put[:codec.HeaderSize+4])},
		{"batch count", frame(recBatch, batchCountSize+2*len(sub), count(2), sub), frame(recBatch, batchCountSize+2*len(sub), count(1000), sub)},
	} {
		path := filepath.Join(t.TempDir(), "tail.fzl")
		open := func(tail []byte) (*LogStore, error) {
			if err := os.WriteFile(path, append(slices.Clip(base), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			return OpenLog(path, 0)
		}
		s, err := open(tc.honest)
		if err != nil {
			t.Fatalf("%s: honest crash tail: %v", tc.name, err)
		}
		if s.Len() != 1 {
			t.Fatalf("%s: honest crash tail left %d objects, want 1", tc.name, s.Len())
		}
		s.Close()
		if _, err := open(tc.lying); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: contradicted tail: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestLogStoreRejectsImplausibleRecordShapes pins the overflow guard in
// the record decoder: a tiny crafted record whose n*d size formula wraps around
// must come back as ErrCorrupt immediately, not allocate gigabytes.
func TestLogStoreRejectsImplausibleRecordShapes(t *testing.T) {
	const dims = 0xFFFFFFFF
	// Record: id | n=2^29 | d=2^32-1 | no data | crc — the naive
	// 16 + n*d*8 + n*8 + 4 wraps to exactly len(payload).
	payload := make([]byte, 20)
	binary.LittleEndian.PutUint64(payload[0:], 1)
	binary.LittleEndian.PutUint32(payload[8:], 1<<29)
	binary.LittleEndian.PutUint32(payload[12:], dims)
	binary.LittleEndian.PutUint32(payload[16:], crc32.ChecksumIEEE(payload[:16]))
	if _, err := readObject(bytes.NewReader(payload), dirEntry{id: 1, length: uint64(len(payload))}, dims); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crafted record: %v, want ErrCorrupt", err)
	}

	// The same attack through a whole log file image: header dims and a
	// framed put record, all checksums valid. OpenLog must reject it.
	img := make([]byte, 0, 64)
	img = append(img, logMagic...)
	img = binary.LittleEndian.AppendUint32(img, logVersion)
	img = binary.LittleEndian.AppendUint32(img, dims)
	frame := make([]byte, logFrameSize+len(payload))
	frame[0] = recPut
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	copy(frame[logFrameSize:], payload)
	img = append(img, frame...)
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(frame))
	path := filepath.Join(t.TempDir(), "crafted.fzl")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crafted log: %v, want ErrCorrupt", err)
	}
}

// staticImage hand-writes a static store file holding rec as object 1.
func staticImage(dims uint32, rec []byte) []byte {
	img := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(img[8:], version)
	binary.LittleEndian.PutUint32(img[12:], dims)
	img = append(img, rec...)
	for _, v := range []uint64{1, headerSize, uint64(len(rec)), uint64(headerSize + len(rec)), 1} {
		img = binary.LittleEndian.AppendUint64(img, v) // directory entry, then footer offset and count
	}
	return append(img, magic...)
}

// TestCraftedShapeSharedBound feeds the same wrapping header (see
// TestLogStoreRejectsImplausibleRecordShapes; internal/replica pins it for
// frames and snapshots) to the store's two other readers of object records
// — Get through a static store's directory, and a checkpoint load — which
// now share one bound with replay: codec.Shape.
func TestCraftedShapeSharedBound(t *testing.T) {
	const dims = 0xFFFFFFFF
	rec := make([]byte, 16, 20)
	binary.LittleEndian.PutUint64(rec[0:], 1)
	binary.LittleEndian.PutUint32(rec[8:], 1<<29)
	binary.LittleEndian.PutUint32(rec[12:], dims)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	dir := t.TempDir()

	// Get: a static store whose directory locates the crafted record.
	static := filepath.Join(dir, "crafted.fzs")
	if err := os.WriteFile(static, staticImage(dims, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(static)
	if err != nil {
		t.Fatalf("crafted static store must open (only Get decodes): %v", err)
	}
	defer ds.Close()
	if _, err := ds.Get(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of crafted record: %v, want ErrCorrupt", err)
	}

	// Checkpoint load: a manifest binding a checkpoint that holds it.
	path := filepath.Join(dir, "crafted.fzl")
	ckpt := append([]byte(ckptMagic), make([]byte, ckptHeaderSize-8)...)
	binary.LittleEndian.PutUint32(ckpt[8:], ckptVersion)
	binary.LittleEndian.PutUint32(ckpt[12:], dims)
	binary.LittleEndian.PutUint64(ckpt[16:], 1) // gen
	binary.LittleEndian.PutUint64(ckpt[24:], 1) // count
	ckpt = binary.LittleEndian.AppendUint32(ckpt, uint32(len(rec)))
	ckpt = append(ckpt, rec...)
	ckpt = binary.LittleEndian.AppendUint32(ckpt, crc32.ChecksumIEEE(ckpt))
	man := &logManifest{dims: dims, gen: 1, objects: 1, tail: logHeaderSize, size: logHeaderSize}
	for name, data := range map[string][]byte{
		path:               logHeader(dims),
		ckptPath(path, 1):  ckpt,
		manifestPath(path): encodeManifest(man),
	} {
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenLog(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crafted checkpoint: %v, want ErrCorrupt", err)
	}
}

// TestNonFiniteCoordinateIsCorrupt: a checksummed record whose coordinates
// are NaN or infinite (no writer of this repository can produce one) opens
// — directories and replay check shapes, not contents — and is refused when
// the probe decodes it, in a static store and in a replayed log alike.
func TestNonFiniteCoordinateIsCorrupt(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := codec.AppendRecord(nil, randObject(rand.New(rand.NewPCG(6, 6)), 1, 5, 2))
		body := rec[:len(rec)-codec.CRCSize]
		binary.LittleEndian.PutUint64(body[codec.HeaderSize+8:], math.Float64bits(bad))
		binary.LittleEndian.PutUint32(rec[len(body):], codec.Checksum(body))
		dir := t.TempDir()

		static := filepath.Join(dir, "bad.fzs")
		log := filepath.Join(dir, "bad.fzl")
		for name, data := range map[string][]byte{static: staticImage(2, rec), log: appendFrame(logHeader(2), recPut, rec)} {
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := Open(static)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := OpenLog(log, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]Reader{"static": ds, "log": ls} {
			if _, err := s.Get(1); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s store, coordinate %v: Get = %v, want ErrCorrupt", name, bad, err)
			}
		}
		ds.Close()
		ls.Close()
	}
}

func TestMemStoreMutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	m, err := NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 0 || m.Len() != 0 {
		t.Fatal("empty store not empty")
	}
	o1 := randObject(rng, 1, 5, 2)
	if err := insertOne(m, o1); err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 2 {
		t.Fatalf("dims not adopted: %d", m.Dims())
	}
	if err := insertOne(m, randObject(rng, 2, 5, 3)); err == nil {
		t.Fatal("mixed dims accepted")
	}
	if err := insertOne(m, randObject(rng, 1, 5, 2)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := deleteOne(m, 1); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d", m.Len())
	}
	// The tombstoned payload stays readable for the store's lifetime.
	if _, err := m.Get(1); err != nil {
		t.Fatalf("tombstoned Get: %v", err)
	}
	// Dims stay sticky across emptiness.
	if err := insertOne(m, randObject(rng, 3, 5, 3)); err == nil {
		t.Fatal("dims changed after emptying the store")
	}
	if err := deleteOne(m, 42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown: %v", err)
	}
}

func TestWrapperMutationForwarding(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	m, err := NewMemStore([]*fuzzy.Object{randObject(rng, 1, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	lru := NewLRU(m, 4)
	c := NewCounting(lru)
	w, ok := As[Mutator](c)
	if !ok {
		t.Fatal("no write side reachable through the wrappers")
	}

	// Warm the cache, then delete through the wrappers: the cached copy
	// must be invalidated.
	if _, err := c.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := deleteOne(w, 1); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("delete did not reach the MemStore")
	}
	replacement := randObject(rng, 1, 7, 2)
	if err := insertOne(w, replacement); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, replacement, got)
	if c.Count() != 2 {
		t.Fatalf("writes must not count as object accesses: count=%d", c.Count())
	}

	// A read-only inner store surfaces ErrReadOnly through the chain: a
	// stack with no write side at all, and one whose only write side is the
	// cache's pass-through.
	if w, ok := As[Mutator](NewCounting(roReader{m})); ok {
		t.Fatalf("read-only stack resolved a write side: %T", w)
	}
	ro := NewLRU(roReader{m}, 4)
	if err := insertOne(ro, randObject(rng, 9, 5, 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only insert: %v", err)
	}
	if err := deleteOne(ro, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only delete: %v", err)
	}
}

// roReader hides the write side of a store.
type roReader struct{ Reader }
