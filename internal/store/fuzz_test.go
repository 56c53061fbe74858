package store

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"testing"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

// validLogImage builds a well-formed log file image with a few puts and
// tombstones — single records and a group-commit batch record, so the
// replay and truncation fuzzers exercise both framings — returning its
// bytes.
func validLogImage(t testingTB, dir string, seed uint64) []byte {
	path := dir + "/seed.fzl"
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := 1; i <= 4; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 3+rng.IntN(5), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := deleteOne(s, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]*fuzzy.Object{
		randObject(rng, 5, 3+rng.IntN(5), 2),
		randObject(rng, 6, 3+rng.IntN(5), 2),
	}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testingTB is the subset of testing.TB the fuzz helpers need, so they work
// from both F and T contexts.
type testingTB interface{ Fatal(args ...any) }

// FuzzLogReplay hammers the log-store replay path with corrupted images: it
// must never panic, and every accepted image must yield a coherent store
// (live ids retrievable, duplicates impossible).
func FuzzLogReplay(f *testing.F) {
	dir := f.TempDir()
	valid := validLogImage(f, dir, 11)
	f.Add(valid)
	for i := 0; i < 6; i++ {
		mut := append([]byte(nil), valid...)
		rng := rand.New(rand.NewPCG(uint64(i), 99))
		mut[rng.IntN(len(mut))] ^= byte(1 + rng.IntN(255))
		f.Add(mut)
	}
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("FZKNNLG1garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := t.TempDir() + "/fuzz.fzl"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenLog(path, 0)
		if err != nil {
			return // rejected image: fine
		}
		defer s.Close()
		ids := s.IDs()
		if len(ids) != s.Len() {
			t.Fatalf("IDs/Len disagree: %d vs %d", len(ids), s.Len())
		}
		seen := make(map[uint64]bool)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate live id %d", id)
			}
			seen[id] = true
			o, err := s.Get(id)
			if err != nil {
				t.Fatalf("live id %d unreadable: %v", id, err)
			}
			if o.ID() != id || o.Dims() != s.Dims() {
				t.Fatalf("incoherent object for id %d: %v", id, o)
			}
		}
	})
}

// FuzzLogTruncate cuts a valid log image at an arbitrary byte: every prefix
// that keeps the header must reopen successfully (crash-tail truncation),
// and the recovered store must accept a fresh append.
func FuzzLogTruncate(f *testing.F) {
	dir := f.TempDir()
	valid := validLogImage(f, dir, 13)
	f.Add(uint16(len(valid)))
	f.Add(uint16(logHeaderSize))
	f.Add(uint16(logHeaderSize + 1))
	f.Add(uint16(len(valid) - 1))

	f.Fuzz(func(t *testing.T, cut16 uint16) {
		cut := int(cut16)
		if cut < logHeaderSize || cut > len(valid) {
			return
		}
		path := t.TempDir() + "/fuzz.fzl"
		if err := os.WriteFile(path, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenLog(path, 0)
		if err != nil {
			// A cut can leave a *complete* record prefix plus garbage that
			// happens to checksum-fail; that is reported as corruption,
			// which is acceptable. But a clean frame boundary must open.
			if isFrameAligned(valid, cut) {
				t.Fatalf("frame-aligned cut at %d rejected: %v", cut, err)
			}
			return
		}
		defer s.Close()
		rng := rand.New(rand.NewPCG(uint64(cut), 1))
		if err := insertOne(s, randObject(rng, 1_000_000, 3, 2)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if _, err := s.Get(1_000_000); err != nil {
			t.Fatalf("read back after recovery: %v", err)
		}
	})
}

// isFrameAligned reports whether cut lands exactly on a record boundary of
// the valid image.
func isFrameAligned(valid []byte, cut int) bool {
	pos := logHeaderSize
	for pos < cut {
		if pos+logFrameSize > len(valid) {
			return false
		}
		length := int(binary.LittleEndian.Uint32(valid[pos+1:]))
		pos += logFrameSize + length + 4
	}
	return pos == cut
}

// FuzzDirectoryBounds overwrites the footer (dirOffset, count) and, xor-ing
// so that 0 means "leave it", the one directory entry's offset and length in
// a valid store file image, then opens it and reads the object: never a
// panic — an inconsistent directory is an error from Open, and an entry Open
// accepts locates bytes inside the data section, so Get returns the object
// or ErrCorrupt.
func FuzzDirectoryBounds(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1<<40), uint64(1<<40), uint64(0), uint64(0))
	f.Add(uint64(17), uint64(3), uint64(0), uint64(0))
	rng := rand.New(rand.NewPCG(9, 9))
	obj := randObject(rng, 1, 10, 2)
	size := uint64(headerSize + codec.Size(obj) + codec.CRCSize + dirEntSize + footerSize)
	dirAt, one := size-footerSize-dirEntSize, uint64(1) // the valid footer
	f.Add(dirAt, one, uint64(0), uint64(0))
	f.Add(size-footerSize, uint64(1<<61), uint64(0), uint64(0)) // count*dirEntSize wraps to 0
	f.Add(dirAt, one, uint64(0), uint64(1<<62))                 // length no buffer can hold
	f.Add(dirAt, one, uint64(1<<63), uint64(1<<63))             // offset+length wraps
	f.Add(dirAt, one, uint64(headerSize), uint64(0))            // record starts inside the header
	f.Add(dirAt, one, uint64(0), uint64(8))                     // record runs into the directory
	f.Fuzz(func(t *testing.T, dirOffset, count, offsetXor, lengthXor uint64) {
		path := t.TempDir() + "/fuzz.fzs"
		if err := WriteAll(path, 2, []*fuzzy.Object{obj}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := len(data) - footerSize
		binary.LittleEndian.PutUint64(data[pos:], dirOffset)
		binary.LittleEndian.PutUint64(data[pos+8:], count)
		ent := pos - dirEntSize
		binary.LittleEndian.PutUint64(data[ent+8:], binary.LittleEndian.Uint64(data[ent+8:])^offsetXor)
		binary.LittleEndian.PutUint64(data[ent+16:], binary.LittleEndian.Uint64(data[ent+16:])^lengthXor)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt", err)
			}
			return
		}
		defer s.Close()
		for _, id := range s.IDs() {
			if _, err := s.Get(id); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(%d): %v, want ErrCorrupt", id, err)
			}
		}
	})
}
