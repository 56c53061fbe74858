package store

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// validCheckpointImage builds a checkpointed store with a live log suffix
// and returns the bytes of its three files: the manifest, the checkpoint
// and the log.
func validCheckpointImage(t testingTB, dir string, seed uint64) (man, ckpt, logData []byte) {
	path := filepath.Join(dir, "ckptseed.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := 1; i <= 5; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 3+rng.IntN(4), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := deleteOne(s, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A suffix past the cut, so replay-after-checkpoint is exercised too.
	if err := insertOne(s, randObject(rng, 9, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := deleteOne(s, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(p string) []byte {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return read(manifestPath(path)), read(ckptPath(path, 1)), read(logPathFor(path, 1))
}

// writeImage lays the three store files out in dir under the standard
// names, returning the store path.
func writeImage(t *testing.T, dir string, man, ckpt, logData []byte) string {
	t.Helper()
	path := filepath.Join(dir, "fuzz.fzl")
	for p, data := range map[string][]byte{
		logPathFor(path, 1): logData,
		manifestPath(path):  man,
		ckptPath(path, 1):   ckpt,
	} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// checkCoherent asserts an accepted store is internally consistent and
// still writable.
func checkCoherent(t *testing.T, s *LogStore) {
	t.Helper()
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
	rng := rand.New(rand.NewPCG(1, 1))
	if err := insertOne(s, randObject(rng, 1_000_000, 3, s.Dims())); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// FuzzManifestReopen hammers reopen with arbitrary manifest bytes next to a
// valid checkpoint and log: it must never panic, and every accepted
// manifest must yield a coherent, writable store. Torn, bit-flipped and
// field-mutated manifests are all seeded — none of them are legitimate
// crash artifacts (the manifest is published by rename), so corrupt ones
// must be refused rather than guessed at.
func FuzzManifestReopen(f *testing.F) {
	base := f.TempDir()
	man, ckpt, logData := validCheckpointImage(f, base, 17)

	f.Add(man)
	rng := rand.New(rand.NewPCG(21, 21))
	for i := 0; i < 4; i++ { // random bit flips
		mut := append([]byte(nil), man...)
		mut[rng.IntN(len(mut))] ^= byte(1 + rng.IntN(255))
		f.Add(mut)
	}
	// Targeted field mutations: generation, object count, log sequence,
	// tail, size. (The CRC catches them; the plausibility rules are the
	// backstop if a flip lands in the CRC too.)
	for _, off := range []int{16, 24, 32, 40, 48} {
		mut := append([]byte(nil), man...)
		binary.LittleEndian.PutUint64(mut[off:], 1<<40)
		f.Add(mut)
	}
	for _, cut := range []int{0, 8, manifestSize / 2, manifestSize - 1} { // torn prefixes
		f.Add(man[:cut])
	}
	f.Add([]byte("FZKNNMF1 but then garbage follows here"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeImage(t, t.TempDir(), data, ckpt, logData)
		s, err := OpenLog(path, 0)
		if err != nil {
			return // refused: fine — the store may not guess
		}
		defer s.Close()
		checkCoherent(t, s)
	})
}

// FuzzCheckpointReplay hammers reopen with arbitrary checkpoint bytes under
// a valid manifest: truncated snapshots, bit flips and stale generations
// must all be refused as corruption (a checkpoint is published atomically,
// so it has no legitimate torn state), and anything accepted must be
// coherent.
func FuzzCheckpointReplay(f *testing.F) {
	base := f.TempDir()
	man, ckpt, logData := validCheckpointImage(f, base, 29)

	f.Add(ckpt)
	rng := rand.New(rand.NewPCG(23, 23))
	for i := 0; i < 4; i++ { // bit flips: header, record frames, payloads, footer
		mut := append([]byte(nil), ckpt...)
		mut[rng.IntN(len(mut))] ^= byte(1 + rng.IntN(255))
		f.Add(mut)
	}
	stale := append([]byte(nil), ckpt...) // stale snapshot: generation 99
	binary.LittleEndian.PutUint64(stale[16:], 99)
	f.Add(stale)
	lying := append([]byte(nil), ckpt...) // count that overruns the file
	binary.LittleEndian.PutUint64(lying[24:], 1<<30)
	f.Add(lying)
	for _, cut := range []int{0, ckptHeaderSize - 1, ckptHeaderSize, len(ckpt) / 2, len(ckpt) - 1} {
		f.Add(ckpt[:cut]) // torn snapshots
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeImage(t, t.TempDir(), man, data, logData)
		s, err := OpenLog(path, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refused with %v, want ErrCorrupt", err)
			}
			return
		}
		defer s.Close()
		checkCoherent(t, s)
	})
}
