package store

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// --- fixtures ---

const ckptTestBase = "objects.fzl"

// copyDirFiles copies every regular file in src into dst.
func copyDirFiles(t testingTB, src, dst string) {
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// resetDir empties dir so crash states can be rebuilt in place.
func resetDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// churnedBase writes a small churned log store (inserts, deletes,
// reinserts, one group-commit batch) into dir and returns the expected
// live set.
func churnedBase(t *testing.T, dir string) map[uint64]*fuzzy.Object {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 42))
	s, err := OpenLog(filepath.Join(dir, ckptTestBase), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*fuzzy.Object{}
	put := func(o *fuzzy.Object) {
		t.Helper()
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[o.ID()] = o
	}
	for i := 1; i <= 12; i++ {
		put(randObject(rng, uint64(i), 3+rng.IntN(3), 2))
	}
	for _, id := range []uint64{2, 5, 8, 11} {
		if err := deleteOne(s, id); err != nil {
			t.Fatal(err)
		}
		delete(want, id)
	}
	for _, id := range []uint64{5, 11} {
		put(randObject(rng, id, 3, 2))
	}
	b1, b2 := randObject(rng, 20, 4, 2), randObject(rng, 21, 3, 2)
	if err := s.ApplyBatch([]*fuzzy.Object{b1, b2}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	want[20], want[21] = b1, b2
	delete(want, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func mustOpenDir(t *testing.T, dir, ctx string) *LogStore {
	t.Helper()
	s, err := OpenLog(filepath.Join(dir, ckptTestBase), 0)
	if err != nil {
		t.Fatalf("%s: reopen: %v", ctx, err)
	}
	return s
}

// checkState asserts the store's live set is exactly want, payloads
// included.
func checkState(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object, ctx string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: len = %d, want %d", ctx, s.Len(), len(want))
	}
	for _, id := range s.IDs() {
		if _, ok := want[id]; !ok {
			t.Fatalf("%s: unexpected live id %d", ctx, id)
		}
	}
	for id, o := range want {
		got, err := s.Get(id)
		if err != nil {
			t.Fatalf("%s: get %d: %v", ctx, id, err)
		}
		sameObject(t, o, got)
	}
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, de := range ents {
		names[i] = de.Name()
	}
	return names
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// --- basic lifecycle ---

func TestCheckpointBasic(t *testing.T) {
	dir := t.TempDir()
	want := churnedBase(t, dir)
	s := mustOpenDir(t, dir, "initial")
	defer s.Close()

	if info, can := s.CheckpointInfo(); !can || info.Generation != 0 {
		t.Fatalf("fresh store: can=%v info=%+v", can, info)
	}
	info, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Objects != len(want) || info.Bytes <= 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	if info.TailBytes != 0 {
		t.Fatalf("quiescent checkpoint leaves tail %d", info.TailBytes)
	}
	if info.CreatedAt.IsZero() {
		t.Fatal("checkpoint has no creation time")
	}
	for _, p := range []string{ckptTestBase + ".manifest", ckptTestBase + ".ckpt-1"} {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			t.Fatalf("missing %s after checkpoint: %v", p, err)
		}
	}
	// Reads keep working against the rebound (checkpoint-backed) entries.
	checkState(t, s, want, "after checkpoint")

	// Mutations after the cut land in the log suffix.
	rng := rand.New(rand.NewPCG(9, 9))
	extra := randObject(rng, 100, 3, 2)
	if err := insertOne(s, extra); err != nil {
		t.Fatal(err)
	}
	want[100] = extra
	if err := deleteOne(s, 1); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpenDir(t, dir, "after suffix")
	checkState(t, s2, want, "after suffix")
	if got := s2.ReplayedRecords(); got != 2 {
		t.Fatalf("replayed %d suffix records, want 2", got)
	}
	// A second checkpoint supersedes the first and unlinks its file.
	info2, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Generation != 2 || info2.Objects != len(want) {
		t.Fatalf("second checkpoint info = %+v", info2)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase+".ckpt-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("superseded checkpoint still present: %v", err)
	}
	checkState(t, s2, want, "generation 2")
	s2.Close()

	s3 := mustOpenDir(t, dir, "generation 2 reopen")
	defer s3.Close()
	checkState(t, s3, want, "generation 2 reopen")
	if got := s3.ReplayedRecords(); got != 0 {
		t.Fatalf("replayed %d records after quiescent checkpoint, want 0", got)
	}
}

func TestCompactLogBasic(t *testing.T) {
	dir := t.TempDir()
	want := churnedBase(t, dir)
	s := mustOpenDir(t, dir, "initial")
	defer s.Close()
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint churn: new inserts, a checkpointed id deleted, another
	// deleted and reinserted. Compaction must keep exactly this state.
	rng := rand.New(rand.NewPCG(5, 5))
	for _, id := range []uint64{30, 31} {
		o := randObject(rng, id, 3, 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[id] = o
	}
	if err := deleteOne(s, 1); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	if err := deleteOne(s, 4); err != nil {
		t.Fatal(err)
	}
	re := randObject(rng, 4, 4, 2)
	if err := insertOne(s, re); err != nil {
		t.Fatal(err)
	}
	want[4] = re

	info, err := s.CompactLog()
	if err != nil {
		t.Fatal(err)
	}
	if info.LogSeq != 1 {
		t.Fatalf("compacted log sequence = %d, want 1", info.LogSeq)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("superseded base log still present after compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase+".log-1")); err != nil {
		t.Fatalf("compacted log missing: %v", err)
	}
	checkState(t, s, want, "after compaction")

	// The store stays writable on the new log.
	o := randObject(rng, 40, 3, 2)
	if err := insertOne(s, o); err != nil {
		t.Fatal(err)
	}
	want[40] = o
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpenDir(t, dir, "after compaction")
	checkState(t, s2, want, "after compaction reopen")
	// Suffix was 2 tombstones (1, 4) + 3 puts (4, 30, 31) + 1 post-compaction
	// put: far below the full history.
	if got := s2.ReplayedRecords(); got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
	// Compacting again rolls the sequence forward and drops log-1.
	if info, err = s2.CompactLog(); err != nil {
		t.Fatal(err)
	}
	if info.LogSeq != 2 {
		t.Fatalf("second compaction sequence = %d", info.LogSeq)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase+".log-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("superseded log-1 still present")
	}
	checkState(t, s2, want, "after second compaction")
	s2.Close()

	s3 := mustOpenDir(t, dir, "final")
	defer s3.Close()
	checkState(t, s3, want, "final reopen")
}

// TestCompactLogWithoutCheckpoint compacts a store that never checkpointed:
// the whole history collapses into the live set.
func TestCompactLogWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	want := churnedBase(t, dir)
	s := mustOpenDir(t, dir, "initial")
	history := s.ReplayedRecords()
	if info, err := s.CompactLog(); err != nil {
		t.Fatal(err)
	} else if info.Generation != 0 || info.LogSeq != 1 {
		t.Fatalf("info = %+v", info)
	}
	checkState(t, s, want, "compacted, no checkpoint")
	s.Close()

	s2 := mustOpenDir(t, dir, "reopen")
	defer s2.Close()
	checkState(t, s2, want, "reopen")
	if got := s2.ReplayedRecords(); got != len(want) || got >= history {
		t.Fatalf("replayed %d records, want %d (history was %d)", got, len(want), history)
	}
}

func TestCheckpointUnsupported(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	mem, err := NewMemStore([]*fuzzy.Object{randObject(rng, 1, 3, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := As[Checkpointer](NewCounting(NewLRU(mem, 4))); ok {
		t.Fatalf("mem-backed stack claims a checkpoint side: %T", cp)
	}
}

// TestWrapperCheckpointForwarding drives a checkpoint found by As through
// Counting and LRU wrappers stacked on a log store.
func TestWrapperCheckpointForwarding(t *testing.T) {
	dir := t.TempDir()
	want := churnedBase(t, dir)
	s := mustOpenDir(t, dir, "initial")
	defer s.Close()
	wrapped := NewLRU(NewCounting(s), 4)
	cp, ok := As[Checkpointer](wrapped)
	if !ok {
		t.Fatal("checkpoint side not reachable through the wrappers")
	}
	info, err := cp.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.Objects != len(want) {
		t.Fatalf("wrapped checkpoint info = %+v", info)
	}
	if _, err := cp.CompactLog(); err != nil {
		t.Fatal(err)
	}
	if got, can := cp.CheckpointInfo(); !can || got.Generation != 1 {
		t.Fatalf("wrapped CheckpointInfo: can=%v %+v", can, got)
	}
	// Cached reads stay correct across the swap.
	for id, o := range want {
		got, err := wrapped.Get(id)
		if err != nil {
			t.Fatalf("get %d through wrappers: %v", id, err)
		}
		sameObject(t, o, got)
	}
}

// --- crash windows: kill sweeps ---

// TestCheckpointCrashWindows simulates a kill at every byte of the two
// checkpoint publication steps (snapshot temp file, manifest temp file) and
// at the two committed states in between. Every crash state must reopen to
// exactly the pre-checkpoint live set — the log alone is authoritative
// until the manifest rename — and leave no debris behind.
func TestCheckpointCrashWindows(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)

	// Learn the exact bytes a real checkpoint produces.
	scratch := t.TempDir()
	copyDirFiles(t, base, scratch)
	s := mustOpenDir(t, scratch, "scratch")
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ckptBytes := readFileT(t, filepath.Join(scratch, ckptTestBase+".ckpt-1"))
	manBytes := readFileT(t, filepath.Join(scratch, ckptTestBase+".manifest"))

	crash := t.TempDir()
	reopen := func(ctx string, files map[string][]byte) *LogStore {
		t.Helper()
		resetDir(t, crash)
		copyDirFiles(t, base, crash)
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := mustOpenDir(t, crash, ctx)
		checkState(t, s, want, ctx)
		return s
	}
	checkDebris := func(ctx string, keep ...string) {
		t.Helper()
		got := dirNames(t, crash)
		if len(got) != len(keep) {
			t.Fatalf("%s: debris not cleaned, dir holds %v, want %v", ctx, got, keep)
		}
	}

	// Window 1 — killed while streaming the snapshot: a torn .ckpt-1.tmp at
	// every byte. No manifest exists, so the log is authoritative.
	for cut := 0; cut <= len(ckptBytes); cut++ {
		s := reopen("torn ckpt tmp", map[string][]byte{ckptTestBase + ".ckpt-1.tmp": ckptBytes[:cut]})
		s.Close()
	}
	checkDebris("torn ckpt tmp", ckptTestBase)

	// Window 2 — snapshot renamed, manifest never written: the complete but
	// uncommitted checkpoint is unreachable debris.
	s2 := reopen("ckpt without manifest", map[string][]byte{ckptTestBase + ".ckpt-1": ckptBytes})
	s2.Close()
	checkDebris("ckpt without manifest", ckptTestBase)

	// Window 3 — killed while writing the manifest temp file, at every byte.
	for cut := 0; cut <= len(manBytes); cut++ {
		s := reopen("torn manifest tmp", map[string][]byte{
			ckptTestBase + ".ckpt-1":       ckptBytes,
			ckptTestBase + ".manifest.tmp": manBytes[:cut],
		})
		s.Close()
	}
	checkDebris("torn manifest tmp", ckptTestBase)

	// Window 4 — manifest renamed: the checkpoint is committed; reopen loads
	// it and replays nothing.
	s4 := reopen("manifest committed", map[string][]byte{
		ckptTestBase + ".ckpt-1":   ckptBytes,
		ckptTestBase + ".manifest": manBytes,
	})
	if got := s4.ReplayedRecords(); got != 0 {
		t.Fatalf("committed checkpoint: replayed %d records, want 0", got)
	}
	s4.Close()
	checkDebris("manifest committed", ckptTestBase, ckptTestBase+".ckpt-1", ckptTestBase+".manifest")

	// Adversarial — the manifest names a checkpoint that is torn (a state no
	// crash can produce, only file-system damage): reopen must refuse loudly
	// at every truncation point rather than serve a partial live set.
	for cut := 0; cut < len(ckptBytes); cut++ {
		resetDir(t, crash)
		copyDirFiles(t, base, crash)
		for name, data := range map[string][]byte{
			ckptTestBase + ".ckpt-1":   ckptBytes[:cut],
			ckptTestBase + ".manifest": manBytes,
		} {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenLog(filepath.Join(crash, ckptTestBase), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("checkpoint torn at %d/%d: err = %v, want ErrCorrupt", cut, len(ckptBytes), err)
		}
	}
	// ... and a manifest pointing at a missing checkpoint likewise.
	resetDir(t, crash)
	copyDirFiles(t, base, crash)
	if err := os.WriteFile(filepath.Join(crash, ckptTestBase+".manifest"), manBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(filepath.Join(crash, ckptTestBase), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestCompactionCrashWindows simulates a kill at every byte of the
// compacted-log swap. Compaction never changes the logical state, so every
// crash state — torn new log, uncommitted new log, committed manifest with
// the old log lingering, fully cleaned — must reopen to the same live set.
func TestCompactionCrashWindows(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)
	// Give compaction real work: checkpoint, then churn a suffix.
	s := mustOpenDir(t, base, "base")
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(77, 77))
	for _, id := range []uint64{30, 31} {
		o := randObject(rng, id, 3, 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[id] = o
	}
	if err := deleteOne(s, 1); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	if err := deleteOne(s, 4); err != nil {
		t.Fatal(err)
	}
	re := randObject(rng, 4, 5, 2)
	if err := insertOne(s, re); err != nil {
		t.Fatal(err)
	}
	want[4] = re
	s.Close()

	// Learn the artifacts a real compaction produces.
	scratch := t.TempDir()
	copyDirFiles(t, base, scratch)
	s2 := mustOpenDir(t, scratch, "scratch")
	if _, err := s2.CompactLog(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	logBytes := readFileT(t, filepath.Join(scratch, ckptTestBase+".log-1"))
	manBytes := readFileT(t, filepath.Join(scratch, ckptTestBase+".manifest"))
	ckptBytes := readFileT(t, filepath.Join(scratch, ckptTestBase+".ckpt-1"))

	crash := t.TempDir()
	build := func(files map[string][]byte, withBase bool) {
		t.Helper()
		resetDir(t, crash)
		if withBase {
			copyDirFiles(t, base, crash)
		} else {
			// Post-unlink state: only what the new manifest references.
			for name, data := range map[string][]byte{
				ckptTestBase + ".ckpt-1": ckptBytes,
			} {
				if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(ctx string) {
		t.Helper()
		s := mustOpenDir(t, crash, ctx)
		checkState(t, s, want, ctx)
		s.Close()
	}

	// Window 1 — killed while streaming the new log: torn .log-1.tmp at
	// every byte; the old manifest still names the old log.
	for cut := 0; cut <= len(logBytes); cut++ {
		build(map[string][]byte{ckptTestBase + ".log-1.tmp": logBytes[:cut]}, true)
		reopen("torn compacted log tmp")
	}
	if got := dirNames(t, crash); len(got) != 3 { // log, manifest, ckpt-1
		t.Fatalf("debris after torn-tmp sweep: %v", got)
	}

	// Window 2 — new log renamed but manifest not yet swapped: the old
	// manifest wins and the orphaned log-1 is debris.
	build(map[string][]byte{ckptTestBase + ".log-1": logBytes}, true)
	reopen("uncommitted compacted log")
	if _, err := os.Stat(filepath.Join(crash, ckptTestBase+".log-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("uncommitted compacted log not cleaned up")
	}

	// Window 3 — manifest swapped, old log still on disk: the new log wins
	// and the superseded base log is debris.
	build(map[string][]byte{
		ckptTestBase + ".log-1":    logBytes,
		ckptTestBase + ".manifest": manBytes,
	}, true)
	reopen("committed, old log lingering")
	if _, err := os.Stat(filepath.Join(crash, ckptTestBase)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("superseded base log not cleaned up")
	}

	// Window 4 — fully cleaned final state.
	build(map[string][]byte{
		ckptTestBase + ".log-1":    logBytes,
		ckptTestBase + ".manifest": manBytes,
	}, false)
	reopen("final state")

	// Adversarial — manifest committed but the compacted log truncated under
	// it: those bytes were fsync'd before the rename, so losing them is
	// corruption, not a crash tail. Refuse at every byte.
	for cut := 0; cut < len(logBytes); cut++ {
		build(map[string][]byte{
			ckptTestBase + ".log-1":    logBytes[:cut],
			ckptTestBase + ".manifest": manBytes,
		}, false)
		if _, err := OpenLog(filepath.Join(crash, ckptTestBase), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("compacted log truncated at %d/%d: err = %v, want ErrCorrupt", cut, len(logBytes), err)
		}
	}
}

// TestLogSuffixKillSweepAfterCheckpoint kills the writer at every byte of
// the log suffix appended after a committed checkpoint. Cuts below the
// manifest's fsync'd size must be refused; cuts above it must reopen with
// the checkpoint plus exactly the fully-framed suffix records.
func TestLogSuffixKillSweepAfterCheckpoint(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)
	s := mustOpenDir(t, base, "base")
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(base, ckptTestBase)
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	manSize := st.Size() // quiescent checkpoint: manifest size == file size

	// Append a suffix one record at a time, recording each frame boundary.
	s, err = OpenLogPolicy(logPath, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	type step struct {
		id  uint64
		end int64
	}
	var steps []step
	for _, id := range []uint64{50, 51, 52, 53} {
		o := randObject(rng, id, 3, 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[id] = o
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{id: id, end: st.Size()})
	}
	s.Close()
	full := readFileT(t, logPath)
	manBytes := readFileT(t, filepath.Join(base, ckptTestBase+".manifest"))
	ckptBytes := readFileT(t, filepath.Join(base, ckptTestBase+".ckpt-1"))

	crash := t.TempDir()
	for cut := int64(logHeaderSize); cut <= int64(len(full)); cut++ {
		resetDir(t, crash)
		for name, data := range map[string][]byte{
			ckptTestBase:               full[:cut],
			ckptTestBase + ".manifest": manBytes,
			ckptTestBase + ".ckpt-1":   ckptBytes,
		} {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenLog(filepath.Join(crash, ckptTestBase), 0)
		if cut < manSize {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d below fsync'd size %d: err = %v, want ErrCorrupt", cut, manSize, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		wantLen := len(want) - len(steps)
		replay := 0
		for _, sp := range steps {
			if sp.end <= cut {
				wantLen++
				replay++
			}
		}
		if s.Len() != wantLen {
			t.Fatalf("cut %d: len = %d, want %d", cut, s.Len(), wantLen)
		}
		if got := s.ReplayedRecords(); got != replay {
			t.Fatalf("cut %d: replayed %d, want %d", cut, got, replay)
		}
		for _, sp := range steps {
			_, err := s.Get(sp.id)
			if complete := sp.end <= cut; complete != (err == nil) {
				t.Fatalf("cut %d: id %d complete=%v err=%v", cut, sp.id, complete, err)
			}
		}
		s.Close()
	}
}

// --- liveness under concurrency ---

// TestCheckpointConcurrentWrites churns the store from a writer goroutine
// while checkpoints and compactions run, then verifies the final durable
// state reopens exactly.
func TestCheckpointConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ckptTestBase)
	s, err := OpenLogPolicy(path, 2, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 1; i <= 40; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 3, 2)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewPCG(3, 4))
		next := uint64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Insert a fresh id, churn an existing one, read a few back.
			if err := insertOne(s, randObject(wrng, next, 3, 2)); err != nil {
				t.Error(err)
				return
			}
			victim := uint64(1 + wrng.IntN(40))
			if err := deleteOne(s, victim); err == nil {
				if err := insertOne(s, randObject(wrng, victim, 3, 2)); err != nil {
					t.Error(err)
					return
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Error(err)
				return
			}
			if _, err := s.Get(next); err != nil {
				t.Error(err)
				return
			}
			next++
		}
	}()

	for i := 0; i < 4; i++ {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CompactLog(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Capture the final state through the live handle, then prove the
	// durable files reproduce it.
	want := map[uint64]*fuzzy.Object{}
	for _, id := range s.IDs() {
		o, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = o
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpenDir(t, dir, "after concurrent churn")
	defer s2.Close()
	checkState(t, s2, want, "after concurrent churn")
}

// --- reopen cost ---

// TestReopenCostProportionalToLive is the structural O(live) claim: after
// checkpoint + compaction, reopen replays zero records no matter how much
// history the store has burned through.
func TestReopenCostProportionalToLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ckptTestBase)
	s, err := OpenLogPolicy(path, 2, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	const live = 40
	for i := 1; i <= live; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 3, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10; round++ {
		for i := 1; i <= live; i++ {
			if err := deleteOne(s, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if err := insertOne(s, randObject(rng, uint64(i), 3, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()

	s2 := mustOpenDir(t, dir, "history")
	history := s2.ReplayedRecords()
	if history < 10*live {
		t.Fatalf("churn produced only %d records", history)
	}
	if _, err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.CompactLog(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := mustOpenDir(t, dir, "checkpointed")
	defer s3.Close()
	if s3.Len() != live {
		t.Fatalf("len = %d", s3.Len())
	}
	if got := s3.ReplayedRecords(); got != 0 {
		t.Fatalf("checkpointed reopen replayed %d records, want 0 (history was %d)", got, history)
	}
}

// TestReplayAllocationsBounded pins the replay loop's buffer reuse: reopening
// a log with ~900 records must not allocate per record. The bound is far
// above real costs (maps, id slice, handles) but far below one-alloc-per-
// record, so a regression to per-record buffers trips it immediately.
func TestReplayAllocationsBounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ckptTestBase)
	s, err := OpenLogPolicy(path, 2, SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(12, 12))
	records := 0
	for i := 1; i <= 300; i++ {
		if err := insertOne(s, randObject(rng, uint64(i), 3, 2)); err != nil {
			t.Fatal(err)
		}
		records++
		if i%2 == 0 {
			if err := deleteOne(s, uint64(i)); err != nil {
				t.Fatal(err)
			}
			records++
			if err := insertOne(s, randObject(rng, uint64(i), 3, 2)); err != nil {
				t.Fatal(err)
			}
			records++
		}
	}
	s.Close()

	allocs := testing.AllocsPerRun(5, func() {
		s, err := OpenLog(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if allocs > float64(records)/2 {
		t.Fatalf("reopen of %d records allocated %.0f times — replay is allocating per record", records, allocs)
	}
}
