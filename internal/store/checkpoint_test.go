package store

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fuzzyknn/internal/fault"
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
	if info.TailBytes != 0 || info.LogSeq != 1 || info.LogBytes != logHeaderSize {
		t.Fatalf("quiescent checkpoint leaves log %d, %d bytes, tail %d", info.LogSeq, info.LogBytes, info.TailBytes)
	}
	if info.CreatedAt.IsZero() {
		t.Fatal("checkpoint has no creation time")
	}
	// The whole history collapsed into the snapshot and an empty log.
	if got, want := dirNames(t, dir), []string{ckptTestBase + ".ckpt-1", ckptTestBase + ".log-1", ckptTestBase + ".manifest"}; !slices.Equal(got, want) {
		t.Fatalf("files after checkpoint: %v, want %v", got, want)
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

// checkpointWith runs a checkpoint that write joins between the snapshot
// and the commit, as a concurrent writer would: what write lands falls past
// the cut, so the commit has a suffix to move into the next log generation.
// An error from write drops the snapshot and aborts the checkpoint.
func checkpointWith(s *LogStore, write func() error) (CheckpointInfo, error) {
	p, err := s.snapshot()
	if err != nil {
		return CheckpointInfo{}, err
	}
	if err := write(); err != nil {
		p.f.Close()
		os.Remove(ckptPath(s.path, p.gen))
		return CheckpointInfo{}, err
	}
	return s.commitCheckpoint(p)
}

// TestCheckpointMovesSuffix races a checkpoint with writes of every kind —
// new ids, a checkpointed id deleted, another deleted and reinserted — and
// checks the commit moves exactly those records into the next log
// generation: live entries keep their payloads at the shifted offsets,
// rebinding skips what the writer touched, and a tombstoned version stays
// readable through the retired log.
func TestCheckpointMovesSuffix(t *testing.T) {
	dir := t.TempDir()
	want := churnedBase(t, dir)
	s := mustOpenDir(t, dir, "initial")
	defer s.Close()
	gone, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(5, 5))
	info, err := checkpointWith(s, func() error {
		for _, id := range []uint64{30, 31} {
			o := randObject(rng, id, 3, 2)
			if err := insertOne(s, o); err != nil {
				return err
			}
			want[id] = o
		}
		if err := deleteOne(s, 1); err != nil {
			return err
		}
		delete(want, 1)
		if err := deleteOne(s, 4); err != nil {
			return err
		}
		re := randObject(rng, 4, 4, 2)
		if err := insertOne(s, re); err != nil {
			return err
		}
		want[4] = re
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.LogSeq != 1 || info.TailBytes <= 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("superseded base log still present after the checkpoint")
	}
	checkState(t, s, want, "after the checkpoint")
	if got, err := s.Get(1); err != nil {
		t.Fatalf("tombstoned version of id 1 unreadable after the checkpoint: %v", err)
	} else {
		sameObject(t, gone, got)
	}

	// The store stays writable on the new log.
	o := randObject(rng, 40, 3, 2)
	if err := insertOne(s, o); err != nil {
		t.Fatal(err)
	}
	want[40] = o
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpenDir(t, dir, "after the checkpoint")
	checkState(t, s2, want, "after the checkpoint, reopened")
	// The moved suffix is the race's 5 records; one more was appended.
	if got := s2.ReplayedRecords(); got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
	// The next checkpoint rolls the sequence forward and drops log-1.
	if info, err = s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if info.LogSeq != 2 || info.TailBytes != 0 {
		t.Fatalf("second checkpoint info = %+v", info)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTestBase+".log-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("superseded log-1 still present")
	}
	checkState(t, s2, want, "after the second checkpoint")
	s2.Close()

	s3 := mustOpenDir(t, dir, "final")
	defer s3.Close()
	checkState(t, s3, want, "final reopen")
	if got := s3.ReplayedRecords(); got != 0 {
		t.Fatalf("replayed %d records after a quiescent checkpoint, want 0", got)
	}
}

// TestCheckpointTornSuffixReadAborts: a suffix record that reads back
// corrupt during the copy — its frame (the first read) or the whole record
// (the second) — aborts the checkpoint with ErrCorrupt before anything is
// committed; the prior generation stays in charge, live and on reopen.
func TestCheckpointTornSuffixReadAborts(t *testing.T) {
	defer fault.Reset()
	for _, nth := range []uint64{1, 2} {
		dir := t.TempDir()
		want := churnedBase(t, dir)
		s := mustOpenDir(t, dir, "initial")
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		o := randObject(rand.New(rand.NewPCG(6, 6)), 30, 3, 2)
		_, err := checkpointWith(s, func() error {
			if err := insertOne(s, o); err != nil {
				return err
			}
			want[30] = o
			fault.Enable("store.log.read", fault.Spec{Action: fault.ActTorn, Nth: nth})
			return nil
		})
		fault.Reset()
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrFailed) {
			t.Fatalf("read %d torn: checkpoint = %v, want a clean ErrCorrupt", nth, err)
		}
		if gen := mustGen(t, s); gen != 1 {
			t.Fatalf("read %d torn: generation %d after the aborted checkpoint, want 1", nth, gen)
		}
		checkState(t, s, want, "after the aborted checkpoint")
		s.Close()

		r := mustOpenDir(t, dir, "after the aborted checkpoint")
		checkState(t, r, want, "reopen")
		if gen := mustGen(t, r); gen != 1 {
			t.Fatalf("read %d torn: reopened generation %d, want 1", nth, gen)
		}
		r.Close()
		if got, want := dirNames(t, dir), []string{ckptTestBase + ".ckpt-1", ckptTestBase + ".log-1", ckptTestBase + ".manifest"}; !slices.Equal(got, want) {
			t.Fatalf("read %d torn: files after the aborted checkpoint: %v, want %v", nth, got, want)
		}
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
	if got, can := cp.CheckpointInfo(); !can || got.Generation != 1 || got.LogSeq != 1 {
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

// checkpointCrashWindows kills a checkpoint of the store in base at every
// byte of each file it publishes — the snapshot, the suffix log and the
// manifest, each as a torn temp file and then complete but not named by a
// manifest — and after the manifest rename, with and without the files it
// supersedes still on disk. The checkpoint races one insert, so the suffix
// log holds a record. A checkpoint never changes the live set, so every
// state must reopen to want plus that insert, and leave only the files of
// the generation in charge: the pre-checkpoint ones before the rename, the
// new ones after it. It returns the new files' bytes.
func checkpointCrashWindows(t *testing.T, base string, want map[uint64]*fuzzy.Object) map[string][]byte {
	t.Helper()
	before := dirNames(t, base)

	// Learn the exact bytes a real checkpoint produces, and the files as
	// they stood just before its commit.
	scratch := t.TempDir()
	copyDirFiles(t, base, scratch)
	s := mustOpenDir(t, scratch, "scratch")
	pre := map[string][]byte{}
	o := randObject(rand.New(rand.NewPCG(77, 77)), 60, 4, 2)
	info, err := checkpointWith(s, func() error {
		if err := insertOne(s, o); err != nil {
			return err
		}
		for _, name := range before {
			pre[name] = readFileT(t, filepath.Join(scratch, name))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	want[o.ID()] = o
	ckptName := fmt.Sprintf("%s.ckpt-%d", ckptTestBase, info.Generation)
	logName := fmt.Sprintf("%s.log-%d", ckptTestBase, info.LogSeq)
	manName := ckptTestBase + ".manifest"
	post := map[string][]byte{}
	for _, name := range []string{ckptName, logName, manName} {
		post[name] = readFileT(t, filepath.Join(scratch, name))
	}
	after := dirNames(t, scratch)

	crash := t.TempDir()
	reopen := func(ctx string, keep []string, files ...map[string][]byte) {
		t.Helper()
		resetDir(t, crash)
		for _, set := range files {
			for name, data := range set {
				if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := mustOpenDir(t, crash, ctx)
		checkState(t, s, want, ctx)
		s.Close()
		if got := dirNames(t, crash); !slices.Equal(got, keep) {
			t.Fatalf("%s: debris not cleaned, dir holds %v, want %v", ctx, got, keep)
		}
	}
	only := func(name string, data []byte) map[string][]byte { return map[string][]byte{name: data} }

	// Before the manifest rename the pre-checkpoint generation governs and
	// everything the checkpoint wrote is debris.
	for cut := 0; cut <= len(post[ckptName]); cut++ {
		reopen("torn snapshot tmp", before, pre, only(ckptName+".tmp", post[ckptName][:cut]))
	}
	reopen("snapshot without manifest", before, pre, only(ckptName, post[ckptName]))
	for cut := 0; cut <= len(post[logName]); cut++ {
		reopen("torn suffix log tmp", before, pre, only(ckptName, post[ckptName]), only(logName+".tmp", post[logName][:cut]))
	}
	reopen("suffix log without manifest", before, pre, only(ckptName, post[ckptName]), only(logName, post[logName]))
	for cut := 0; cut <= len(post[manName]); cut++ {
		reopen("torn manifest tmp", before, pre, only(ckptName, post[ckptName]), only(logName, post[logName]),
			only(manName+".tmp", post[manName][:cut]))
	}
	// After it the new generation governs: the superseded files are debris
	// whether or not the crash struck before their unlink.
	reopen("committed, superseded files lingering", after, pre, post)
	reopen("committed", after, post)
	return post
}

// TestCheckpointCrashWindows runs the crash windows of a store's first
// checkpoint, then damages the committed files under the manifest — states
// no crash can produce, only file-system damage — which reopen must refuse
// loudly rather than serve a partial live set.
func TestCheckpointCrashWindows(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)
	post := checkpointCrashWindows(t, base, want)

	crash := t.TempDir()
	refuse := func(ctx string, files map[string][]byte) {
		t.Helper()
		resetDir(t, crash)
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(crash, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenLog(filepath.Join(crash, ckptTestBase), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", ctx, err)
		}
	}
	for _, name := range []string{ckptTestBase + ".ckpt-1", ckptTestBase + ".log-1"} {
		// The suffix log's bytes were fsync'd before the rename, so a log
		// shorter than the manifest's size lost durable records.
		for cut := 0; cut < len(post[name]); cut++ {
			damaged := maps.Clone(post)
			damaged[name] = post[name][:cut]
			refuse(fmt.Sprintf("%s torn at %d/%d", name, cut, len(post[name])), damaged)
		}
		missing := maps.Clone(post)
		delete(missing, name)
		refuse(name+" missing", missing)
	}
}

// TestCompactionCrashWindows runs the crash windows of a checkpoint that
// supersedes an earlier generation with a suffix of its own: before the
// rename, generation 1's snapshot and log must keep governing; after it,
// they are debris.
func TestCompactionCrashWindows(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)
	s := mustOpenDir(t, base, "base")
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(78, 78))
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
	s.Close()
	checkpointCrashWindows(t, base, want)
}

// TestLogSuffixKillSweepAfterCheckpoint kills the writer at every byte of
// the log suffix appended after a committed checkpoint. Cuts below the
// manifest's fsync'd size must be refused; cuts above it must reopen with
// the checkpoint plus exactly the fully-framed suffix records.
func TestLogSuffixKillSweepAfterCheckpoint(t *testing.T) {
	base := t.TempDir()
	want := churnedBase(t, base)
	s := mustOpenDir(t, base, "base")
	// The checkpoint races one insert, so the manifest's fsync'd size
	// covers a moved record.
	o := randObject(rand.New(rand.NewPCG(7, 7)), 49, 3, 2)
	if _, err := checkpointWith(s, func() error { return insertOne(s, o) }); err != nil {
		t.Fatal(err)
	}
	want[o.ID()] = o
	s.Close()
	logPath := filepath.Join(base, ckptTestBase+".log-1")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	manSize := st.Size() // the checkpoint's commit: manifest size == file size
	if manSize == logHeaderSize {
		t.Fatal("the suffix log is empty")
	}

	// Append a suffix one record at a time, recording each frame boundary.
	s = mustOpenDir(t, base, "suffix")
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
			ckptTestBase + ".log-1":    full[:cut],
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
		if got := s.ReplayedRecords(); got != replay+1 {
			t.Fatalf("cut %d: replayed %d, want %d", cut, got, replay+1)
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
// while checkpoints run, then verifies the final durable
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

	for i := 0; i < 8; i++ {
		if _, err := s.Checkpoint(); err != nil {
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
// a checkpoint, reopen replays zero records no matter how much
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
