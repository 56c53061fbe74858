package store

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// failStore opens a fresh SyncAlways log store with a few live objects
// and returns it with its expected live set.
func failStore(t *testing.T, dir string) (*LogStore, map[uint64]*fuzzy.Object) {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	s, err := OpenLog(filepath.Join(dir, "fail.log"), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*fuzzy.Object{}
	for i := 1; i <= 5; i++ {
		o := randObject(rng, uint64(i), 3, 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[o.ID()] = o
	}
	return s, want
}

// assertPoisoned asserts the store is sticky fail-stopped: Failed()
// reports it, and a mutation with all failpoints disarmed still refuses.
func assertPoisoned(t *testing.T, s *LogStore, opErr error) {
	t.Helper()
	if !errors.Is(opErr, ErrFailed) {
		t.Fatalf("op error %v does not wrap ErrFailed", opErr)
	}
	if s.Failed() == nil {
		t.Fatal("Failed() = nil after fail-stop")
	}
	fault.Reset()
	rng := rand.New(rand.NewPCG(9, 9))
	if err := insertOne(s, randObject(rng, 999, 3, 2)); !errors.Is(err, ErrFailed) {
		t.Fatalf("post-poison Insert = %v, want ErrFailed (retry-and-acknowledge is forbidden)", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("post-poison Sync = %v, want ErrFailed", err)
	}
}

func TestInsertFsyncFailurePoisons(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, want := failStore(t, dir)
	defer s.Close()

	rng := rand.New(rand.NewPCG(8, 8))
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
	err := insertOne(s, randObject(rng, 100, 3, 2))
	assertPoisoned(t, s, err)

	// Reads keep serving what was already acknowledged.
	checkFailState(t, s, want, "poisoned reads")

	// Reopen recovers exactly the pre-failure state.
	s.Close()
	r, err := OpenLog(filepath.Join(dir, "fail.log"), 0)
	if err != nil {
		t.Fatalf("reopen after fail-stop: %v", err)
	}
	defer r.Close()
	checkFailState(t, r, want, "reopen")
}

func TestWriteFailuresPoison(t *testing.T) {
	for _, action := range []fault.Action{fault.ActError, fault.ActShort, fault.ActTorn} {
		t.Run(action.String(), func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			s, want := failStore(t, dir)
			defer s.Close()

			rng := rand.New(rand.NewPCG(8, 8))
			fault.Enable("store.log.write", fault.Spec{Action: action, Nth: 1})
			err := s.ApplyBatch([]*fuzzy.Object{randObject(rng, 100, 3, 2)}, []uint64{1})
			assertPoisoned(t, s, err)

			// A short or torn write must not leave tail garbage: the poison
			// path truncates back to the acknowledged prefix, so reopen
			// sees exactly the pre-op state — not ErrCorrupt.
			s.Close()
			r, err := OpenLog(filepath.Join(dir, "fail.log"), 0)
			if err != nil {
				t.Fatalf("reopen after %s write: %v", action, err)
			}
			defer r.Close()
			checkFailState(t, r, want, "reopen")
		})
	}
}

func TestExplicitSyncFailurePoisons(t *testing.T) {
	defer fault.Reset()
	s, _ := failStore(t, t.TempDir())
	defer s.Close()
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1, Err: syscall.EIO})
	err := s.Sync()
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync error %v does not expose the EIO cause", err)
	}
	assertPoisoned(t, s, err)
}

func TestCheckpointLogFsyncFailurePoisons(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, want := failStore(t, dir)
	defer s.Close()

	// Phase 3's log fsync is the second sync on the store.log file here?
	// No — under SyncAlways every insert synced already; the next
	// store.log.sync call is exactly the phase-3 commit fsync.
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
	_, err := s.Checkpoint()
	assertPoisoned(t, s, err)

	// The failed generation must not have been committed.
	if _, err := os.Stat(filepath.Join(dir, "fail.log.manifest")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest exists after aborted checkpoint: %v", err)
	}
	s.Close()
	r, err := OpenLog(filepath.Join(dir, "fail.log"), 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	checkFailState(t, r, want, "reopen")
}

func TestManifestDirSyncFailurePoisons(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, want := failStore(t, dir)
	defer s.Close()

	// The first two dirsyncs during Checkpoint publish the snapshot and the
	// suffix log (clean aborts, see TestCheckpointTempFailureIsRetryable);
	// the third makes the manifest rename durable — that one is ambiguous
	// and must poison.
	fault.Enable("store.dirsync", fault.Spec{Action: fault.ActError, Nth: 3})
	_, err := s.Checkpoint()
	assertPoisoned(t, s, err)

	// Reads still fine, reopen coherent (either manifest state is legal;
	// here the rename happened, so the new manifest governs).
	checkFailState(t, s, want, "poisoned reads")
	s.Close()
	r, err := OpenLog(filepath.Join(dir, "fail.log"), 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	checkFailState(t, r, want, "reopen")
}

func TestCheckpointTempFailureIsRetryable(t *testing.T) {
	cases := []struct {
		name, point string
		nth         uint64
	}{
		{"store.ckpt.write", "store.ckpt.write", 1},
		{"store.ckpt.sync", "store.ckpt.sync", 1},
		{"store.ckpt.rename", "store.ckpt.rename", 1},
		{"store.dirsync", "store.dirsync", 1},
		{"store.compact.write", "store.compact.write", 1},
		{"store.compact.sync", "store.compact.sync", 1},
		{"store.compact.rename", "store.compact.rename", 1},
		{"suffix-log-dirsync", "store.dirsync", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			s, want := failStore(t, dir)
			defer s.Close()

			fault.Enable(tc.point, fault.Spec{Action: fault.ActError, Nth: tc.nth, Err: syscall.ENOSPC})
			if _, err := s.Checkpoint(); err == nil {
				t.Fatalf("%s did not fail the checkpoint", tc.name)
			} else if errors.Is(err, ErrFailed) {
				t.Fatalf("%s poisoned the store — a temp-artifact failure must stay retryable", tc.name)
			}
			// The artifact fail-stopped; the store did not, and the files
			// are the pre-checkpoint ones. A retry cuts a fresh generation
			// and succeeds.
			fault.Reset()
			if got := dirNames(t, dir); !slices.Equal(got, []string{"fail.log"}) {
				t.Fatalf("%s left files %v behind", tc.name, got)
			}
			if _, err := s.Checkpoint(); err != nil {
				t.Fatalf("retry after %s: %v", tc.name, err)
			}
			checkFailState(t, s, want, "after retry")
		})
	}
}

// TestENOSPCMidCheckpointAndCompaction injects disk-full and I/O errors
// into the middle of a checkpoint's snapshot and suffix-log writes: the
// prior generation must stay intact and queryable, temp debris must be
// swept on the next reopen, and the manifest must never name a torn
// artifact.
func TestENOSPCMidCheckpointAndCompaction(t *testing.T) {
	cases := []struct {
		name  string
		point string
		errno error
	}{
		{"enospc-mid-checkpoint", "store.ckpt.write", syscall.ENOSPC},
		{"eio-mid-checkpoint", "store.ckpt.write", syscall.EIO},
		{"enospc-mid-compaction", "store.compact.write", syscall.ENOSPC},
		{"eio-mid-compaction", "store.compact.write", syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			dir := t.TempDir()
			s, want := failStore(t, dir)
			defer s.Close()
			// Establish a prior generation so the injected failure strikes
			// an upgrade, not the first cut.
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			priorGen := mustGen(t, s)

			// Fail the artifact's stream write with a realistic errno (the
			// writer buffers, so this is the flush that would have landed
			// the records).
			fault.Enable(tc.point, fault.Spec{Action: fault.ActError, Nth: 1, Err: tc.errno})
			_, err := s.Checkpoint()
			if err == nil {
				t.Fatal("checkpoint did not fail")
			}
			if !errors.Is(err, tc.errno) {
				t.Fatalf("error %v does not expose the injected errno", err)
			}
			if errors.Is(err, ErrFailed) {
				t.Fatal("temp-artifact failure poisoned the store")
			}
			fault.Reset()

			// Prior generation intact and queryable, live.
			if gen := mustGen(t, s); gen != priorGen {
				t.Fatalf("generation moved %d -> %d across a failed op", priorGen, gen)
			}
			checkFailState(t, s, want, "after failed op")

			// Reopen: same state, manifest still names whole artifacts,
			// and any temp debris is swept.
			s.Close()
			r, err := OpenLog(filepath.Join(dir, "fail.log"), 0)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			checkFailState(t, r, want, "reopen")
			if gen := mustGen(t, r); gen != priorGen {
				t.Fatalf("reopened generation %d, want %d", gen, priorGen)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range ents {
				if strings.HasSuffix(de.Name(), ".tmp") {
					t.Fatalf("temp debris %s survived reopen", de.Name())
				}
			}
		})
	}
}

func mustGen(t *testing.T, s *LogStore) uint64 {
	t.Helper()
	info, ok := s.CheckpointInfo()
	if !ok {
		t.Fatal("CheckpointInfo unsupported")
	}
	return info.Generation
}

// checkFailState is checkState without the shared test-file dependency on
// checkpoint_test's base path.
func checkFailState(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object, ctx string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: len = %d, want %d", ctx, s.Len(), len(want))
	}
	for id, o := range want {
		got, err := s.Get(id)
		if err != nil {
			t.Fatalf("%s: get %d: %v", ctx, id, err)
		}
		sameObject(t, o, got)
	}
}
