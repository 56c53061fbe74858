package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

// batchStores builds one fresh store per mutable kind so every batch test
// runs against both implementations of Mutator.
func batchStores(t *testing.T) map[string]Mutator {
	t.Helper()
	ms, err := NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLog(filepath.Join(t.TempDir(), "objects.fzl"), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return map[string]Mutator{"mem": ms, "log": ls}
}

func TestApplyBatchRoundTrip(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(2, 7))
			objs := make([]*fuzzy.Object, 10)
			for i := range objs {
				objs[i] = randObject(rng, uint64(i+1), 3+rng.IntN(6), 2)
			}
			if err := s.ApplyBatch(objs, nil); err != nil {
				t.Fatalf("insert batch: %v", err)
			}
			if s.Len() != len(objs) {
				t.Fatalf("len = %d, want %d", s.Len(), len(objs))
			}
			if !slices.IsSorted(s.IDs()) {
				t.Fatalf("ids not sorted: %v", s.IDs())
			}
			for _, o := range objs {
				got, err := s.Get(o.ID())
				if err != nil {
					t.Fatal(err)
				}
				sameObject(t, o, got)
			}
			// Mixed batch: new inserts plus deletes of earlier objects.
			fresh := []*fuzzy.Object{
				randObject(rng, 100, 4, 2),
				randObject(rng, 101, 4, 2),
			}
			if err := s.ApplyBatch(fresh, []uint64{3, 7}); err != nil {
				t.Fatalf("mixed batch: %v", err)
			}
			if s.Len() != len(objs) {
				t.Fatalf("len after mixed batch = %d, want %d", s.Len(), len(objs))
			}
			if live, ok := s.(LivenessChecker); ok {
				if l, known := live.Live(3); !known || l {
					t.Fatalf("Live(3) = %v, %v after delete", l, known)
				}
				if l, known := live.Live(100); !known || !l {
					t.Fatalf("Live(100) = %v, %v after insert", l, known)
				}
			}
			// Tombstoned payloads stay readable, like single deletes.
			if _, err := s.Get(3); err != nil {
				t.Fatalf("tombstoned payload unreadable: %v", err)
			}
			// The empty batch is a no-op.
			if err := s.ApplyBatch(nil, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
		})
	}
}

// TestApplyBatchValidation exercises every rejection of the batch contract
// and checks all-or-nothing: a rejected batch leaves the store untouched.
func TestApplyBatchValidation(t *testing.T) {
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(3, 9))
			seed := []*fuzzy.Object{
				randObject(rng, 1, 4, 2),
				randObject(rng, 2, 4, 2),
			}
			if err := s.ApplyBatch(seed, nil); err != nil {
				t.Fatal(err)
			}
			before := s.IDs()

			cases := []struct {
				name    string
				ins     []*fuzzy.Object
				dels    []uint64
				wantDel bool
				wantPos int
				is      error
			}{
				{"nil object", []*fuzzy.Object{nil}, nil, false, 0, nil},
				{"dims mismatch", []*fuzzy.Object{randObject(rng, 10, 4, 3)}, nil, false, 0, nil},
				{"dup vs live", []*fuzzy.Object{randObject(rng, 10, 4, 2), randObject(rng, 1, 4, 2)}, nil, false, 1, ErrDuplicate},
				{"dup in batch", []*fuzzy.Object{randObject(rng, 10, 4, 2), randObject(rng, 10, 4, 2)}, nil, false, 1, ErrDuplicate},
				{"delete not live", nil, []uint64{99}, true, 0, ErrNotFound},
				{"delete repeated", nil, []uint64{1, 1}, true, 1, nil},
				{"insert and delete same id", []*fuzzy.Object{randObject(rng, 10, 4, 2)}, []uint64{10}, true, 0, nil},
			}
			for _, tc := range cases {
				err := s.ApplyBatch(tc.ins, tc.dels)
				var ie *ItemError
				if !errors.As(err, &ie) {
					t.Fatalf("%s: error %v, want *ItemError", tc.name, err)
				}
				if ie.Delete != tc.wantDel || ie.Pos != tc.wantPos {
					t.Fatalf("%s: item (delete=%v pos=%d), want (delete=%v pos=%d)",
						tc.name, ie.Delete, ie.Pos, tc.wantDel, tc.wantPos)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("%s: error %v does not match %v", tc.name, err, tc.is)
				}
				if got := s.IDs(); !slices.Equal(got, before) {
					t.Fatalf("%s: rejected batch mutated the store: %v -> %v", tc.name, before, got)
				}
			}
		})
	}
}

// TestLogStoreBatchReplay reopens a log holding a mix of batch and single
// records and checks the replayed directory matches a sequentially written
// twin.
func TestLogStoreBatchReplay(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	dir := t.TempDir()
	batched := filepath.Join(dir, "batched.fzl")
	serial := filepath.Join(dir, "serial.fzl")

	objs := make([]*fuzzy.Object, 12)
	for i := range objs {
		objs[i] = randObject(rng, uint64(i+1), 3+rng.IntN(6), 2)
	}

	bs, err := OpenLog(batched, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.ApplyBatch(objs[:8], nil); err != nil {
		t.Fatal(err)
	}
	if err := insertOne(bs, objs[8]); err != nil { // single record between batches
		t.Fatal(err)
	}
	if err := bs.ApplyBatch(objs[9:], []uint64{2, 5}); err != nil {
		t.Fatal(err)
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}

	ss, err := OpenLog(serial, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if err := insertOne(ss, o); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{2, 5} {
		if err := deleteOne(ss, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenLog(batched, 0)
	if err != nil {
		t.Fatalf("reopen batched: %v", err)
	}
	defer b2.Close()
	s2, err := OpenLog(serial, 0)
	if err != nil {
		t.Fatalf("reopen serial: %v", err)
	}
	defer s2.Close()
	if !slices.Equal(b2.IDs(), s2.IDs()) {
		t.Fatalf("replayed ids differ: %v vs %v", b2.IDs(), s2.IDs())
	}
	for _, id := range b2.IDs() {
		bo, err := b2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		so, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, so, bo)
	}
	// Tombstoned payloads replayed from a batch record stay readable.
	if _, err := b2.Get(2); err != nil {
		t.Fatalf("batch tombstone payload unreadable after reopen: %v", err)
	}
}

// TestLogStoreKillDuringBatchReopen is the kill-during-batch regression:
// a log is cut at EVERY byte inside its final batch record (simulating a
// crash mid group commit) and reopened. The earlier fsync'd batch must
// survive intact and the torn batch must vanish whole — a partially
// replayed group commit is an atomicity violation, not a recovery.
func TestLogStoreKillDuringBatchReopen(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	dir := t.TempDir()
	path := filepath.Join(dir, "objects.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	first := []*fuzzy.Object{
		randObject(rng, 1, 3, 2),
		randObject(rng, 2, 3, 2),
		randObject(rng, 3, 3, 2),
	}
	if err := s.ApplyBatch(first, nil); err != nil {
		t.Fatal(err)
	}
	durable, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cut0 := durable.Size() // everything past here is the second batch
	second := []*fuzzy.Object{
		randObject(rng, 4, 3, 2),
		randObject(rng, 5, 3, 2),
	}
	if err := s.ApplyBatch(second, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := cut0; cut < int64(len(full)); cut++ {
		torn := filepath.Join(dir, "torn.fzl")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenLog(torn, 0)
		if err != nil {
			t.Fatalf("cut at %d: reopen failed: %v", cut, err)
		}
		if want := []uint64{1, 2, 3}; !slices.Equal(r.IDs(), want) {
			t.Fatalf("cut at %d: live ids %v, want the first batch %v intact and the torn batch dropped whole",
				cut, r.IDs(), want)
		}
		// The recovered log accepts a fresh group commit.
		if err := r.ApplyBatch([]*fuzzy.Object{randObject(rng, 9, 3, 2)}, []uint64{1}); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		r.Close()
	}

	// The uncut file replays both batches.
	r, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if want := []uint64{1, 3, 4, 5}; !slices.Equal(r.IDs(), want) {
		t.Fatalf("full replay ids %v, want %v", r.IDs(), want)
	}
}

// TestLogStoreBatchCorruptLengthRefused plants a corrupted length field in
// a batch frame whose bytes then stop looking like a crash tail: reopen
// must refuse to truncate (ErrCorrupt) instead of destroying the fsync'd
// records that follow the corruption.
func TestLogStoreBatchCorruptLengthRefused(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	dir := t.TempDir()
	path := filepath.Join(dir, "objects.fzl")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(s, randObject(rng, 1, 3, 2)); err != nil {
		t.Fatal(err)
	}
	preBatch, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	batchPos := preBatch.Size()
	if err := s.ApplyBatch([]*fuzzy.Object{
		randObject(rng, 2, 3, 2),
		randObject(rng, 3, 3, 2),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Inflate the batch frame's length so the record claims to extend past
	// end-of-file: a naive tail check would truncate the whole (valid,
	// fsync'd) batch away. The sub-record walk sees every claimed
	// sub-record complete well before the inflated length runs out — that
	// inconsistency proves a corrupt length field, and reopen must refuse.
	mut := append([]byte(nil), data...)
	origLen := binary.LittleEndian.Uint32(mut[batchPos+1:])
	binary.LittleEndian.PutUint32(mut[batchPos+1:], origLen+1000)
	corrupt := filepath.Join(dir, "corrupt.fzl")
	if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(corrupt, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted batch length: error %v, want ErrCorrupt refusal", err)
	}

	// A deflated length (the frame claims fewer bytes than the batch holds)
	// makes the record look complete with a bad checksum — also corruption.
	mut2 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut2[batchPos+1:], origLen-60)
	deflated := filepath.Join(dir, "deflated.fzl")
	if err := os.WriteFile(deflated, mut2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(deflated, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deflated batch length: error %v, want ErrCorrupt", err)
	}
}

// TestLogStoreApplyBatchSyncPolicies commits batches under every policy
// name; each must land identically on disk (policy only changes whether
// fsync runs). SyncBatch is a legacy name for SyncAlways, not a third
// behaviour.
func TestLogStoreApplyBatchSyncPolicies(t *testing.T) {
	if SyncBatch != SyncAlways {
		t.Fatalf("SyncBatch = %v, want the same value as SyncAlways", SyncBatch)
	}
	rng := rand.New(rand.NewPCG(13, 1))
	objs := []*fuzzy.Object{
		randObject(rng, 1, 3, 2),
		randObject(rng, 2, 3, 2),
	}
	for name, policy := range map[string]SyncPolicy{"always": SyncAlways, "batch": SyncBatch, "off": SyncOff} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "objects.fzl")
			s, err := OpenLogPolicy(path, 2, policy)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyBatch(objs, nil); err != nil {
				t.Fatal(err)
			}
			if err := insertOne(s, randObject(rng, 3, 3, 2)); err != nil {
				t.Fatal(err)
			}
			if err := deleteOne(s, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenLog(path, 0)
			if err != nil {
				t.Fatalf("reopen under %v: %v", policy, err)
			}
			defer r.Close()
			if want := []uint64{2, 3}; !slices.Equal(r.IDs(), want) {
				t.Fatalf("ids %v, want %v", r.IDs(), want)
			}
		})
	}
}

// TestWrapperBatchForwarding drives ApplyBatch through Counting and LRU
// stacks: writes stay uncounted, caches drop touched ids, liveness probes
// forward.
func TestWrapperBatchForwarding(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 4))
	ms, err := NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	lru := NewLRU(ms, 8)
	c := NewCounting(lru)
	// The write side of the stack is the cache (it must see writes to
	// invalidate), not the counter above it or the store below it.
	w, ok := As[Mutator](c)
	if !ok || w != Mutator(lru) {
		t.Fatalf("As[Mutator] resolved %T, want the LRU", w)
	}

	objs := []*fuzzy.Object{
		randObject(rng, 1, 3, 2),
		randObject(rng, 2, 3, 2),
	}
	if err := w.ApplyBatch(objs, nil); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 0 {
		t.Fatalf("batch writes counted as %d accesses", c.Count())
	}
	lc, ok := As[LivenessChecker](c)
	if !ok {
		t.Fatal("liveness side not reachable through the wrappers")
	}
	if live, known := lc.Live(1); !known || !live {
		t.Fatalf("Live(1) through wrappers = %v, %v", live, known)
	}
	if _, err := c.Get(1); err != nil { // warm the cache
		t.Fatal(err)
	}
	replacement := randObject(rng, 1, 5, 2)
	if err := w.ApplyBatch([]*fuzzy.Object{replacement}, []uint64{1}); err == nil {
		t.Fatal("insert+delete of one id must be rejected")
	}
	// Delete then re-insert id 1 across two batches; the cache must serve
	// the new payload, not the pre-batch one.
	if err := w.ApplyBatch(nil, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyBatch([]*fuzzy.Object{replacement}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, replacement, got)
}

// TestCommitCostIndependentOfPopulation pins what dropping the maintained id
// list bought: a one-item commit into a 50 000-id store allocates for its
// item, not for the population (re-merging a sorted id slice on every commit
// cost 8 bytes per live id — 400 KB here), and IDs() still comes back
// ascending after a random history of single and grouped mutations.
func TestCommitCostIndependentOfPopulation(t *testing.T) {
	const population = 50_000
	rng := rand.New(rand.NewPCG(23, 9))
	seed := make([]*fuzzy.Object, population)
	for i := range seed {
		seed[i] = randObject(rng, uint64(i+1), 2, 2)
	}
	for name, s := range batchStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.ApplyBatch(seed, nil); err != nil {
				t.Fatal(err)
			}
			const commits = 64
			extra := make([]*fuzzy.Object, commits)
			for i := range extra {
				extra[i] = randObject(rng, uint64(population+i+1), 2, 2)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, o := range extra {
				if err := insertOne(s, o); err != nil {
					t.Fatal(err)
				}
				if err := deleteOne(s, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			const bound = 4 << 10 // bytes per one-item commit
			if per := (after.TotalAlloc - before.TotalAlloc) / (2 * commits); per > bound {
				t.Errorf("a one-item commit into %d ids allocates %d bytes, want ≤ %d", population, per, bound)
			}

			model := make(map[uint64]bool, population)
			for id := uint64(commits + 1); id <= population+commits; id++ {
				model[id] = true
			}
			next := uint64(population + commits + 1)
			for step := 0; step < 200; step++ {
				var ins []*fuzzy.Object
				var dels []uint64
				for range 1 + rng.IntN(3) {
					if rng.IntN(2) == 0 {
						ins = append(ins, randObject(rng, next, 2, 2))
						next++
					} else if id := uint64(commits + 1 + rng.IntN(population)); model[id] && !slices.Contains(dels, id) {
						dels = append(dels, id)
					}
				}
				if err := s.ApplyBatch(ins, dels); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, o := range ins {
					model[o.ID()] = true
				}
				for _, id := range dels {
					delete(model, id)
				}
			}
			ids := s.IDs()
			if len(ids) != len(model) || s.Len() != len(model) {
				t.Fatalf("IDs() has %d ids, Len() %d, model %d", len(ids), s.Len(), len(model))
			}
			for i, id := range ids {
				if !model[id] || (i > 0 && ids[i-1] >= id) {
					t.Fatalf("IDs()[%d] = %d: not live, or not ascending after %d", i, id, ids[max(i-1, 0)])
				}
			}
		})
	}
}

// TestLogStoreReplaysOneItemBatchRecord: logs written before one-item groups
// became plain records hold batch records of count one (every lone engine
// commit wrote one); they must keep replaying, and a lone commit appended
// after them must land as the plain record.
func TestLogStoreReplaysOneItemBatchRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 5))
	a, b := randObject(rng, 1, 3, 2), randObject(rng, 2, 3, 2)
	rec := codec.AppendRecord(nil, a)
	payload := binary.LittleEndian.AppendUint32(nil, 1)
	payload = append(payload, recPut)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec)))
	payload = append(payload, rec...)
	image := appendFrame(logHeader(2), recBatch, payload)
	path := filepath.Join(t.TempDir(), "objects.fzl")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenLog(path, 0)
	if err != nil {
		t.Fatalf("one-item batch record does not replay: %v", err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, a, got)
	if err := insertOne(s, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := appendFrame(image, recPut, codec.AppendRecord(nil, b)); !bytes.Equal(data, want) {
		t.Fatalf("a lone commit did not land as the plain put record: log is %d bytes, want %d", len(data), len(want))
	}
	r, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if want := []uint64{1, 2}; !slices.Equal(r.IDs(), want) {
		t.Fatalf("ids %v, want %v", r.IDs(), want)
	}
}
