package query

import (
	"errors"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// reID clones an object under a different id.
func reID(o *fuzzy.Object, id uint64) *fuzzy.Object {
	return fuzzy.MustNew(id, o.WeightedPoints())
}

// degradedFixture builds a log-backed index — one log per shard, each
// holding exactly the ids ShardOf assigns to it, as NewSharded requires —
// and returns it with the ids it holds.
func degradedFixture(t *testing.T, shards int) (Searcher, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	dir := t.TempDir()
	var ids []uint64
	stores := make([]*store.LogStore, shards)
	for i := range stores {
		ls, err := store.OpenLogPolicy(filepath.Join(dir, string(rune('a'+i))+".log"), 2, store.SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ls.Close() })
		stores[i] = ls
	}
	for id := uint64(1); id <= uint64(6*shards); id++ {
		o := reID(makeObjects(rng, 1, 3, 4, 0)[0], id)
		if err := stores[ShardOf(id, shards)].ApplyBatch([]*fuzzy.Object{o}, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	built := make([]*Index, shards)
	for i, ls := range stores {
		var err error
		if built[i], err = Build(ls, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if shards == 1 {
		return built[0], ids
	}
	sx, err := NewSharded(built)
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return sx, ids
}

// TestDegradedModeStickyAfterFsyncFailure drives the full degraded
// contract on both index kinds: a failed fsync flips Degraded() sticky,
// every later write fails with store.ErrFailed, reads keep answering from
// the last snapshot, and StorageFaults counts the refusals.
func TestDegradedModeStickyAfterFsyncFailure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			ix, ids := degradedFixture(t, tc.shards)
			if ix.Degraded() != nil {
				t.Fatal("fresh index reports degraded")
			}
			rng := rand.New(rand.NewPCG(4, 4))
			probe := reID(makeObjects(rng, 1, 3, 4, 0)[0], 9000)

			fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
			_, err := Insert(ix, reID(makeObjects(rng, 1, 3, 4, 0)[0], 9001))
			fault.Reset()
			if !errors.Is(err, store.ErrFailed) {
				t.Fatalf("insert over failed fsync: %v, want store.ErrFailed", err)
			}

			d := ix.Degraded()
			if d == nil || d.Reason == "" || d.Since.IsZero() {
				t.Fatalf("degraded state after fail-stop: %+v", d)
			}
			// Sticky: failpoints are disarmed, writes still refuse.
			if _, err := Insert(ix, probe); !errors.Is(err, store.ErrFailed) {
				t.Fatalf("insert on degraded index: %v", err)
			}
			if _, err := ix.ApplyBatch(nil, ids[:1]); !errors.Is(err, store.ErrFailed) {
				t.Fatalf("batch on degraded index: %v", err)
			}
			if _, err := ix.Checkpoint(false); !errors.Is(err, store.ErrFailed) {
				t.Fatalf("checkpoint on degraded index: %v", err)
			}
			if n := ix.StorageFaults(); n < 3 {
				t.Fatalf("storage faults %d, want >= 3 (trigger + refusals)", n)
			}
			if got := ix.Degraded(); got != d {
				t.Fatalf("degraded state changed identity: %p -> %p", d, got)
			}

			// Reads keep serving the pre-fault population.
			if ix.Len() != len(ids) {
				t.Fatalf("len %d, want %d", ix.Len(), len(ids))
			}
			q := reID(makeObjects(rng, 1, 3, 4, 0)[0], 9999)
			rs, _, err := ix.AKNN(q, 3, 0.5, LBLPUB)
			if err != nil || len(rs) != 3 {
				t.Fatalf("AKNN on degraded index: %d results, err %v", len(rs), err)
			}
		})
	}
}

// TestDeleteFailurePoisonsDegraded covers the delete write path too.
func TestDeleteFailurePoisonsDegraded(t *testing.T) {
	defer fault.Reset()
	ix, ids := degradedFixture(t, 1)
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
	_, err := Delete(ix, ids[0])
	fault.Reset()
	if !errors.Is(err, store.ErrFailed) {
		t.Fatalf("delete over failed fsync: %v", err)
	}
	if ix.Degraded() == nil {
		t.Fatal("delete fail-stop did not degrade the index")
	}
	// The snapshot was never published: the object is still queryable.
	if ix.Len() != len(ids) {
		t.Fatalf("len %d after unpublished delete, want %d", ix.Len(), len(ids))
	}
}
