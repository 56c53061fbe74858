package query

import (
	"errors"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// This file pins the group-commit contract beyond answers (which
// FuzzConformance in the root package checks for every history of batches
// and single mutations): a rejected batch leaves no trace, deletes are
// charged their locate probe, and readers see a batch whole.

// emptySearcher builds an empty mutable index of the requested layout.
func emptySearcher(t *testing.T, shards int, opts Options) Searcher {
	t.Helper()
	if shards <= 1 {
		ms, err := store.NewMemStore(nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	return buildShardedOver(t, nil, shards, opts)
}

// TestApplyBatchAllOrNothing checks that a rejected batch (every item
// error collected, positions exact) leaves both layouts untouched.
func TestApplyBatchAllOrNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: true}
		s := emptySearcher(t, shards, opts)
		m := newModelCheck(t, 7, nil,
			layout{name: "per-op", s: emptySearcher(t, shards, opts), perOp: true},
			layout{name: "batch", s: s},
		)
		live, okIns := m.fresh(40), m.fresh(3)
		m.apply(live, nil)
		lenBefore := s.Len()

		batch := []*fuzzy.Object{okIns[0], nil, okIns[1], mustObj(t, live[0].ID()), okIns[2]}
		dels := []uint64{live[1].ID(), 999_999, live[1].ID()}
		_, err := s.ApplyBatch(batch, dels)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("shards=%d: error %v, want *BatchError", shards, err)
		}
		wantItems := []struct {
			op  BatchOp
			pos int
		}{
			{OpInsert, 1}, // nil object
			{OpInsert, 3}, // duplicate of a live id
			{OpDelete, 1}, // unknown id
			{OpDelete, 2}, // repeated delete
		}
		if len(be.Items) != len(wantItems) {
			t.Fatalf("shards=%d: %d item errors (%v), want %d", shards, len(be.Items), be, len(wantItems))
		}
		for i, w := range wantItems {
			if be.Items[i].Op != w.op || be.Items[i].Pos != w.pos {
				t.Fatalf("shards=%d: item %d is (%v, %d), want (%v, %d)",
					shards, i, be.Items[i].Op, be.Items[i].Pos, w.op, w.pos)
			}
		}
		if !errors.Is(err, store.ErrDuplicate) || !errors.Is(err, store.ErrNotFound) || !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("shards=%d: batch error %v must expose its causes to errors.Is", shards, err)
		}
		if s.Len() != lenBefore {
			t.Fatalf("shards=%d: rejected batch changed Len %d -> %d", shards, lenBefore, s.Len())
		}
		// The corrected batch commits, and both layouts answer what the
		// scan of the model does.
		m.apply(okIns, []uint64{live[1].ID()})
		m.check("after-rejection", 2)
	}
}

// TestApplyBatchProbeAccounting builds an index over a Counting store and
// checks the probe contract: each delete costs exactly one store access
// (mirrored in its per-item Stats), inserts cost none, and liveness-level
// rejections (unknown delete id, duplicate insert) are answered from the
// store's live map without probing.
func TestApplyBatchProbeAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	objs := makeObjects(rng, 20, 5, 10, 4)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(ms)
	ix, err := Build(counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()

	ins := makeObjectsWithBase(rng, 100, 2, 5, 10, 4)
	stats, err := ix.ApplyBatch(ins, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, st := range stats {
		total += st.ObjectAccesses
	}
	if total != 3 || counting.Count() != 3 {
		t.Fatalf("batch charged %d accesses, store saw %d; want 3 (one locate per delete)", total, counting.Count())
	}

	// Liveness-checkable rejections must not probe.
	counting.Reset()
	if _, err := ix.ApplyBatch([]*fuzzy.Object{objs[5]}, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := ix.ApplyBatch(nil, []uint64{777_777}); err == nil {
		t.Fatal("unknown delete accepted")
	}
	if counting.Count() != 0 {
		t.Fatalf("liveness rejections probed the store %d times", counting.Count())
	}
}

// mustObj builds a 1-point object with the given id.
func mustObj(t *testing.T, id uint64) *fuzzy.Object {
	t.Helper()
	o, err := fuzzy.New(id, []fuzzy.WeightedPoint{{P: []float64{1, 1}, Mu: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestApplyBatchDimsAdoption: an empty index adopts the batch's
// dimensionality atomically, and a mixed-dims batch is rejected whole —
// including the cross-shard case where the two dims land on different
// shards.
func TestApplyBatchDimsAdoption(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := emptySearcher(t, shards, Options{})
		rng := rand.New(rand.NewPCG(9, 9))
		objs2 := makeObjects(rng, 6, 5, 10, 4)
		var threeD []*fuzzy.Object
		for base := uint64(100); len(threeD) < 6; base++ {
			o, err := fuzzy.New(base, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}})
			if err != nil {
				t.Fatal(err)
			}
			threeD = append(threeD, o)
		}
		if _, err := s.ApplyBatch(append(objs2[:3:3], threeD[:3]...), nil); err == nil {
			t.Fatalf("shards=%d: mixed-dims batch accepted", shards)
		}
		if s.Len() != 0 || s.Dims() != 0 {
			t.Fatalf("shards=%d: rejected batch left len=%d dims=%d", shards, s.Len(), s.Dims())
		}
		if _, err := s.ApplyBatch(objs2, nil); err != nil {
			t.Fatalf("shards=%d: 2d batch: %v", shards, err)
		}
		if s.Dims() != 2 {
			t.Fatalf("shards=%d: dims %d after 2d batch", shards, s.Dims())
		}
		if _, err := s.ApplyBatch(threeD, nil); err == nil {
			t.Fatalf("shards=%d: 3d batch accepted into 2d index", shards)
		}
	}
}

// TestApplyBatchReadOnly: every item of a batch against a read-only store
// is rejected with ErrReadOnly.
func TestApplyBatchReadOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	objs := makeObjects(rng, 5, 5, 10, 4)
	ix := buildIndex(t, objs, Options{})
	ro, err := Build(readOnlyStore{ix.Store()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ro.ApplyBatch(makeObjectsWithBase(rng, 100, 2, 5, 10, 4), []uint64{1})
	if !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("batch on read-only store: %v, want ErrReadOnly", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || len(be.Items) != 3 {
		t.Fatalf("read-only rejection must list every item: %v", err)
	}
}

// readOnlyStore hides a store's write side.
type readOnlyStore struct{ store.Reader }
