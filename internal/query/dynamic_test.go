package query

import (
	"errors"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

func TestInsertDeleteBasics(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	objs := makeObjects(rng, 30, 10, 12, 8)
	ix := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
	q := makeQuery(rng, 10, 12, 8)

	// A fresh object inserted right next to the query must become its 1-NN.
	clone := fuzzy.MustNew(1000, q.WeightedPoints())
	if _, err := Insert(ix, clone); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 31 {
		t.Fatalf("Len = %d", ix.Len())
	}
	res, _, err := ix.AKNN(q, 1, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = ix.Refine(q, 0.5, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1000 || res[0].Dist != 0 {
		t.Fatalf("inserted twin not found as 1-NN: %+v", res)
	}

	// Deleting it restores the previous answer set.
	if _, err := Delete(ix, 1000); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 30 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
	res, _, err = ix.AKNN(q, 1, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 1 && res[0].ID == 1000 {
		t.Fatal("deleted object still returned")
	}

	// Error taxonomy.
	if _, err := Insert(ix, nil); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("nil insert: %v", err)
	}
	if _, err := Insert(ix, objs[0]); !errors.Is(err, store.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := Delete(ix, 1000); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := Delete(ix, 99999); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("delete unknown: %v", err)
	}
	threeD := fuzzy.MustNew(2000, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}})
	if _, err := Insert(ix, threeD); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("mismatched dims insert: %v", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMutationsOnReadOnlyStore(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	objs := makeObjects(rng, 5, 8, 10, 0)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(readOnly{ms}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(ix, makeObjects(rng, 1, 8, 10, 0)[0]); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("insert on read-only store: %v", err)
	}
	if _, err := Delete(ix, objs[0].ID()); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("delete on read-only store: %v", err)
	}
}

// readOnly hides a store's write side.
type readOnly struct{ store.Reader }

// TestValidateQueryDimsRegression pins the fix for the dims check being
// skipped on empty indexes: an index that starts empty and learns its
// dimensionality from the first insert must reject mismatched query
// objects, including after it is drained again.
func TestValidateQueryDimsRegression(t *testing.T) {
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q2 := fuzzy.MustNew(500, []fuzzy.WeightedPoint{{P: []float64{1, 2}, Mu: 1}})
	q3 := fuzzy.MustNew(501, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}})

	// Truly dimensionless (never-populated) index: any query dims pass
	// validation — there is nothing to contradict.
	if _, _, err := ix.AKNN(q3, 1, 0.5, Basic); err != nil {
		t.Fatalf("query on dimensionless index: %v", err)
	}

	// Populate with 2-D: 3-D queries must now fail on every entry point.
	obj := fuzzy.MustNew(1, []fuzzy.WeightedPoint{{P: []float64{5, 5}, Mu: 1}})
	if _, err := Insert(ix, obj); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.AKNN(q3, 1, 0.5, LBLPUB); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("AKNN with mismatched dims: %v", err)
	}
	if _, _, err := ix.RKNN(q3, 1, 0.2, 0.8, RSSICR); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("RKNN with mismatched dims: %v", err)
	}
	if _, _, err := ix.RangeSearch(q3, 0.5, 10); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("RangeSearch with mismatched dims: %v", err)
	}
	if _, _, err := ix.LinearScanAKNN(q3, 1, 0.5); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("LinearScanAKNN with mismatched dims: %v", err)
	}
	if _, _, err := ix.AKNN(q2, 1, 0.5, LBLPUB); err != nil {
		t.Fatalf("matching dims rejected: %v", err)
	}

	// The regression scenario: drain the index. The empty-index special
	// case used to skip the dims check here; the dimensionality is sticky
	// now, so the 3-D query must still be rejected.
	if _, err := Delete(ix, 1); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if _, _, err := ix.AKNN(q3, 1, 0.5, LBLPUB); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty-then-populated index accepted mismatched dims: %v", err)
	}
	if _, _, err := ix.AKNN(q2, 1, 0.5, LBLPUB); err != nil {
		t.Fatalf("matching dims rejected on drained index: %v", err)
	}
}

// TestSnapshotIsolation pins the core guarantee: a tree snapshot taken
// before mutations keeps answering for the old population, while new
// queries see the new one.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	objs := makeObjects(rng, 40, 10, 12, 8)
	ix := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
	before := ix.treeForTest()

	for i := 0; i < 20; i++ {
		if _, err := Delete(ix, objs[i].ID()); err != nil {
			t.Fatal(err)
		}
	}
	extra := makeObjectsWithBase(rng, 5000, 10, 10, 12, 8)
	for _, o := range extra {
		if _, err := Insert(ix, o); err != nil {
			t.Fatal(err)
		}
	}

	if before.Len() != 40 {
		t.Fatalf("snapshot Len changed to %d", before.Len())
	}
	if err := before.CheckInvariants(); err != nil {
		t.Fatalf("snapshot corrupted by later mutations: %v", err)
	}
	if ix.Len() != 30 {
		t.Fatalf("live Len = %d", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
