package fuzzyknn_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"fuzzyknn"
)

// TestOpenLogIndexLifecycle exercises the durable mutable index end to end:
// create, mutate, query, reopen, and verify the mutations survived.
func TestOpenLogIndexLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.fzl")
	idx, err := fuzzyknn.OpenLogIndex(path, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if err := idx.Insert(disk(i, float64(i)*2, 0)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := idx.Delete(4); err != nil {
		t.Fatal(err)
	}
	q := disk(100, 7.9, 0)
	res, _, err := idx.AKNN(q, 1, 1.0, fuzzyknn.LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	// Object 4 (kernel at x=8) was deleted; object 3 (x=6) is now closest.
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("nearest = %+v, want id 3", res)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := fuzzyknn.OpenLogIndex(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 9 {
		t.Fatalf("reopened len = %d", reopened.Len())
	}
	res, _, err = reopened.AKNN(q, 1, 1.0, fuzzyknn.LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("after reopen: nearest = %+v, want id 3", res)
	}
	if err := reopened.Insert(disk(4, 8, 0)); err != nil {
		t.Fatalf("re-insert of deleted id after reopen: %v", err)
	}
}

// TestReadOnlyIndexRejectsMutations pins the ErrReadOnly taxonomy on
// OpenIndex-backed indexes.
func TestReadOnlyIndexRejectsMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "objects.fzs")
	objs := []*fuzzyknn.Object{disk(1, 2, 0), disk(2, 4, 0)}
	if err := fuzzyknn.SaveObjects(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	idx, err := fuzzyknn.OpenIndex(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Insert(disk(3, 6, 0)); !errors.Is(err, fuzzyknn.ErrReadOnly) {
		t.Fatalf("insert: %v", err)
	}
	if err := idx.Delete(1); !errors.Is(err, fuzzyknn.ErrReadOnly) {
		t.Fatalf("delete: %v", err)
	}
}

// TestEngineBatchMutations drives BatchInsert/BatchDelete and checks the
// per-item error reporting.
func TestEngineBatchMutations(t *testing.T) {
	idx, err := fuzzyknn.NewIndex([]*fuzzyknn.Object{disk(1, 2, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	eng := idx.NewEngine(nil)
	defer eng.Close()

	objs := make([]*fuzzyknn.Object, 20)
	for i := range objs {
		objs[i] = disk(uint64(i+10), float64(i), float64(i))
	}
	objs[7] = disk(1, 0, 0) // collides with the seed object
	errs, err := eng.BatchInsert(context.Background(), objs)
	if err == nil {
		t.Fatal("duplicate in batch not reported")
	}
	for i, e := range errs {
		if i == 7 {
			if !errors.Is(e, fuzzyknn.ErrDuplicate) {
				t.Fatalf("item 7: %v", e)
			}
		} else if e != nil {
			t.Fatalf("item %d: %v", i, e)
		}
	}
	if idx.Len() != 20 { // 1 seed + 19 successful inserts
		t.Fatalf("len = %d", idx.Len())
	}

	ids := make([]uint64, 0, 19)
	for i := range objs {
		if i != 7 {
			ids = append(ids, objs[i].ID())
		}
	}
	ids = append(ids, 54321) // unknown
	errs, err = eng.BatchDelete(context.Background(), ids)
	if err == nil {
		t.Fatal("unknown id in batch not reported")
	}
	for i, e := range errs[:len(errs)-1] {
		if e != nil {
			t.Fatalf("delete item %d: %v", i, e)
		}
	}
	if !errors.Is(errs[len(errs)-1], fuzzyknn.ErrNotFound) {
		t.Fatalf("unknown delete: %v", errs[len(errs)-1])
	}
	if idx.Len() != 1 {
		t.Fatalf("len after deletes = %d", idx.Len())
	}

	// Totals carry the new kinds.
	totals := eng.Totals()
	if totals.Requests["insert"] != 20 || totals.Requests["delete"] != 20 {
		t.Fatalf("totals = %+v", totals.Requests)
	}
	if totals.Failures != 2 {
		t.Fatalf("failures = %d", totals.Failures)
	}
}

// TestMutableIndexKeepsPaperAccounting verifies the cost model under
// mutation: a delete charges exactly one object access (locating the
// victim), an insert charges none.
func TestMutableIndexKeepsPaperAccounting(t *testing.T) {
	idx, err := fuzzyknn.NewIndex([]*fuzzyknn.Object{disk(1, 2, 0), disk(2, 4, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	base := idx.TotalObjectAccesses()
	if err := idx.Insert(disk(3, 6, 0)); err != nil {
		t.Fatal(err)
	}
	if got := idx.TotalObjectAccesses(); got != base {
		t.Fatalf("insert charged %d accesses", got-base)
	}
	if err := idx.Delete(3); err != nil {
		t.Fatal(err)
	}
	if got := idx.TotalObjectAccesses(); got != base+1 {
		t.Fatalf("delete charged %d accesses, want 1", got-base)
	}
}
