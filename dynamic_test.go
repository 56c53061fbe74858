package fuzzyknn_test

import (
	"context"
	"errors"
	"testing"

	"fuzzyknn"
)

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
