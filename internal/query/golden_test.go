package query

import (
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"fuzzyknn/internal/golden"
	"fuzzyknn/internal/store"
)

// TestGoldenFormats pins the R-tree page layout inside a page-file
// generation (see package golden for where the reference bytes come from):
// the running code must write the reference bytes again, and the reference
// page file must reopen as an index over the same ids that answers like the
// in-memory tree it was saved from.
func TestGoldenFormats(t *testing.T) {
	rng := rand.New(rand.NewPCG(2010, 12))
	objs := makeObjects(rng, 40, 6, 12, 4)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinEntries: 2, MaxEntries: 4}
	ix, err := Build(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	if err := ix.SavePaged(filepath.Join(fresh, "index.fzp")); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, fresh, nil)

	px, err := OpenPagedIndex(ms, filepath.Join(golden.Copy(t), "index.fzp"), 1<<20, -1, opts)
	if err != nil {
		t.Fatalf("reference page file does not reopen: %v", err)
	}
	defer px.Close()
	var st Stats
	if got := px.read().leafIDs(&st); !slices.Equal(got, ms.IDs()) {
		t.Fatalf("paged index ids %v, store ids %v", got, ms.IDs())
	}
	for i := 0; i < 5; i++ {
		q := makeQuery(rng, 6, 12, 4)
		want, wantSt, err := ix.AKNN(q, 3, 0.5, LB)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := px.AKNN(q, 3, 0.5, LB)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, "golden aknn", want, got, wantSt, gotSt)
	}
}
