package query

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/golden"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/store"
)

// goldenFixture is the index the reference page file is saved from, the
// store under it and the generator its queries continue from.
func goldenFixture(t *testing.T) (*rand.Rand, *store.MemStore, Options, *Index) {
	t.Helper()
	rng := rand.New(rand.NewPCG(2010, 12))
	ms, err := store.NewMemStore(makeObjects(rng, 40, 6, 12, 4))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinEntries: 2, MaxEntries: 4}
	ix, err := Build(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rng, ms, opts, ix
}

// incrementalHistory replays a seeded insert/delete history into an
// incrementally built index with tiny nodes: 600 inserts, 250 deletes in
// random order (splits, condensing and the reinsertion of orphaned
// entries), then 100 more inserts. Its page file pins the tree's split and
// condense decisions, which an STR build never makes.
func incrementalHistory(t *testing.T) *Index {
	t.Helper()
	rng := rand.New(rand.NewPCG(2010, 34))
	objs := makeObjects(rng, 700, 4, 12, 4)
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, Options{Incremental: true, MinEntries: 2, MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ins []*fuzzy.Object, del []uint64) {
		if _, err := ix.ApplyBatch(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < 600; lo += 100 {
		apply(objs[lo:lo+100], nil)
	}
	victims := rng.Perm(600)[:250]
	for lo := 0; lo < len(victims); lo += 25 {
		var del []uint64
		for _, v := range victims[lo : lo+25] {
			del = append(del, objs[v].ID())
		}
		apply(nil, del)
	}
	apply(objs[600:], nil)
	return ix
}

// TestGoldenFormats pins the R-tree page layout inside a page-file
// generation (see package golden for where the reference bytes come from):
// the running code must write the reference bytes again, and the reference
// page file must reopen as an index over the same ids that answers like the
// in-memory tree it was saved from. The set also holds the page file of
// incrementalHistory, so a change to how the tree inserts, splits, deletes
// or condenses shows as different bytes.
//
// The reference was last rewritten when the leaf record gained its radial
// line (manifest version 4), and the face lines' samples their rounding
// guard. TestCompatPageFileAnswers keeps the bytes written before that,
// before the witness group (version 2), and before the §3.2 line fit
// became the closed form.
func TestGoldenFormats(t *testing.T) {
	rng, ms, opts, ix := goldenFixture(t)
	fresh := t.TempDir()
	if err := ix.SavePaged(filepath.Join(fresh, "index.fzp")); err != nil {
		t.Fatal(err)
	}
	if err := incrementalHistory(t).SavePaged(filepath.Join(fresh, "incremental.fzp")); err != nil {
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

// TestCompatPageFileAnswers: testdata/compat holds the golden page file as
// three older versions of the code wrote it. bisection/ is from the
// bisection line fit, before the closed form replaced it: its §3.2 lines
// differ from today's but are still conservative, so no format version
// separates the two. rep-only/ is manifest version 2, whose leaf summaries
// end at the representative point: it is served at that width, and its
// §3.4 descents start at the representative. witness/ is manifest version
// 3, whose summaries end at the witness group: its cut keys read the box
// alone. All three generations of the format are held: the two compat ones
// here, the current one by TestGoldenFormats. Each must reopen under the
// running code and give AKNN (LB, and LB-LP-UB once refined), range and
// RKNN answers identical to the in-memory tree built now. Only probe
// counts and the lazy answer's bounds may differ, since a different line
// is a different key and a different row a different upper bound.
func TestCompatPageFileAnswers(t *testing.T) {
	for _, name := range []string{"bisection", "rep-only", "witness"} {
		t.Run(name, func(t *testing.T) { compatAnswers(t, filepath.Join("testdata/compat", name)) })
	}
}

// readManifest returns the manifest of the page file at path.
func readManifest(t *testing.T, path string) pager.Manifest {
	t.Helper()
	m, err := pager.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// compatAnswers holds the page file index.fzp under src to the in-memory
// golden fixture.
func compatAnswers(t *testing.T, src string) {
	rng, ms, opts, ix := goldenFixture(t)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	px, err := OpenPagedIndex(ms, filepath.Join(dir, "index.fzp"), 1<<20, -1, opts)
	if err != nil {
		t.Fatalf("compat page file does not reopen: %v", err)
	}
	defer px.Close()
	// Saved again, the file keeps its version and its bytes: rows are
	// written as the tree holds them.
	orig, resaved := filepath.Join(dir, "index.fzp"), filepath.Join(dir, "resaved.fzp")
	if err := px.SavePaged(resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden.Read(t, pager.PageFilePath(resaved, 1)), golden.Read(t, pager.PageFilePath(orig, 1))) {
		t.Fatal("the compat page file saves to different page bytes")
	}
	if m0, m1 := readManifest(t, orig), readManifest(t, resaved); m1.Version != m0.Version {
		t.Fatalf("the compat page file of version %d saves as version %d", m0.Version, m1.Version)
	}
	answered := 0
	same := func(label string, want, got any, wantErr, gotErr error) {
		t.Helper()
		answered += reflect.ValueOf(want).Len()
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: errors %v (mem), %v (compat)", label, wantErr, gotErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: compat answers differ\n   mem: %+v\ncompat: %+v", label, want, got)
		}
	}
	for i := 0; i < 8; i++ {
		q := makeQuery(rng, 6, 12, 4)
		for _, alpha := range []float64{0.2, 0.5, 0.9} {
			want, _, wantErr := ix.AKNN(q, 3, alpha, LB)
			got, _, gotErr := px.AKNN(q, 3, alpha, LB)
			same("aknn", want, got, wantErr, gotErr)
			if lazy, _, err := px.AKNN(q, 3, alpha, LBLPUB); err != nil {
				gotErr = err
			} else {
				got, _, gotErr = px.Refine(q, alpha, lazy)
			}
			same("aknn lb-lp-ub", want, got, wantErr, gotErr)
			want, _, wantErr = ix.RangeSearch(q, alpha, 3)
			got, _, gotErr = px.RangeSearch(q, alpha, 3)
			same("range", want, got, wantErr, gotErr)
		}
		for _, algo := range []RKNNAlgorithm{Naive, RSSICR} {
			want, _, wantErr := ix.RKNN(q, 3, 0.3, 0.8, algo)
			got, _, gotErr := px.RKNN(q, 3, 0.3, 0.8, algo)
			same("rknn", want, got, wantErr, gotErr)
		}
	}
	if answered == 0 {
		t.Fatal("every query answered empty: the comparison checked nothing")
	}
	t.Logf("%d results compared", answered)
}
