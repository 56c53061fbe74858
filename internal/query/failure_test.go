package query

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// flakyStore wraps a Reader and fails Get for selected ids or after a
// countdown, exercising error propagation through every algorithm.
type flakyStore struct {
	store.Reader
	failID    uint64
	failAfter int          // fail every Get once the countdown reaches zero; -1 = off
	calls     atomic.Int64 // Build probes from GOMAXPROCS workers
	lastID    atomic.Uint64
}

var errInjected = errors.New("injected storage failure")

func (f *flakyStore) Get(id uint64) (*fuzzy.Object, error) {
	calls := int(f.calls.Add(1))
	f.lastID.Store(id)
	if f.failID != 0 && id == f.failID {
		return nil, fmt.Errorf("%w: id %d", errInjected, id)
	}
	if f.failAfter >= 0 && calls > f.failAfter {
		return nil, fmt.Errorf("%w: call %d", errInjected, calls)
	}
	return f.Reader.Get(id)
}

func buildFlaky(t *testing.T, objs []*fuzzy.Object) (*Index, *flakyStore) {
	t.Helper()
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyStore{Reader: ms, failAfter: -1}
	ix, err := Build(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, fs
}

func TestBuildPropagatesStoreErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	objs := makeObjects(rng, 10, 8, 10, 4)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyStore{Reader: ms, failID: objs[5].ID(), failAfter: -1}
	if _, err := Build(fs, Options{}); !errors.Is(err, errInjected) {
		t.Fatalf("Build error = %v, want injected failure", err)
	}
}

// TestAKNNPropagatesProbeErrors fails, for each variant, the last object a
// clean run of the same query reads. The search is deterministic, so the
// failing run reaches that read, and its error must come back to the
// caller. k = 10 of 30 leaves room in the lazy buffer G: a lazy variant
// defers every leaf entry into G and probes only entries it takes back out,
// so its last read is a deferred entry's probe — the path §3.3 delays.
func TestAKNNPropagatesProbeErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	objs := makeObjects(rng, 30, 10, 6, 8) // dense: everything is a candidate
	ix, fs := buildFlaky(t, objs)
	q := makeQuery(rng, 10, 6, 8)
	const k = 10
	for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
		fs.failID = 0
		fs.lastID.Store(0)
		_, st, err := ix.AKNN(q, k, 0.5, algo)
		if err != nil || st.ObjectAccesses == 0 {
			t.Fatalf("%v: clean run read %d objects, err = %v", algo, st.ObjectAccesses, err)
		}
		if lazy := algo == LBLP || algo == LBLPUB; lazy && st.LazyBufferPeak < 2 {
			t.Fatalf("%v: G held at most %d entries; the query defers nothing", algo, st.LazyBufferPeak)
		}
		fs.failID = fs.lastID.Load()
		if _, _, err := ix.AKNN(q, k, 0.5, algo); !errors.Is(err, errInjected) {
			t.Fatalf("%v: err = %v, want injected failure on object %d", algo, err, fs.failID)
		}
	}
	fs.failID = objs[0].ID()
	if _, _, err := ix.LinearScanAKNN(q, 5, 0.5); !errors.Is(err, errInjected) {
		t.Fatalf("linear scan err = %v", err)
	}
}

func TestRKNNPropagatesProbeErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	objs := makeObjects(rng, 25, 10, 6, 8)
	ix, fs := buildFlaky(t, objs)
	q := makeQuery(rng, 10, 6, 8)
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		fs.failID = 0
		fs.calls.Store(0)
		fs.failAfter = 3 // fail mid-acquisition
		if _, _, err := ix.RKNN(q, 20, 0.3, 0.7, algo); !errors.Is(err, errInjected) {
			t.Fatalf("%v: err = %v, want injected failure", algo, err)
		}
		fs.failAfter = -1
	}
}

func TestRefinePropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	objs := makeObjects(rng, 20, 10, 6, 8)
	ix, fs := buildFlaky(t, objs)
	q := makeQuery(rng, 10, 6, 8)
	res, _, err := ix.AKNN(q, 10, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	hasUnprobed := false
	for _, r := range res {
		if !r.Exact {
			hasUnprobed = true
			fs.failID = r.ID
			break
		}
	}
	if !hasUnprobed {
		t.Skip("no unprobed results in this configuration")
	}
	if _, _, err := ix.Refine(q, 0.5, res); !errors.Is(err, errInjected) {
		t.Fatalf("Refine err = %v, want injected failure", err)
	}
}

func TestQueriesRecoverAfterTransientFailure(t *testing.T) {
	// A failure on one query must not corrupt the index for the next.
	rng := rand.New(rand.NewPCG(5, 5))
	objs := makeObjects(rng, 30, 10, 6, 8)
	ix, fs := buildFlaky(t, objs)
	q := makeQuery(rng, 10, 6, 8)

	fs.failAfter = 2
	fs.calls.Store(0)
	if _, _, err := ix.AKNN(q, 30, 0.5, LB); !errors.Is(err, errInjected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	fs.failAfter = -1
	fs.calls.Store(0)
	got, _, err := ix.AKNN(q, 5, 0.5, LB)
	if err != nil {
		t.Fatalf("query after recovery failed: %v", err)
	}
	want, _, err := ix.LinearScanAKNN(q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkSameDistances(t, got, want, "post-recovery")
}
