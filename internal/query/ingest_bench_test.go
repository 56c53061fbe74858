package query

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// The ingest benchmarks measure the write path end to end: ingesting a
// fixed object set into a fresh index, per-op (one Insert call per object,
// i.e. one-item group commits: one lock, clone, snapshot publish and —
// log-backed — one fsync per object) versus ApplyBatch groups of 256 (all
// four amortized across the group). Both run the same ApplyBatch; only the
// group size differs. ns/op is the cost of the WHOLE ingest, so the
// per-op/batch ratio of the same store kind is the group-commit speedup;
// the objs/sec metric reports the same number as a rate. These are CI-gated
// like the read-path hot-path benchmarks.

const (
	ingestObjects = 1024
	ingestBatch   = 256
)

// ingestObjs builds the shared object set once per process.
func ingestObjs(b *testing.B) []*fuzzy.Object {
	b.Helper()
	rng := rand.New(rand.NewPCG(42, 42))
	return makeObjects(rng, ingestObjects, 16, 40, 0)
}

// runIngest times b.N full ingests of objs into fresh indexes produced by
// newIndex (index construction is excluded from the timer).
func runIngest(b *testing.B, objs []*fuzzy.Object, batch int, newIndex func(i int) *Index) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := newIndex(i)
		b.StartTimer()
		if batch <= 1 {
			for _, o := range objs {
				if _, err := Insert(ix, o); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for lo := 0; lo < len(objs); lo += batch {
				hi := min(lo+batch, len(objs))
				if _, err := ix.ApplyBatch(objs[lo:hi], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(objs))*float64(b.N)/b.Elapsed().Seconds(), "objs/sec")
}

func newMemIndex(b *testing.B) *Index {
	b.Helper()
	ms, err := store.NewMemStore(nil)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func newLogIndex(b *testing.B, path string) *Index {
	b.Helper()
	ls, err := store.OpenLog(path, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ls.Close() })
	ix, err := Build(ls, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// ingestPerOpAllocBudget bounds the heap allocations of one one-object
// Insert into a MemStore index, averaged over BenchmarkIngestMemPerOp's
// 1 024 objects: the measured 17.1 (testing.AllocsPerRun runs at
// GOMAXPROCS 1; the benchmark's figure is higher by its worker goroutines)
// plus 10%. Most are the group commit's own and the copy-on-write copies of
// the insertion path's nodes (a slab, ids or children, and the node each).
// Comparing boxes through allocated rectangles, as the tree once did, cost
// over 300.
const ingestPerOpAllocBudget = 18.8

func TestIngestMemPerOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race (sync.Pool reuse is randomized)")
	}
	objs := makeObjects(rand.New(rand.NewPCG(42, 42)), ingestObjects, 16, 40, 0)
	allocs := testing.AllocsPerRun(2, func() {
		ms, err := store.NewMemStore(nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(ms, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			if _, err := Insert(ix, o); err != nil {
				t.Fatal(err)
			}
		}
	}) / ingestObjects
	t.Logf("%.1f allocations per one-object insert", allocs)
	if allocs > ingestPerOpAllocBudget {
		t.Errorf("a one-object insert allocates %.1f times, want ≤ %.1f", allocs, ingestPerOpAllocBudget)
	}
}

func BenchmarkIngestMemPerOp(b *testing.B) {
	objs := ingestObjs(b)
	runIngest(b, objs, 1, func(int) *Index { return newMemIndex(b) })
}

func BenchmarkIngestMemBatch256(b *testing.B) {
	objs := ingestObjs(b)
	runIngest(b, objs, ingestBatch, func(int) *Index { return newMemIndex(b) })
}

func BenchmarkIngestLogPerOp(b *testing.B) {
	objs := ingestObjs(b)
	dir := b.TempDir()
	runIngest(b, objs, 1, func(i int) *Index {
		return newLogIndex(b, filepath.Join(dir, fmt.Sprintf("perop-%d.fzl", i)))
	})
}

func BenchmarkIngestLogBatch256(b *testing.B) {
	objs := ingestObjs(b)
	dir := b.TempDir()
	runIngest(b, objs, ingestBatch, func(i int) *Index {
		return newLogIndex(b, filepath.Join(dir, fmt.Sprintf("batch-%d.fzl", i)))
	})
}
