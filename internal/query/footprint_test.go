package query

import (
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// The footprint pin: what an indexed object costs the heap beyond its own
// payload. An object is its coordinates and memberships; the index adds one
// leaf entry (support box, §3.2 summary, id) and the store its bookkeeping.
// Nothing a search derives from an object — a cut's box, the levels, the
// line fit's per-level table — may stay behind on it, whether the object
// was summarised at insert, probed, or served as a query.

const (
	footprintObjects = 2000
	footprintPoints  = 128
	// footprintPayload is one object's coordinates and memberships: 128
	// two-dimensional points and their memberships, 8 bytes each.
	footprintPayload = footprintPoints * (2 + 1) * 8
)

// The per-leg budgets bound the heap an indexed object holds beyond its
// payload at what one copy of its leaf entry costs, plus 15%: its leaf row
// and id are 240 B (224 B before the row carried its radial line, 152 B
// before the witness group), and each store adds its own bookkeeping.
// Measured on linux/amd64 at 342, 389 and 561 B (309, 357 and 533 B with
// the 224 B row); a second copy of every box and summary beside the 224 B
// rows measured 589, 624 and 818 B, and a retained per-level table (the
// distinct levels and every level's cut box, ≈5 KB at 128 distinct levels)
// breaks them by an order of magnitude.
const (
	footprintBudgetMem = 394
	footprintBudgetLog = 448
	footprintBudgetLRU = 646
)

// liveHeap returns the bytes of heap in use after two collections (the
// second clears what sync.Pool's victim cache kept through the first).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// footprintObjs builds the §6.1 density (5 objects per unit area) of
// 128-point objects with distinct memberships: 128 levels each.
func footprintObjs() []*fuzzy.Object {
	rng := rand.New(rand.NewPCG(271, 828))
	return makeObjects(rng, footprintObjects, footprintPoints, 20, 0)
}

// touchEveryReadPath runs 200 LB AKNN, 50 range searches and 20 RSS-ICR
// RKNN queries over s, each with a stored object as the query.
func touchEveryReadPath(t *testing.T, s Searcher, query func(i int) *fuzzy.Object) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, _, err := s.AKNN(query(i), 5, 0.5, LB); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, _, err := s.RangeSearch(query(i), 0.5, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, _, err := s.RKNN(query(i), 5, 0.3, 0.8, RSSICR); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexedObjectFootprint pins the heap an indexed object holds beyond
// its payload: in a MemStore and in a log store, each ingested
// through ApplyBatch, and in an object LRU in front of a disk store serving
// two shards (where the cached objects also serve as queries, and must not
// grow by it). A log store decodes an object per probe, so there the held
// heap is the index and the store's directory alone.
func TestIndexedObjectFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under -race; the footprint does not depend on it")
	}
	for _, tc := range []struct {
		name   string
		budget int64
		open   func(t *testing.T) store.Reader
	}{
		{"MemStore", footprintBudgetMem, func(t *testing.T) store.Reader {
			ms, err := store.NewMemStore(nil)
			if err != nil {
				t.Fatal(err)
			}
			return ms
		}},
		{"log store", footprintBudgetLog, func(t *testing.T) store.Reader {
			ls, err := store.OpenLogPolicy(filepath.Join(t.TempDir(), "objects.fzl"), 2, store.SyncOff)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ls.Close() })
			return ls
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs := footprintObjs()
			base := liveHeap() // the payloads are in it

			ix, err := Build(tc.open(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(objs); lo += 500 {
				if _, err := ix.ApplyBatch(objs[lo:lo+500], nil); err != nil {
					t.Fatal(err)
				}
			}
			touchEveryReadPath(t, ix, func(i int) *fuzzy.Object { return objs[(i*37)%len(objs)] })

			beyond := (liveHeap() - base) / footprintObjects
			t.Logf("%s: %d B per object beyond its %d B payload", tc.name, beyond, footprintPayload)
			if beyond > tc.budget {
				t.Errorf("an object in a %s holds %d B beyond its payload, want ≤ %d", tc.name, beyond, tc.budget)
			}
			runtime.KeepAlive(objs)
			runtime.KeepAlive(ix)
		})
	}

	t.Run("LRU over disk store, 2 shards", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "objects.fzs")
		if err := store.WriteAll(path, 2, footprintObjs()); err != nil {
			t.Fatal(err)
		}
		base := liveHeap() // nothing of the objects is resident

		ds, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		lru := store.NewLRU(ds, footprintObjects)
		sx, err := BuildSharded(lru, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The build read every object through the cache: all are resident.
		cached := liveHeap()
		query := func(i int) *fuzzy.Object {
			q, err := lru.Get(uint64(1 + (i*37)%footprintObjects))
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		touchEveryReadPath(t, sx, query)
		after := liveHeap()

		beyond := (after-base)/footprintObjects - footprintPayload
		t.Logf("object LRU: %d B per object beyond its %d B payload; the queries grew the heap by %d B",
			beyond, footprintPayload, after-cached)
		if beyond > footprintBudgetLRU {
			t.Errorf("an object in the LRU holds %d B beyond its payload, want ≤ %d", beyond, footprintBudgetLRU)
		}
		// 200 distinct cached objects served as queries; a table kept on
		// each would be ≈1 MB.
		if grown := after - cached; grown > 64<<10 {
			t.Errorf("serving cached objects as queries grew the heap by %d B, want ≤ 64 KiB", grown)
		}
		runtime.KeepAlive(sx)
		runtime.KeepAlive(lru)
	})
}

// TestSummarizeAllocs: summarising an object for its leaf entry allocates
// once — the buffer its support box and summary are views of, which the
// tree copies into a leaf row; the per-level table and the line fit's
// buffers are pooled scratch.
func TestSummarizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race (sync.Pool reuse is randomized)")
	}
	o := footprintObjs()[0]
	leafEntry(o)
	if allocs := testing.AllocsPerRun(50, func() { leafEntry(o) }); allocs != 1 {
		t.Errorf("leafEntry allocates %.0f times, want 1", allocs)
	}
}
