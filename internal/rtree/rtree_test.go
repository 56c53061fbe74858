package rtree

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fuzzyknn/internal/geom"
)

func randRect(rng *rand.Rand, d int, span float64) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		lo[i] = rng.Float64() * 100
		hi[i] = lo[i] + rng.Float64()*span
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ min, max int }{{5, 8}, {1, 1}, {-1, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", tc.min, tc.max)
				}
			}()
			New(tc.min, tc.max)
		}()
	}
	// Defaults.
	tr := New(0, 0)
	if tr.MaxEntries() != DefaultMaxEntries {
		t.Errorf("default max = %d", tr.MaxEntries())
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(2, 4)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if !tr.Bounds().IsEmpty() {
		t.Fatal("empty tree should have empty bounds")
	}
	if found := searchIDs(tr, randRect(rand.New(rand.NewPCG(1, 1)), 2, 10)); len(found) != 0 {
		t.Fatal("search on empty tree returned entries")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSmallCapacityManySplits(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	tr := New(2, 4) // tiny nodes force deep trees
	var rects []geom.Rect
	for i := 0; i < 500; i++ {
		r := randRect(rng, 2, 5)
		rects = append(rects, r)
		tr.Insert(r, uint64(i))
		if i%50 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Fatalf("expected a deep tree, height = %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every inserted item is findable via a point search on its own rect.
	for i, r := range rects {
		if !slices.Contains(searchIDs(tr, r), i) {
			t.Fatalf("item %d not found", i)
		}
	}
}

func TestInsertEmptyRectPanics(t *testing.T) {
	tr := New(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(geom.Rect{}, 0)
}

// search calls fn with the id of every leaf entry whose rectangle
// intersects r, descending only into interior entries whose rectangle does:
// a range search over the rows, which misses entries if an MBR is wrong.
func search(tr *Tree, r geom.Rect, fn func(id uint64)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		for i := 0; i < n.Len(); i++ {
			switch {
			case !n.EntryRect(i).Intersects(r):
			case n.Leaf():
				fn(n.ID(i))
			default:
				walk(n.Child(i))
			}
		}
	}
	walk(tr.Root())
}

// searchIDs collects the ids of all leaf entries intersecting r, ascending.
func searchIDs(tr *Tree, r geom.Rect) []int {
	var ids []int
	search(tr, r, func(id uint64) { ids = append(ids, int(id)) })
	sort.Ints(ids)
	return ids
}

// bruteSearch is the reference range search.
func bruteSearch(rects []geom.Rect, r geom.Rect) []int {
	var ids []int
	for i, s := range rects {
		if s.Intersects(r) {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, build := range []string{"insert", "bulk"} {
		for _, d := range []int{1, 2, 3} {
			var rects []geom.Rect
			var items []BulkItem
			for i := 0; i < 400; i++ {
				r := randRect(rng, d, 8)
				rects = append(rects, r)
				items = append(items, BulkItem{Rect: r, Data: uint64(i)})
			}
			var tr *Tree
			if build == "insert" {
				tr = New(2, 6)
				for i, r := range rects {
					tr.Insert(r, uint64(i))
				}
			} else {
				tr = BulkLoad(items, 2, 6)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s d=%d: %v", build, d, err)
			}
			for q := 0; q < 50; q++ {
				query := randRect(rng, d, 20)
				got := searchIDs(tr, query)
				want := bruteSearch(rects, query)
				if !equalInts(got, want) {
					t.Fatalf("%s d=%d: search mismatch: got %d ids, want %d", build, d, len(got), len(want))
				}
			}
		}
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tr := BulkLoad(nil, 2, 4)
	if tr.Len() != 0 {
		t.Fatal("bulk load empty should give empty tree")
	}
	tr = BulkLoad([]BulkItem{{Rect: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), Data: 1}}, 2, 4)
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Fatalf("single item: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var items []BulkItem
	for i := 0; i < 10000; i++ {
		items = append(items, BulkItem{Rect: randRect(rng, 2, 2), Data: uint64(i)})
	}
	tr := BulkLoad(items, 0, 0)
	if tr.Len() != 10000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All reachable.
	seen := make([]bool, 10000)
	search(tr, tr.Bounds(), func(id uint64) { seen[id] = true })
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d unreachable", i)
		}
	}
}

func TestBulkLoadDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	var items []BulkItem
	for i := 0; i < 1000; i++ {
		items = append(items, BulkItem{Rect: randRect(rng, 2, 3), Data: uint64(i)})
	}
	t1 := BulkLoad(items, 2, 8)
	t2 := BulkLoad(items, 2, 8)
	var shape func(n *Node) string
	shape = func(n *Node) string {
		s := "("
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				s += "x"
			} else {
				s += shape(n.Child(i))
			}
		}
		return s + ")"
	}
	if shape(t1.Root()) != shape(t2.Root()) {
		t.Fatal("bulk load not deterministic")
	}
}

func TestBulkLoadHighUtilization(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	var items []BulkItem
	for i := 0; i < 4096; i++ {
		items = append(items, BulkItem{Rect: randRect(rng, 2, 1), Data: uint64(i)})
	}
	tr := BulkLoad(items, 0, 64)
	// Count leaves.
	leaves := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			leaves++
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(tr.Root())
	// 4096/64 = 64 full leaves is optimal; allow a little slack from tiling.
	if leaves > 80 {
		t.Fatalf("poor utilization: %d leaves for 4096 items at capacity 64", leaves)
	}
}

func TestDuplicateRects(t *testing.T) {
	tr := New(2, 4)
	r := geom.NewRect(geom.Point{1, 1}, geom.Point{2, 2})
	for i := 0; i < 50; i++ {
		tr.Insert(r, uint64(i))
	}
	if got := len(searchIDs(tr, r)); got != 50 {
		t.Fatalf("found %d duplicates, want 50", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert10K(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	rects := make([]geom.Rect, 10000)
	for i := range rects {
		rects[i] = randRect(rng, 2, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(0, 0)
		for j, r := range rects {
			tr.Insert(r, uint64(j))
		}
	}
}

func BenchmarkBulkLoad10K(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	items := make([]BulkItem, 10000)
	for i := range items {
		items[i] = BulkItem{Rect: randRect(rng, 2, 2), Data: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(items, 0, 0)
	}
}
