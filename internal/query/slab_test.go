package query

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/store"
)

// TestLeafSlabBoundsBitIdentical holds every leaf entry of an incremental, a
// bulk-loaded and a paged tree to the stored object's own summary: the §3.2
// bounds the searches read off the leaves' rows are, bit for bit, MinDist
// and MaxDist of the estimate M_A(α)* of a fresh fuzzy.Summarize of the
// object (which fuzzy's TestFlatSummaryMatchesBoundaryApprox holds to the
// paper's form) — at α = 1, on exact levels of the entry and of the query,
// and just above a level.
func TestLeafSlabBoundsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	objs := makeObjects(rng, 150, 14, 12, 8)
	objs = append(objs, makeObjectsWithBase(rng, 1000, 50, 14, 12, 0)...)
	q := makeQuery(rng, 20, 12, 0)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinEntries: 2, MaxEntries: 6}
	bulk, err := Build(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Build(ms, Options{MinEntries: 2, MaxEntries: 6, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "slab.fzp")
	if err := bulk.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPagedIndex(ms, path, tinyCache, -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	bits := math.Float64bits
	for name, ix := range map[string]*Index{"bulk": bulk, "incremental": incr, "paged": paged.Index} {
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entries := 0
		var walk func(n *rtree.Node)
		walk = func(n *rtree.Node) {
			n = n.Resolve()
			for i := 0; i < n.Len(); i++ {
				if !n.Leaf() {
					walk(n.Child(i))
					continue
				}
				entries++
				obj, err := ms.Get(n.ID(i))
				if err != nil {
					t.Fatal(err)
				}
				sup, refSum := fuzzy.Summarize(obj)
				refBox := append(slices.Clone(sup.Lo), sup.Hi...)
				box, sum := n.EntrySummary(i)
				lv, qlv := obj.AppendLevels(nil), q.AppendLevels(nil)
				for _, alpha := range []float64{1, 0.5, lv[0], lv[len(lv)/2], qlv[len(qlv)/2], math.Nextafter(lv[len(lv)/2], 2)} {
					mq, est := q.MBR(alpha), fuzzy.EstimateInto(refBox, refSum, alpha, geom.Rect{})
					if got, want := fuzzy.EstimateMinDist(box, sum, alpha, mq), geom.MinDist(est, mq); bits(got) != bits(want) {
						t.Fatalf("%s: object %d α %v: slab lower bound %v, reference %v", name, obj.ID(), alpha, got, want)
					}
					if got, want := fuzzy.EstimateMaxDist(box, sum, alpha, mq), geom.MaxDist(est, mq); bits(got) != bits(want) {
						t.Fatalf("%s: object %d α %v: slab upper bound %v, reference %v", name, obj.ID(), alpha, got, want)
					}
				}
			}
		}
		walk(ix.treeForTest().Root())
		if entries != len(objs) {
			t.Fatalf("%s: walked %d leaf entries, want %d", name, entries, len(objs))
		}
	}
}

// TestAlphaEdgeBattery is the α half of the boundary battery: at α = 1, on
// an exact membership level of the query and of an object the search
// probes, at the smallest level present and just above a level, AKNN under
// all four algorithms and range search answer exactly what the linear scan
// answers, on one tree and on four shards, and both layouts probe the same
// objects.
func TestAlphaEdgeBattery(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	objs := makeObjects(rng, 120, 12, 10, 8) // memberships on a 1/8 grid
	objs = append(objs, makeObjectsWithBase(rng, 1000, 60, 12, 10, 0)...)
	q := makeQuery(rng, 16, 10, 8)
	single := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
	sharded := buildShardedOver(t, objs, 4, Options{MinEntries: 2, MaxEntries: 6})

	nn, _, err := single.LinearScanAKNN(q, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	probed, err := single.Store().Get(nn[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	smallest := q.MinLevel()
	for _, o := range objs {
		smallest = min(smallest, o.MinLevel())
	}
	ql, pl := q.AppendLevels(nil), probed.AppendLevels(nil)
	alphas := map[string]float64{
		"1":                 1,
		"query level":       ql[len(ql)/2],
		"probed level":      pl[len(pl)/2],
		"smallest level":    smallest,
		"above query level": math.Nextafter(ql[len(ql)/2], 2),
		"above probed":      math.Nextafter(pl[len(pl)/2], 2),
	}
	for name, alpha := range alphas {
		for _, k := range []int{1, 6} {
			label := fmt.Sprintf("α %s (%v) k=%d", name, alpha, k)
			want, _, err := single.LinearScanAKNN(q, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			var accesses [2][4]int
			for li, s := range []Searcher{single, sharded} {
				for ai, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					got, st, err := s.AKNN(q, k, alpha, algo)
					if err != nil {
						t.Fatalf("%s: %v: %v", label, algo, err)
					}
					accesses[li][ai] = st.ObjectAccesses
					if got, _, err = s.Refine(q, alpha, got); err != nil {
						t.Fatalf("%s: %v: refine: %v", label, algo, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %v on layout %d = %+v, linear scan %+v", label, algo, li, got, want)
					}
				}
			}
			// Layout invariance: every variant costs the same on every
			// layout.
			for li, a := range accesses {
				if a != accesses[0] {
					t.Errorf("%s: object accesses on layout %d %v, single tree %v", label, li, a, accesses[0])
				}
			}

			radius := want[len(want)-1].Dist
			all, _, err := single.LinearScanAKNN(q, len(objs), alpha)
			if err != nil {
				t.Fatal(err)
			}
			var inRange []Result
			for _, r := range all {
				if r.Dist <= radius {
					inRange = append(inRange, r)
				}
			}
			var rangeAccesses [2]int
			for li, s := range []Searcher{single, sharded} {
				got, st, err := s.RangeSearch(q, alpha, radius)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, inRange) {
					t.Fatalf("%s: range search on layout %d = %+v, linear scan %+v", label, li, got, inRange)
				}
				rangeAccesses[li] = st.ObjectAccesses
			}
			if rangeAccesses[0] != rangeAccesses[1] {
				t.Errorf("%s: range search object accesses %d on one tree, %d on four shards", label, rangeAccesses[0], rangeAccesses[1])
			}
		}
	}
}
