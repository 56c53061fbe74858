package query

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/oracle"
)

// pinnedCells are the (k, α) cells of the pinned fixture.
var pinnedCells = []struct {
	k     int
	alpha float64
}{{5, 0.9}, {20, 0.5}}

// pinnedFixture is the pins' fixture of one §6.1 dataset shape at the
// paper's density (N / Space² = 5): 320 objects of 48 points, and 24
// queries.
func pinnedFixture(t *testing.T, kind dataset.Kind) ([]*fuzzy.Object, []*fuzzy.Object) {
	t.Helper()
	p := dataset.Default(kind)
	p.N, p.PointsPerObject, p.Space, p.Seed = 320, 48, 8, 77
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*fuzzy.Object, 24)
	for i := range queries {
		if queries[i], err = dataset.GenerateQuery(p, i); err != nil {
			t.Fatal(err)
		}
	}
	return objs, queries
}

// TestReadsMatchCostModel holds the objects each search reads to the
// oracle's cost model on the pinned fixture, over three layouts of each
// population (STR, STR at fan-out 4, repeated insertion) and five (k, α)
// cells: the pins' two, a single answer, a k past the paper's largest, and
// the kernel. Basic and LB probe exactly the model's sets, each object once;
// LB-LP probes inside LB's set and LB-LP-UB inside LB-LP's; RSS and RSS-ICR
// over [0.3, α] read as many objects as the model's union. Basic and LB
// defer nothing, and a lazy search's buffer never holds more than k
// entries.
func TestReadsMatchCostModel(t *testing.T) {
	const alphaStart = 0.3
	cells := append(slices.Clone(pinnedCells), []struct {
		k     int
		alpha float64
	}{{1, 0.5}, {50, 0.3}, {20, 1}}...)
	layouts := []Options{{}, {MinEntries: 2, MaxEntries: 4}, {Incremental: true}}
	algos := []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		objs, queries := pinnedFixture(t, kind)
		pop := oracle.New(objs, nil)
		ixs := make([]*Index, len(layouts))
		for i, opts := range layouts {
			ixs[i] = buildIndex(t, objs, opts)
		}
		for _, c := range cells {
			for qi, q := range queries {
				model := [][]uint64{pop.Reads(q, c.k, c.alpha, false), pop.Reads(q, c.k, c.alpha, true)}
				rss := len(pop.RSSReads(q, c.k, alphaStart, c.alpha))
				for li, ix := range ixs {
					at := fmt.Sprintf("%s %+v k=%d α=%v query %d", kind, layouts[li], c.k, c.alpha, qi)
					var reads [4][]uint64
					for ai, algo := range algos {
						var st Stats
						reads[ai], st = probedIDs(t, ix, q, c.k, c.alpha, algo)
						lazy := algo == LBLP || algo == LBLPUB
						if !lazy && (st.LazyDeferred != 0 || st.LazyAdmitted != 0 || st.LazyBufferPeak != 0) ||
							lazy && st.LazyBufferPeak > c.k || st.ObjectAccesses != len(reads[ai]) {
							t.Fatalf("%s: %v probed %d objects at %+v", at, algo, len(reads[ai]), st)
						}
					}
					for ai, want := range model {
						if !slices.Equal(reads[ai], want) {
							t.Fatalf("%s: %v reads\n %v\nthe cost model\n %v", at, algos[ai], reads[ai], want)
						}
					}
					for ai := 3; ai > 0; ai-- {
						if !subset(reads[ai], reads[ai-1]) {
							t.Fatalf("%s: %v reads\n %v\noutside %v's\n %v", at, algos[ai], reads[ai], algos[ai-1], reads[ai-1])
						}
					}
					for _, algo := range []RKNNAlgorithm{RSS, RSSICR} {
						if _, st, err := ix.RKNN(q, c.k, alphaStart, c.alpha, algo); err != nil || st.ObjectAccesses != rss {
							t.Fatalf("%s: %v over [%v, %v] reads %d objects (%v), the cost model %d", at, algo, alphaStart, c.alpha, st.ObjectAccesses, err, rss)
						}
					}
				}
			}
		}
	}
}

// probedIDs runs one AKNN of ix and returns the ids it probed, in
// ascending order, and its cost.
func probedIDs(t *testing.T, ix *Index, q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]uint64, Stats) {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	sc.stats = Stats{}
	probed := map[uint64]*fuzzy.Object{}
	if _, err := aknnInto(sc, nil, sc.pin(ix), q, k, alpha, algo, probed, nil); err != nil {
		t.Fatal(err)
	}
	return slices.Sorted(maps.Keys(probed)), sc.stats
}

// subset reports whether every id of the ascending list a is in the
// ascending list b.
func subset(a, b []uint64) bool {
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); !ok {
			return false
		}
	}
	return true
}

// TestObjectAccessesPinned pins the cost of the two lazy AKNN variants, the
// only ones without a closed form: the exact number of store probes LB-LP
// and LB-LP-UB spend on the pinned fixture of each §6.1 dataset shape. The
// equivalence suites accept any search that returns the right neighbours;
// a §3.3 or §3.4 regression that stays exact but probes more fails here.
// Every count is the same on every layout of the population
// (FuzzConformance holds that), so one tree stands for all of them.
// Basic's, LB's, the range search's and RSS's costs are computed by the
// oracle's cost model instead (TestReadsMatchCostModel, FuzzConformance).
//
// A change that moves a number on purpose — a better bound, a different
// summary — re-records it and says so; the test prints what it measured.
func TestObjectAccessesPinned(t *testing.T) {
	algos := []AKNNAlgorithm{LBLP, LBLPUB}
	// want[kind][cell]: ObjectAccesses summed over the queries under
	// LB-LP and LB-LP-UB at the cell's k and α.
	want := map[dataset.Kind][2][2]int{
		dataset.Synthetic: {{172, 120}, {581, 363}},
		dataset.Cells:     {{178, 150}, {581, 363}},
	}
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		objs, queries := pinnedFixture(t, kind)
		ix := buildIndex(t, objs, Options{})
		for ci, c := range pinnedCells {
			var got [2]int
			for _, q := range queries {
				for ai, algo := range algos {
					_, st, err := ix.AKNN(q, c.k, c.alpha, algo)
					if err != nil {
						t.Fatal(err)
					}
					got[ai] += st.ObjectAccesses
				}
			}
			if got != want[kind][ci] {
				t.Errorf("%s k=%d α=%v: object accesses LB-LP/LB-LP-UB = %v, pinned %v", kind, c.k, c.alpha, got, want[kind][ci])
			}
		}
	}
}

// TestUpperDescentsOnlyWhenTheyCanAdmit pins how many §3.4 descents
// (DistEval.NearestWithin) LB-LP-UB runs on the pinned fixture. A deferred
// entry's descent waits for an admission test it could pass, so an entry
// probed first, or tested only while M_Q(α) lies at least H's top key from
// its representative point, never pays for one: far fewer descents than
// deferrals, and at least one per admitted entry (its reported Upper is the
// descent's).
func TestUpperDescentsOnlyWhenTheyCanAdmit(t *testing.T) {
	// want[kind][cell]: descents, deferrals, admissions summed over the
	// queries.
	want := map[dataset.Kind][2][3]int{
		dataset.Synthetic: {{54, 172, 52}, {252, 583, 220}},
		dataset.Cells:     {{46, 178, 28}, {259, 581, 218}},
	}
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		objs, queries := pinnedFixture(t, kind)
		ix := buildIndex(t, objs, Options{})
		for ci, c := range pinnedCells {
			var got [3]int
			for _, q := range queries {
				sc := getScratch()
				sc.stats = Stats{}
				_, before := sc.dist.Descents()
				if _, err := aknnInto(sc, nil, sc.pin(ix), q, c.k, c.alpha, LBLPUB, nil, nil); err != nil {
					t.Fatal(err)
				}
				_, after := sc.dist.Descents()
				got[0] += after - before
				got[1] += sc.stats.LazyDeferred
				got[2] += sc.stats.LazyAdmitted
				putScratch(sc)
			}
			if got != want[kind][ci] {
				t.Errorf("%s k=%d α=%v: LB-LP-UB descents/deferred/admitted = %v, pinned %v", kind, c.k, c.alpha, got, want[kind][ci])
			}
		}
	}
}
