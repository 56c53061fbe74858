package query

import (
	"fmt"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
)

// pinnedCells are the (k, α) cells of the pinned fixture.
var pinnedCells = []struct {
	k     int
	alpha float64
}{{5, 0.9}, {20, 0.5}}

// pinnedFixture is the pins' fixture of one §6.1 dataset shape at the
// paper's density (N / Space² = 5): 320 objects of 48 points in one tree,
// and 24 queries.
func pinnedFixture(t *testing.T, kind dataset.Kind) (*Index, []*fuzzy.Object) {
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
	return buildIndex(t, objs, Options{}), queries
}

// TestObjectAccessesPinned pins the paper's cost metric, not just its
// answers: the exact number of store probes each AKNN variant and the two
// pruned RKNN algorithms spend on a fixed fixture of each §6.1 dataset
// shape at the paper's density (N / Space² = 5). The equivalence suites
// accept any search that returns the right neighbours; a pruning
// regression that stays exact but probes more fails here. Every count is
// the same on every layout of the population (FuzzConformance holds that),
// so one tree stands for all of them.
//
// A change that moves a number on purpose — a better bound, a different
// summary — re-records it and says so; the test prints what it measured.
func TestObjectAccessesPinned(t *testing.T) {
	algos := []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	rknnAlgos := []RKNNAlgorithm{RSS, RSSICR}
	const alphaStart, alphaEnd = 0.3, 0.5
	// want[kind][cell]: ObjectAccesses summed over the queries — AKNN under
	// Basic/LB/LB-LP/LB-LP-UB at the cell's k and α, then RSS and RSS-ICR
	// at the cell's k over [alphaStart, alphaEnd].
	want := map[dataset.Kind][2][6]int{
		dataset.Synthetic: {{349, 172, 172, 120, 283, 283}, {733, 583, 581, 363, 754, 754}},
		dataset.Cells:     {{298, 178, 178, 150, 309, 309}, {696, 581, 581, 363, 703, 703}},
	}
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		ix, queries := pinnedFixture(t, kind)
		for ci, c := range pinnedCells {
			var got [6]int
			for _, q := range queries {
				for ai, algo := range algos {
					_, st, err := ix.AKNN(q, c.k, c.alpha, algo)
					if err != nil {
						t.Fatal(err)
					}
					got[ai] += st.ObjectAccesses
					if algo == LBLP || algo == LBLPUB {
						if st.LazyDeferred-st.LazyAdmitted != st.ObjectAccesses || st.LazyBufferPeak > c.k {
							t.Fatalf("%v: %d accesses beside lazy counters %+v", algo, st.ObjectAccesses, st)
						}
					} else if st.LazyDeferred != 0 || st.LazyAdmitted != 0 || st.LazyBufferPeak != 0 {
						t.Fatalf("%v defers: %+v", algo, st)
					}
				}
				for ri, algo := range rknnAlgos {
					_, st, err := ix.RKNN(q, c.k, alphaStart, alphaEnd, algo)
					if err != nil {
						t.Fatal(err)
					}
					got[len(algos)+ri] += st.ObjectAccesses
				}
			}
			label := fmt.Sprintf("%s k=%d α=%v [%v, %v]", kind, c.k, c.alpha, alphaStart, alphaEnd)
			if got != want[kind][ci] {
				t.Errorf("%s: object accesses Basic/LB/LB-LP/LB-LP-UB/RSS/RSS-ICR = %v, pinned %v", label, got, want[kind][ci])
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
		ix, queries := pinnedFixture(t, kind)
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
