package query

import (
	"fmt"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
)

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
	const nQueries = 24
	cells := []struct {
		k     int
		alpha float64
	}{{5, 0.9}, {20, 0.5}}
	algos := []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	rknnAlgos := []RKNNAlgorithm{RSS, RSSICR}
	const alphaStart, alphaEnd = 0.3, 0.5
	// want[kind][cell]: ObjectAccesses summed over the queries — AKNN under
	// Basic/LB/LB-LP/LB-LP-UB at the cell's k and α, then RSS and RSS-ICR
	// at the cell's k over [alphaStart, alphaEnd].
	want := map[dataset.Kind][2][6]int{
		dataset.Synthetic: {{349, 180, 180, 134, 485, 485}, {733, 612, 611, 413, 1366, 1366}},
		dataset.Cells:     {{298, 190, 190, 168, 555, 555}, {696, 613, 613, 420, 1316, 1316}},
	}
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		p := dataset.Default(kind)
		p.N, p.PointsPerObject, p.Space, p.Seed = 320, 48, 8, 77
		objs, err := dataset.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]*fuzzy.Object, nQueries)
		for i := range queries {
			if queries[i], err = dataset.GenerateQuery(p, i); err != nil {
				t.Fatal(err)
			}
		}
		ix := buildIndex(t, objs, Options{})
		for ci, c := range cells {
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
