package query

import (
	"fmt"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
)

// TestObjectAccessesPinned pins the paper's cost metric, not just its
// answers: the exact number of store probes each AKNN variant spends on a
// fixed fixture of each §6.1 dataset shape at the paper's density
// (N / Space² = 5). The equivalence suites accept any search that returns
// the right neighbours; a pruning regression that stays exact but probes
// more fails here. The counts were recorded before PR 22 fixed the leaf
// summary to the §3.2 line and the §3.4 sample to n = 16, seed 0, and did
// not move; they are the same on one tree and on four hash shards.
//
// A change that moves a number on purpose — a better bound, a different
// summary — re-records it and says so; the test prints what it measured.
// The closed-form §3.2 line fit (L_opt itself, where the bisection it
// replaced often returned a worse conservative line) moved the §3.2-keyed
// counts, and only downwards. Before it, Basic/LB/LB-LP/LB-LP-UB read:
// synthetic {349, 183, 183, 179} and {733, 614, 614, 614}; cells
// {298, 202, 202, 202} and {696, 617, 617, 617}. Basic keys on the support
// MBR and did not move.
//
// Lazy probing that defers (§3.3: G's minimum was probed ahead of H on a
// tie with H's top or once G filled the remaining slots) moved only
// LB-LP-UB, and only downwards; before it, G never held an entry past the
// next step and the LB-LP-UB counts read synthetic 176 and 612, cells 190
// and 613. Deferring by membership alone (G's minimum is probed ahead of H
// only when G fills the remaining slots and its lower bound is ≤ H's top)
// dropped the tie trigger and moved the lazy counts downwards again: before
// it, LB-LP-UB read synthetic 146 and 540, cells 182 and 556, and LB-LP on
// synthetic k = 20 read 612. LB-LP defers too, but without the §3.4 sample
// its upper bound admits almost nothing here, so it reads about what LB
// reads. Every entry a lazy search defers is either admitted unprobed or
// probed, which the test also holds per query.
func TestObjectAccessesPinned(t *testing.T) {
	const nQueries = 24
	cells := []struct {
		k     int
		alpha float64
	}{{5, 0.9}, {20, 0.5}}
	algos := []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	// want[kind][cell][algo]: ObjectAccesses summed over the queries, on one
	// tree.
	want := map[dataset.Kind][2][4]int{
		dataset.Synthetic: {{349, 180, 180, 134}, {733, 612, 611, 416}},
		dataset.Cells:     {{298, 190, 190, 171}, {696, 613, 613, 426}},
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
		single := buildIndex(t, objs, Options{})
		sharded := buildShardedOver(t, objs, 4, Options{})
		for ci, c := range cells {
			var got, gotSharded [4]int
			for ai, algo := range algos {
				for _, q := range queries {
					_, st, err := single.AKNN(q, c.k, c.alpha, algo)
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
					if _, st, err = sharded.AKNN(q, c.k, c.alpha, algo); err != nil {
						t.Fatal(err)
					}
					gotSharded[ai] += st.ObjectAccesses
				}
			}
			label := fmt.Sprintf("%s k=%d α=%v", kind, c.k, c.alpha)
			if got != want[kind][ci] {
				t.Errorf("%s: object accesses Basic/LB/LB-LP/LB-LP-UB = %v, pinned %v", label, got, want[kind][ci])
			}
			// Layout invariance (PR 18): Basic and LB cost the same however
			// the population is cut into trees, and the lazy variants are
			// served as LB.
			lb := want[kind][ci][1]
			if wantSharded := [4]int{want[kind][ci][0], lb, lb, lb}; gotSharded != wantSharded {
				t.Errorf("%s on 4 shards: object accesses = %v, pinned %v", label, gotSharded, wantSharded)
			}
		}
	}
}
