package query

import (
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// This file is the cross-variant equivalence harness: on randomized seeded
// datasets, all four AKNN variants must return the same result set (up to
// distance ties) and all four RKNN variants must return byte-identical
// qualifying ranges — first on a freshly built index, then again after a
// long random insert/delete churn sequence, with the R-tree invariants
// checked at every checkpoint. The paper proves the variants equivalent;
// this harness makes the proof executable while the tree underneath churns.

// equivState drives one harness run: the index plus a model of the live ids
// so churn can pick deletion victims.
type equivState struct {
	t    *testing.T
	rng  *rand.Rand
	ix   *Index
	live []uint64
	next uint64
}

func newEquivState(t *testing.T, seed uint64, n int) *equivState {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	objs := makeObjects(rng, n, 10, 12, 8) // quantized memberships force ties
	// Alternate the build path by seed: incremental trees enforce the
	// strict min-fill invariant in CheckInvariants (bulk-loaded trees are
	// exempt — STR legitimately leaves underfull tail nodes), so odd seeds
	// give the churn checkpoints real underflow detection.
	s := &equivState{
		t:    t,
		rng:  rng,
		ix:   buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6, Incremental: seed%2 == 1}),
		next: uint64(n) + 1000,
	}
	for _, o := range objs {
		s.live = append(s.live, o.ID())
	}
	return s
}

// churn applies ops random mutations (biased toward inserts so the index
// grows), checking the tree invariants at regular checkpoints.
func (s *equivState) churn(ops int) {
	for op := 0; op < ops; op++ {
		if len(s.live) == 0 || s.rng.Float64() < 0.52 {
			o := makeObjectsWithBase(s.rng, s.next, 1, 10, 12, 8)[0]
			s.next++
			if _, err := Insert(s.ix, o); err != nil {
				s.t.Fatalf("churn op %d: insert: %v", op, err)
			}
			s.live = append(s.live, o.ID())
		} else {
			i := s.rng.IntN(len(s.live))
			if _, err := Delete(s.ix, s.live[i]); err != nil {
				s.t.Fatalf("churn op %d: delete %d: %v", op, s.live[i], err)
			}
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
		}
		if op%50 == 0 || op == ops-1 {
			if err := s.ix.CheckInvariants(); err != nil {
				s.t.Fatalf("churn op %d: %v", op, err)
			}
			if s.ix.Len() != len(s.live) {
				s.t.Fatalf("churn op %d: index len %d, model %d", op, s.ix.Len(), len(s.live))
			}
		}
	}
}

// assertAKNNEquivalence checks Basic/LB/LBLP/LBLPUB against the linear-scan
// reference for one query setting.
func (s *equivState) assertAKNNEquivalence(q *fuzzy.Object, k int, alpha float64, label string) {
	s.t.Helper()
	want, _, err := s.ix.LinearScanAKNN(q, k, alpha)
	if err != nil {
		s.t.Fatalf("%s: linear scan: %v", label, err)
	}
	for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
		got, _, err := s.ix.AKNN(q, k, alpha, algo)
		if err != nil {
			s.t.Fatalf("%s: %v: %v", label, algo, err)
		}
		refined, _, err := s.ix.Refine(q, alpha, got)
		if err != nil {
			s.t.Fatalf("%s: %v: refine: %v", label, algo, err)
		}
		checkSameDistances(s.t, refined, want, label+"/"+algo.String())
	}
}

// assertRKNNEquivalence checks that all four RKNN variants return identical
// qualifying ranges for one query setting.
func (s *equivState) assertRKNNEquivalence(q *fuzzy.Object, k int, as, ae float64, label string) {
	s.t.Helper()
	type answer struct {
		algo RKNNAlgorithm
		res  []RangedResult
	}
	answers := make([]answer, 0, 4)
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		res, _, err := s.ix.RKNN(q, k, as, ae, algo)
		if err != nil {
			s.t.Fatalf("%s: %v: %v", label, algo, err)
		}
		answers = append(answers, answer{algo: algo, res: res})
	}
	ref := answers[0]
	for _, a := range answers[1:] {
		if len(a.res) != len(ref.res) {
			s.t.Fatalf("%s: %v returned %d objects, %v returned %d",
				label, a.algo, len(a.res), ref.algo, len(ref.res))
		}
		for i := range a.res {
			if a.res[i].ID != ref.res[i].ID {
				s.t.Fatalf("%s: result %d: %v has id %d, %v has id %d",
					label, i, a.algo, a.res[i].ID, ref.algo, ref.res[i].ID)
			}
			got, want := a.res[i].Qualifying.String(), ref.res[i].Qualifying.String()
			if got != want {
				s.t.Fatalf("%s: object %d: %v qualifies on %s, %v on %s",
					label, a.res[i].ID, a.algo, got, ref.algo, want)
			}
		}
	}
}

// assertAllEquivalent sweeps a few query settings over both families.
func (s *equivState) assertAllEquivalent(label string, queries int) {
	for qi := 0; qi < queries; qi++ {
		q := makeQuery(s.rng, 12, 12, 8)
		for _, k := range []int{1, 4} {
			s.assertAKNNEquivalence(q, k, 0.3, label)
			s.assertAKNNEquivalence(q, k, 0.75, label)
			s.assertRKNNEquivalence(q, k, 0.2, 0.85, label)
		}
		s.assertRKNNEquivalence(q, 3, 0.5, 0.5, label) // degenerate range
	}
}

// TestCrossVariantEquivalenceUnderChurn is the headline property test: the
// eight variants agree on a fresh index, keep agreeing after a >=500-op
// random churn, and again after a second churn wave — with structural
// invariants holding throughout.
func TestCrossVariantEquivalenceUnderChurn(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		s := newEquivState(t, seed, 50)
		if err := s.ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s.assertAllEquivalent("fresh", 2)

		s.churn(500)
		s.assertAllEquivalent("churned", 2)

		// A second, delete-heavy wave: drain most of the index, then verify
		// equivalence holds near-empty too.
		for len(s.live) > 5 {
			i := s.rng.IntN(len(s.live))
			if _, err := Delete(s.ix, s.live[i]); err != nil {
				t.Fatal(err)
			}
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
		}
		if err := s.ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s.assertAllEquivalent("drained", 1)
	}
}

// TestEquivalenceOnEmptyAndTinyIndexes covers the edges: all variants must
// agree (on emptiness) for 0- and 1-object indexes reached by deletion.
func TestEquivalenceOnEmptyAndTinyIndexes(t *testing.T) {
	s := newEquivState(t, 99, 3)
	for len(s.live) > 1 {
		if _, err := Delete(s.ix, s.live[0]); err != nil {
			t.Fatal(err)
		}
		s.live = s.live[1:]
	}
	s.assertAllEquivalent("one-object", 1)
	if _, err := Delete(s.ix, s.live[0]); err != nil {
		t.Fatal(err)
	}
	s.live = nil
	q := makeQuery(s.rng, 12, 12, 8)
	for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
		res, _, err := s.ix.AKNN(q, 3, 0.5, algo)
		if err != nil {
			t.Fatalf("%v on empty index: %v", algo, err)
		}
		if len(res) != 0 {
			t.Fatalf("%v on empty index returned %d results", algo, len(res))
		}
	}
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		res, _, err := s.ix.RKNN(q, 3, 0.2, 0.8, algo)
		if err != nil {
			t.Fatalf("%v on empty index: %v", algo, err)
		}
		if len(res) != 0 {
			t.Fatalf("%v on empty index returned %d results", algo, len(res))
		}
	}
}
