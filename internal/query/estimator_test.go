package query

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// TestStaircaseEstimatorSameAnswers verifies that switching the boundary
// estimator changes cost only, never answers.
func TestStaircaseEstimatorSameAnswers(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 1))
	objs := makeObjects(rng, 60, 15, 10, 0)
	linear := buildIndex(t, objs, Options{})
	stair := buildIndex(t, objs, Options{
		Estimator: func(o *fuzzy.Object) fuzzy.MBREstimator {
			return fuzzy.NewStaircaseApprox(o, 16)
		},
	})
	for trial := 0; trial < 5; trial++ {
		q := makeQuery(rng, 15, 10, 0)
		for _, alpha := range []float64{0.3, 0.6, 0.9} {
			a, _, err := linear.AKNN(q, 8, alpha, LB)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := stair.AKNN(q, 8, alpha, LB)
			if err != nil {
				t.Fatal(err)
			}
			checkSameDistances(t, b, a, "staircase-vs-linear")
		}
		r1, _, err := linear.RKNN(q, 4, 0.3, 0.7, RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := stair.RKNN(q, 4, 0.3, 0.7, RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		checkSameRanged(t, r2, r1, "staircase RKNN")
	}
}

// TestStaircaseEstimatorNotWorseOnAccesses compares aggregate probe counts:
// the staircase bound encloses the exact per-level MBRs directly, so it
// should not lose to the linear bound overall.
func TestStaircaseEstimatorNotWorseOnAccesses(t *testing.T) {
	rng := rand.New(rand.NewPCG(603, 2))
	objs := makeObjects(rng, 300, 15, 22, 0)
	linear := buildIndex(t, objs, Options{})
	stair := buildIndex(t, objs, Options{
		Estimator: func(o *fuzzy.Object) fuzzy.MBREstimator {
			return fuzzy.NewStaircaseApprox(o, 32)
		},
	})
	var linAcc, stairAcc int
	for trial := 0; trial < 15; trial++ {
		q := makeQuery(rng, 15, 22, 0)
		_, st, err := linear.AKNN(q, 10, 0.7, LB)
		if err != nil {
			t.Fatal(err)
		}
		linAcc += st.ObjectAccesses
		_, st, err = stair.AKNN(q, 10, 0.7, LB)
		if err != nil {
			t.Fatal(err)
		}
		stairAcc += st.ObjectAccesses
	}
	if stairAcc > linAcc {
		t.Fatalf("staircase estimator probed more than linear: %d vs %d", stairAcc, linAcc)
	}
}

// TestStaircaseIndexCannotPersistSummaries documents the restriction: leaf
// summaries built by a non-default estimator have no persistent form, so
// SavePaged refuses and leaves nothing behind.
func TestStaircaseIndexCannotPersistSummaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(605, 3))
	objs := makeObjects(rng, 10, 8, 10, 4)
	stair := buildIndex(t, objs, Options{
		Estimator: func(o *fuzzy.Object) fuzzy.MBREstimator {
			return fuzzy.NewStaircaseApprox(o, 8)
		},
	})
	dir := t.TempDir()
	if err := stair.SavePaged(filepath.Join(dir, "stair.fzp")); err == nil {
		t.Fatal("staircase summaries should not be persistable")
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused SavePaged left %d files behind", len(left))
	}
}
