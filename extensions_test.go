package fuzzyknn

import (
	"errors"
	"math"
	"testing"
)

func TestPublicExpectedDistance(t *testing.T) {
	a, err := NewObject(1, []WeightedPoint{
		{P: Point{0, 0}, Mu: 1},
		{P: Point{-3, 0}, Mu: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewObject(2, []WeightedPoint{{P: Point{4, 0}, Mu: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// d_α = 4 everywhere (the fringe at -3 is farther): E = 4.
	if got := ExpectedDistance(a, b); math.Abs(got-4) > 1e-12 {
		t.Fatalf("ExpectedDistance = %v, want 4", got)
	}
	// Symmetric and bounded by the kernel distance.
	if got := ExpectedDistance(b, a); math.Abs(got-4) > 1e-12 {
		t.Fatalf("asymmetric: %v", got)
	}
}

func TestPublicJoins(t *testing.T) {
	objsA, _ := smallDataset(t, 30, 21)
	objsB, _ := smallDataset(t, 30, 22)
	// Re-id the second set so ids do not collide.
	reB := make([]*Object, len(objsB))
	for i, o := range objsB {
		var err error
		reB[i], err = NewObject(1000+o.ID(), o.WeightedPoints())
		if err != nil {
			t.Fatal(err)
		}
	}
	left, err := NewIndex(objsA, nil)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewIndex(reB, nil)
	if err != nil {
		t.Fatal(err)
	}

	pairs, _, err := DistanceJoin(left, right, 0.5, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		a, _ := left.Object(p.LeftID)
		b, _ := right.Object(p.RightID)
		if d := AlphaDistance(a, b, 0.5); math.Abs(d-p.Dist) > 1e-9 || d > 2.0 {
			t.Fatalf("bad pair %+v (actual %v)", p, d)
		}
	}

	top, _, err := KClosestPairs(left, right, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("KClosestPairs returned %d pairs", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Dist > top[i].Dist {
			t.Fatal("pairs not sorted")
		}
	}
	// The closest pair must also appear in any join that admits it.
	if len(pairs) > 0 && math.Abs(pairs[0].Dist-top[0].Dist) > 1e-9 {
		t.Fatalf("join min %v vs closest pair %v", pairs[0].Dist, top[0].Dist)
	}

	// Argument mistakes carry the tag every other query entry point gives them.
	_, _, errAlpha := DistanceJoin(left, right, 1.5, 1)
	_, _, errEps := DistanceJoin(left, right, 0.5, -1)
	_, _, errK := KClosestPairs(left, right, 0, 0.5)
	for _, err := range []error{errAlpha, errEps, errK} {
		if !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("join argument error %v is not tagged ErrInvalidQuery", err)
		}
	}
}
