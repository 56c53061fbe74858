package fuzzyknn

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestPublicRangeSearch(t *testing.T) {
	objs, q := smallDataset(t, 50, 11)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := idx.RangeSearch(q, 0.5, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Dist > 3.0 {
			t.Fatalf("result outside radius: %+v", r)
		}
		obj, err := idx.Object(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if d := AlphaDistance(obj, q, 0.5); math.Abs(d-r.Dist) > 1e-9 {
			t.Fatalf("reported dist %v, actual %v", r.Dist, d)
		}
	}
	if stats.Duration <= 0 {
		t.Fatal("no duration")
	}
	// Consistency with AKNN: the nearest object must be in any radius that
	// admits it.
	knn, _, err := idx.AKNN(q, 1, 0.5, LB)
	if err != nil {
		t.Fatal(err)
	}
	if len(knn) == 1 && knn[0].Dist <= 3.0 {
		found := false
		for _, r := range res {
			if r.ID == knn[0].ID {
				found = true
			}
		}
		if !found {
			t.Fatal("range search missed the nearest neighbor")
		}
	}
}

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

func TestPublicSelfJoin(t *testing.T) {
	objs, _ := smallDataset(t, 40, 23)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := DistanceJoin(idx, idx, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.LeftID >= p.RightID {
			t.Fatalf("self-join pair not canonical: %+v", p)
		}
	}
}

func TestPublicReverseKNN(t *testing.T) {
	objs, q := smallDataset(t, 40, 31)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := idx.ReverseKNN(q, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Verify each reported object truly has q among its 3 nearest: fewer
	// than 3 stored objects strictly closer.
	for _, r := range res {
		a, err := idx.Object(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		dq := AlphaDistance(a, q, 0.5)
		closer := 0
		for _, b := range objs {
			if b.ID() == a.ID() {
				continue
			}
			if AlphaDistance(a, b, 0.5) < dq {
				closer++
			}
		}
		if closer >= 3 {
			t.Fatalf("object %d has %d closer objects; q not in its 3NN", r.ID, closer)
		}
	}
	if stats.Duration <= 0 {
		t.Fatal("no duration")
	}
}

// TestJoinsOnReplicationLeader: a join is a read, so it must answer the
// same on an index that records its writes for followers — the recording
// wrapper is not a tree, and the joins must be handed the trees beneath it.
func TestJoinsOnReplicationLeader(t *testing.T) {
	objsA, _ := smallDataset(t, 30, 31)
	objsB, _ := smallDataset(t, 30, 32)
	for _, shards := range []int{1, 2} {
		cfg := &Config{Shards: shards}
		left, err := NewIndex(objsA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		right, err := NewIndex(objsB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		type answer struct {
			join, pairs []JoinPair
		}
		ask := func(l, r *Index) answer {
			t.Helper()
			join, _, err := DistanceJoin(l, r, 0.5, 2.0)
			if err != nil {
				t.Fatalf("%d shard(s): DistanceJoin: %v", shards, err)
			}
			pairs, _, err := KClosestPairs(l, r, 3, 0.5)
			if err != nil {
				t.Fatalf("%d shard(s): KClosestPairs: %v", shards, err)
			}
			if len(join) == 0 || len(pairs) != 3 {
				t.Fatalf("%d shard(s): fixture too sparse: %d join pairs, %d closest pairs", shards, len(join), len(pairs))
			}
			return answer{join, pairs}
		}
		wantSelf, wantTwo := ask(left, left), ask(left, right)
		for _, ix := range []*Index{left, right} {
			if _, err := ix.EnableReplication(nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := ask(left, left); !reflect.DeepEqual(got, wantSelf) {
			t.Errorf("%d shard(s): self-join on a leader = %+v, want %+v", shards, got, wantSelf)
		}
		if got := ask(left, right); !reflect.DeepEqual(got, wantTwo) {
			t.Errorf("%d shard(s): two-index join on leaders = %+v, want %+v", shards, got, wantTwo)
		}
	}
}
