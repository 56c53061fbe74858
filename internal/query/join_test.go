package query

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// bruteJoin is the reference ε-distance join.
func bruteJoin(left, right []*fuzzy.Object, alpha, eps float64, selfJoin bool) []JoinPair {
	var out []JoinPair
	for _, a := range left {
		for _, b := range right {
			if selfJoin && a.ID() >= b.ID() {
				continue
			}
			if d := fuzzy.AlphaDist(a, b, alpha); d <= eps {
				out = append(out, JoinPair{LeftID: a.ID(), RightID: b.ID(), Dist: d})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		if out[i].LeftID != out[j].LeftID {
			return out[i].LeftID < out[j].LeftID
		}
		return out[i].RightID < out[j].RightID
	})
	return out
}

func makeObjectsWithBase(rng *rand.Rand, base uint64, n, pts int, space float64, quantize int) []*fuzzy.Object {
	objs := makeObjects(rng, n, pts, space, quantize)
	out := make([]*fuzzy.Object, len(objs))
	for i, o := range objs {
		out[i] = fuzzy.MustNew(base+uint64(i+1), o.WeightedPoints())
	}
	return out
}

func TestDistanceJoinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 1))
	for trial := 0; trial < 6; trial++ {
		left := makeObjects(rng, 25+rng.IntN(20), 10, 10, 8)
		right := makeObjectsWithBase(rng, 1000, 25+rng.IntN(20), 10, 10, 8)
		ixL := buildIndex(t, left, Options{MinEntries: 2, MaxEntries: 5})
		ixR := buildIndex(t, right, Options{MinEntries: 2, MaxEntries: 5})
		for _, eps := range []float64{0, 0.5, 2, 8} {
			got, st, err := DistanceJoin(ixL, ixR, 0.5, eps)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteJoin(left, right, 0.5, eps, false)
			if len(got) != len(want) {
				t.Fatalf("eps %v: %d pairs, want %d", eps, len(got), len(want))
			}
			for i := range got {
				if got[i].LeftID != want[i].LeftID || got[i].RightID != want[i].RightID ||
					math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("eps %v: pair %d = %+v, want %+v", eps, i, got[i], want[i])
				}
			}
			if len(want) > 0 && st.ObjectAccesses == 0 {
				t.Fatal("join produced pairs without probing")
			}
		}
	}
}

func TestSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 2))
	objs := makeObjects(rng, 40, 10, 8, 8)
	ix := buildIndex(t, objs, Options{})
	got, _, err := DistanceJoin(ix, ix, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteJoin(objs, objs, 0.5, 1.0, true)
	if len(got) != len(want) {
		t.Fatalf("self join: %d pairs, want %d", len(got), len(want))
	}
	seen := map[[2]uint64]bool{}
	for i := range got {
		if got[i].LeftID >= got[i].RightID {
			t.Fatalf("self-join pair not ordered: %+v", got[i])
		}
		key := [2]uint64{got[i].LeftID, got[i].RightID}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
}

// TestDistanceJoinValidation: every argument mistake of both joins comes
// back tagged ErrInvalidArgument, like the same mistake on any other query.
func TestDistanceJoinValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(205, 3))
	ix := buildIndex(t, makeObjects(rng, 5, 8, 8, 4), Options{})
	threeD := buildIndex(t, []*fuzzy.Object{
		fuzzy.MustNew(1, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}}),
	}, Options{})
	for name, join := range map[string]func() error{
		"join alpha 0":        func() error { _, _, err := DistanceJoin(ix, ix, 0, 1); return err },
		"join alpha above 1":  func() error { _, _, err := DistanceJoin(ix, ix, 1.5, 1); return err },
		"join negative eps":   func() error { _, _, err := DistanceJoin(ix, ix, 0.5, -1); return err },
		"join NaN eps":        func() error { _, _, err := DistanceJoin(ix, ix, 0.5, math.NaN()); return err },
		"join nil index":      func() error { _, _, err := DistanceJoin(nil, ix, 0.5, 1); return err },
		"join dims":           func() error { _, _, err := DistanceJoin(ix, threeD, 0.5, 1); return err },
		"pairs k 0":           func() error { _, _, err := KClosestPairs(ix, ix, 0, 0.5); return err },
		"pairs alpha above 1": func() error { _, _, err := KClosestPairs(ix, ix, 3, 1.5); return err },
		"pairs nil index":     func() error { _, _, err := KClosestPairs(ix, nil, 3, 0.5); return err },
		"pairs dims":          func() error { _, _, err := KClosestPairs(threeD, ix, 3, 0.5); return err },
	} {
		if err := join(); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("%s: error %v is not tagged ErrInvalidArgument", name, err)
		}
	}
}

func TestDistanceJoinEmpty(t *testing.T) {
	rng := rand.New(rand.NewPCG(207, 4))
	empty := buildIndex(t, nil, Options{})
	full := buildIndex(t, makeObjects(rng, 10, 8, 8, 4), Options{})
	got, _, err := DistanceJoin(empty, full, 0.5, 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty join = %d pairs, err %v", len(got), err)
	}
}

func TestKClosestPairsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(209, 5))
	for trial := 0; trial < 6; trial++ {
		left := makeObjects(rng, 20+rng.IntN(15), 10, 12, 8)
		right := makeObjectsWithBase(rng, 1000, 20+rng.IntN(15), 10, 12, 8)
		ixL := buildIndex(t, left, Options{MinEntries: 2, MaxEntries: 5})
		ixR := buildIndex(t, right, Options{MinEntries: 2, MaxEntries: 5})
		for _, k := range []int{1, 5, 15} {
			got, _, err := KClosestPairs(ixL, ixR, k, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			all := bruteJoin(left, right, 0.5, math.Inf(1), false)
			want := all
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d pairs, want %d", k, len(got), len(want))
			}
			for i := range got {
				// Tie-tolerant: distances must match pairwise.
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("k=%d: pair %d dist %v, want %v", k, i, got[i].Dist, want[i].Dist)
				}
				if i > 0 && got[i-1].Dist > got[i].Dist {
					t.Fatalf("pairs not sorted at %d", i)
				}
			}
		}
	}
}

func TestKClosestPairsSelf(t *testing.T) {
	rng := rand.New(rand.NewPCG(211, 6))
	objs := makeObjects(rng, 30, 10, 10, 8)
	ix := buildIndex(t, objs, Options{})
	got, _, err := KClosestPairs(ix, ix, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	all := bruteJoin(objs, objs, 0.5, math.Inf(1), true)
	for i := range got {
		if got[i].LeftID >= got[i].RightID {
			t.Fatalf("self pair not ordered: %+v", got[i])
		}
		if math.Abs(got[i].Dist-all[i].Dist) > 1e-9 {
			t.Fatalf("pair %d dist %v, want %v", i, got[i].Dist, all[i].Dist)
		}
	}
}

func TestKClosestPairsExceedsData(t *testing.T) {
	rng := rand.New(rand.NewPCG(213, 7))
	left := makeObjects(rng, 3, 8, 8, 4)
	right := makeObjectsWithBase(rng, 1000, 2, 8, 8, 4)
	ixL := buildIndex(t, left, Options{})
	ixR := buildIndex(t, right, Options{})
	got, _, err := KClosestPairs(ixL, ixR, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d pairs, want all 6", len(got))
	}
}
