package query

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/oracle"
)

func TestPublicRangeSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	objs := makeObjects(rng, 80, 12, 12, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 12, 12, 8)
	for _, radius := range []float64{0, 1, 3, 50} {
		res, st, err := ix.RangeSearch(q, 0.5, radius)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]float64{}
		for _, s := range oracle.New(objs, nil).Range(q, 0.5, radius) {
			want[s.ID] = s.Dist
		}
		if len(res) != len(want) {
			t.Fatalf("radius %v: %d results, want %d", radius, len(res), len(want))
		}
		for i, r := range res {
			if wd, ok := want[r.ID]; !ok || math.Abs(r.Dist-wd) > 1e-9 {
				t.Fatalf("radius %v: result %d = %+v, want dist %v", radius, i, r, wd)
			}
			if i > 0 && res[i-1].Dist > r.Dist {
				t.Fatalf("results not sorted at %d", i)
			}
			if !r.Exact {
				t.Fatalf("range results must be exact")
			}
		}
		if st.Duration <= 0 {
			t.Fatal("no duration recorded")
		}
	}
}

func TestPublicRangeSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(78, 2))
	objs := makeObjects(rng, 10, 8, 10, 4)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 8, 10, 4)
	if _, _, err := ix.RangeSearch(q, 0.5, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, _, err := ix.RangeSearch(q, 0, 1); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, _, err := ix.RangeSearch(q, 0.5, math.NaN()); err == nil {
		t.Error("NaN radius accepted")
	}
}

func TestPublicRangeSearchZeroRadiusFindsOverlaps(t *testing.T) {
	// Objects whose cuts overlap the query have distance exactly 0.
	rng := rand.New(rand.NewPCG(79, 3))
	objs := makeObjects(rng, 120, 15, 8, 8) // small space: overlaps frequent
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 15, 8, 8)
	res, _, err := ix.RangeSearch(q, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Dist != 0 {
			t.Fatalf("zero-radius result with dist %v", r.Dist)
		}
	}
}
