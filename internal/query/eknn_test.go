package query

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
)

func TestExpectedDistKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(701, 1))
	objs := makeObjects(rng, 40, 12, 10, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 12, 10, 8)
	got, st, err := ix.ExpectedDistKNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		id uint64
		e  float64
	}
	var want []pair
	for _, o := range objs {
		want = append(want, pair{o.ID(), fuzzy.ExpectedDist(o, q)})
	}
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[j].e < want[i].e || (want[j].e == want[i].e && want[j].id < want[i].id) {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if got[i].ID != want[i].id || math.Abs(got[i].Dist-want[i].e) > 1e-9 {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st.ObjectAccesses != 40 || st.ProfilesBuilt != 40 {
		t.Fatalf("stats = %+v, expected exhaustive scan", st)
	}
}

// TestExpectedVsAlphaSemantics reproduces the paper's §2.1 argument as a
// concrete disagreement: an object whose low-probability fringe nearly
// touches the query is the α-distance 1NN at a low threshold, but the
// integrated metric ranks a farther crisp object first.
func TestExpectedVsAlphaSemantics(t *testing.T) {
	q := fuzzy.MustNew(100, []fuzzy.WeightedPoint{{P: geom.Point{0, 0}, Mu: 1}})
	// Fringe-close: kernel at distance 10, a µ=0.1 point at distance 0.5.
	fringe := fuzzy.MustNew(1, []fuzzy.WeightedPoint{
		{P: geom.Point{10, 0}, Mu: 1},
		{P: geom.Point{0.5, 0}, Mu: 0.1},
	})
	// Crisp: a single kernel point at distance 4.
	crisp := fuzzy.MustNew(2, []fuzzy.WeightedPoint{{P: geom.Point{4, 0}, Mu: 1}})
	ix := buildIndex(t, []*fuzzy.Object{fringe, crisp}, Options{})

	// α-distance at α = 0.1: the fringe object wins (0.5 < 4).
	res, _, err := ix.AKNN(q, 1, 0.1, LB)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 1 {
		t.Fatalf("α-kNN at 0.1 picked %d, want the fringe object", res[0].ID)
	}

	// Expected distance: E(fringe) = 0.1·0.5 + 0.9·10 = 9.05 > E(crisp) = 4.
	eres, _, err := ix.ExpectedDistKNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eres[0].ID != 2 {
		t.Fatalf("expected-distance kNN picked %d, want the crisp object", eres[0].ID)
	}
	if math.Abs(eres[0].Dist-4) > 1e-9 {
		t.Fatalf("E(crisp) = %v, want 4", eres[0].Dist)
	}
}

func TestExpectedDistKNNEdge(t *testing.T) {
	rng := rand.New(rand.NewPCG(703, 2))
	empty := buildIndex(t, nil, Options{})
	q := makeQuery(rng, 10, 10, 4)
	got, _, err := empty.ExpectedDistKNN(q, 3)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index: %d results, err %v", len(got), err)
	}
	ix := buildIndex(t, makeObjects(rng, 4, 8, 10, 4), Options{})
	got, _, err = ix.ExpectedDistKNN(q, 10)
	if err != nil || len(got) != 4 {
		t.Fatalf("k > N: %d results, err %v", len(got), err)
	}
	if _, _, err := ix.ExpectedDistKNN(q, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
