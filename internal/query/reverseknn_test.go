package query

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// bruteReverseKNN is the reference: A is a result iff fewer than k stored
// objects are strictly closer to A than q is (ties broken by id vs q's id).
func bruteReverseKNN(objs []*fuzzy.Object, q *fuzzy.Object, k int, alpha float64) []Result {
	var out []Result
	for _, a := range objs {
		dq := fuzzy.AlphaDist(a, q, alpha)
		closer := 0
		for _, b := range objs {
			if b.ID() == a.ID() {
				continue
			}
			d := fuzzy.AlphaDist(a, b, alpha)
			if d < dq || (d == dq && b.ID() < q.ID()) {
				closer++
			}
		}
		if closer < k {
			out = append(out, Result{ID: a.ID(), Dist: dq, Exact: true, Lower: dq, Upper: dq})
		}
	}
	// Order by (dist, id) like the implementation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Dist < out[j-1].Dist ||
				(out[j].Dist == out[j-1].Dist && out[j].ID < out[j-1].ID) {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	return out
}

func TestReverseKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(301, 1))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.IntN(40)
		quant := []int{4, 8, 0}[trial%3]
		objs := makeObjects(rng, n, 10, 12, quant)
		ix := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
		q := makeQuery(rng, 12, 12, quant)
		for _, k := range []int{1, 3, 8} {
			for _, alpha := range []float64{0.3, 0.7, 1.0} {
				got, _, err := ix.ReverseKNN(q, k, alpha)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteReverseKNN(objs, q, k, alpha)
				if len(got) != len(want) {
					gids := ids(got)
					wids := ids(want)
					t.Fatalf("trial %d k=%d α=%v: %d results %v, want %d %v",
						trial, k, alpha, len(got), gids, len(want), wids)
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
						t.Fatalf("k=%d α=%v: result %d = %+v, want %+v",
							k, alpha, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func ids(rs []Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestReverseKNNFilterSavesProbes(t *testing.T) {
	// On a larger dataset, the representative-point filter must prune a
	// substantial fraction of objects before any probe.
	rng := rand.New(rand.NewPCG(303, 2))
	objs := makeObjects(rng, 300, 12, 30, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 12, 30, 8)
	_, st, err := ix.ReverseKNN(q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Verification alone would probe all 300 objects at least once; with
	// the filter, total accesses (candidates + their range counts) must
	// stay clearly below exhaustive verification cost.
	if st.ObjectAccesses >= 300 {
		t.Fatalf("filter ineffective: %d object accesses for 300 objects", st.ObjectAccesses)
	}
}

func TestReverseKNNKCoversAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(305, 3))
	objs := makeObjects(rng, 12, 8, 10, 4)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 8, 10, 4)
	got, _, err := ix.ReverseKNN(q, 50, 0.5) // k exceeds dataset size
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("k >= N should return all objects, got %d", len(got))
	}
}

func TestReverseKNNEmptyAndValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(307, 4))
	q := makeQuery(rng, 8, 10, 4)
	empty := buildIndex(t, nil, Options{})
	got, _, err := empty.ReverseKNN(q, 3, 0.5)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index: %d results, err %v", len(got), err)
	}
	ix := buildIndex(t, makeObjects(rng, 5, 8, 10, 4), Options{})
	if _, _, err := ix.ReverseKNN(q, 0, 0.5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ix.ReverseKNN(q, 3, 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, _, err := ix.ReverseKNN(nil, 3, 0.5); err == nil {
		t.Error("nil query accepted")
	}
}
