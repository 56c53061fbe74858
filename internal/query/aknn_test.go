package query

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/store"
)

// makeObjects builds n random fuzzy objects with quantized memberships in a
// small space so that supports overlap and distance ties (including zeros)
// actually occur.
func makeObjects(rng *rand.Rand, n, pts int, space float64, quantize int) []*fuzzy.Object {
	objs := make([]*fuzzy.Object, n)
	for i := range objs {
		cx, cy := rng.Float64()*space, rng.Float64()*space
		wps := make([]fuzzy.WeightedPoint, pts)
		for j := range wps {
			r := math.Sqrt(rng.Float64())
			th := rng.Float64() * 2 * math.Pi
			mu := rng.Float64()
			if mu == 0 {
				mu = 0.5
			}
			if quantize > 0 {
				mu = math.Ceil(mu*float64(quantize)) / float64(quantize)
			}
			wps[j] = fuzzy.WeightedPoint{
				P:  geom.Point{cx + r*math.Cos(th), cy + r*math.Sin(th)},
				Mu: mu,
			}
		}
		wps[0].Mu = 1
		objs[i] = fuzzy.MustNew(uint64(i+1), wps)
	}
	return objs
}

func makeQuery(rng *rand.Rand, pts int, space float64, quantize int) *fuzzy.Object {
	return makeObjects(rng, 1, pts, space, quantize)[0]
}

func buildIndex(t testing.TB, objs []*fuzzy.Object, opts Options) *Index {
	t.Helper()
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkSameDistances verifies two result lists describe the same kNN set up
// to distance ties: distances (sorted) match pairwise, and wherever ids
// differ the distances must be equal.
func checkSameDistances(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	g := append([]Result(nil), got...)
	w := append([]Result(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i].Dist < g[j].Dist })
	sort.Slice(w, func(i, j int) bool { return w[i].Dist < w[j].Dist })
	for i := range g {
		if math.Abs(g[i].Dist-w[i].Dist) > 1e-9 {
			t.Fatalf("%s: dist[%d] = %v, want %v", label, i, g[i].Dist, w[i].Dist)
		}
	}
}

func TestAKNNAllVariantsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	algos := []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.IntN(60)
		quant := []int{0, 8, 16}[trial%3]
		objs := makeObjects(rng, n, 10+rng.IntN(40), 12, quant)
		ix := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
		q := makeQuery(rng, 30, 12, quant)
		for _, k := range []int{1, 3, 10, n + 5} {
			for _, alpha := range []float64{0.25, 0.6, 1.0} {
				want, _, err := ix.LinearScanAKNN(q, k, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range algos {
					got, _, err := ix.AKNN(q, k, alpha, algo)
					if err != nil {
						t.Fatalf("%v: %v", algo, err)
					}
					// Lazy variants may return bound-only results; refine
					// them to exact distances before comparing.
					refined, _, err := ix.Refine(q, alpha, got)
					if err != nil {
						t.Fatal(err)
					}
					checkSameDistances(t, refined, want, algo.String())
				}
			}
		}
	}
}

func TestAKNNResultsSortedAndExactForBasicLB(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	objs := makeObjects(rng, 50, 20, 10, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 20, 10, 8)
	for _, algo := range []AKNNAlgorithm{Basic, LB} {
		res, _, err := ix.AKNN(q, 10, 0.5, algo)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.Exact {
				t.Fatalf("%v: result %d not exact", algo, i)
			}
			if i > 0 && res[i-1].Dist > r.Dist {
				t.Fatalf("%v: results not sorted by distance", algo)
			}
		}
	}
}

func TestAKNNLazyBoundsSandwichTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 3))
	objs := makeObjects(rng, 60, 25, 10, 0)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 25, 10, 0)
	for _, algo := range []AKNNAlgorithm{LBLP, LBLPUB} {
		res, _, err := ix.AKNN(q, 15, 0.5, algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Exact {
				continue
			}
			obj, err := ix.Store().Get(r.ID)
			if err != nil {
				t.Fatal(err)
			}
			d := fuzzy.AlphaDist(obj, q, 0.5)
			if d < r.Lower-1e-9 || d > r.Upper+1e-9 {
				t.Fatalf("%v: true dist %v outside [%v, %v]", algo, d, r.Lower, r.Upper)
			}
		}
	}
}

func TestAKNNStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 5))
	objs := makeObjects(rng, 40, 15, 10, 8)
	ms, _ := store.NewMemStore(objs)
	counted := store.NewCounting(ms)
	ix, err := Build(counted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counted.Reset() // discard index-build reads
	q := makeQuery(rng, 15, 10, 8)
	_, st, err := ix.AKNN(q, 5, 0.5, LB)
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.ObjectAccesses) != counted.Count() {
		t.Fatalf("Stats.ObjectAccesses = %d, store counted %d", st.ObjectAccesses, counted.Count())
	}
	if st.ObjectAccesses > 40 {
		t.Fatalf("more accesses than objects: %d", st.ObjectAccesses)
	}
	if st.NodeAccesses == 0 {
		t.Fatal("no node accesses recorded")
	}
	if st.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
	// Linear scan touches everything exactly once.
	_, st, _ = ix.LinearScanAKNN(q, 5, 0.5)
	if st.ObjectAccesses != 40 || st.DistanceEvals != 40 {
		t.Fatalf("linear scan stats = %+v", st)
	}
}

func TestAKNNEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 6))
	objs := makeObjects(rng, 5, 10, 10, 4)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 10, 10, 4)

	// k larger than the dataset returns everything.
	res, _, err := ix.AKNN(q, 50, 0.5, LB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}

	// Validation failures.
	if _, _, err := ix.AKNN(nil, 5, 0.5, LB); err == nil {
		t.Error("nil query accepted")
	}
	if _, _, err := ix.AKNN(q, 0, 0.5, LB); err == nil {
		t.Error("k=0 accepted")
	}
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, _, err := ix.AKNN(q, 5, alpha, LB); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}

	// Empty index.
	empty := buildIndex(t, nil, Options{})
	res, _, err = empty.AKNN(q, 3, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty index returned %d results", len(res))
	}
}

func TestAKNNIncrementalIndexMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 7))
	objs := makeObjects(rng, 80, 15, 12, 8)
	bulk := buildIndex(t, objs, Options{})
	incr := buildIndex(t, objs, Options{Incremental: true, MinEntries: 2, MaxEntries: 6})
	q := makeQuery(rng, 15, 12, 8)
	a, _, err := bulk.AKNN(q, 8, 0.6, LB)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := incr.AKNN(q, 8, 0.6, LB)
	if err != nil {
		t.Fatal(err)
	}
	checkSameDistances(t, a, b, "incremental-vs-bulk")
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 8))
	objs := makeObjects(rng, 100, 15, 15, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 15, 15, 8)
	for _, radius := range []float64{0.5, 2, 5, 100} {
		sc := getScratch()
		sc.stats = Stats{}
		hits, err := rangeHits(sc, sc.pin(ix), q, 0.5, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]float64{}
		for _, o := range objs {
			if d := fuzzy.AlphaDist(o, q, 0.5); d <= radius {
				want[o.ID()] = d
			}
		}
		if len(hits) != len(want) {
			t.Fatalf("radius %v: %d objects, want %d", radius, len(hits), len(want))
		}
		for _, h := range hits {
			if wd, ok := want[h.obj.ID()]; !ok || math.Abs(h.dist-wd) > 1e-9 {
				t.Fatalf("radius %v: object %d dist %v, want %v", radius, h.obj.ID(), h.dist, wd)
			}
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if Basic.String() != "Basic AKNN" || LB.String() != "LB" ||
		LBLP.String() != "LB-LP" || LBLPUB.String() != "LB-LP-UB" {
		t.Error("AKNN algorithm names wrong")
	}
	if Naive.String() != "Naive RKNN" || BasicRKNN.String() != "Basic RKNN" ||
		RSS.String() != "RSS" || RSSICR.String() != "RSS-ICR" {
		t.Error("RKNN algorithm names wrong")
	}
	if AKNNAlgorithm(99).String() == "" || RKNNAlgorithm(99).String() == "" {
		t.Error("unknown algorithms should still print")
	}
}

// TestAKNNLazyProbesTieWhenBufferFills holds §3.3's one probe trigger on a
// tie: once |R| + |G| = k, G's minimum must be probed even when its lower
// bound only equals H's top key, since it may turn out at that distance
// with a smaller id. Crisp one-point objects have lower bound = exact
// distance = upper bound. With k = 3, objects 7 and 10 are admitted
// unprobed; object 31's lower bound (its low-membership fringe at 0.9) puts
// it ahead of 18, G = {31} fills the last slot and 31 is probed, landing in
// H at its exact distance 1. Object 18's entry, at lower bound 1, pops
// before that object (leaf entries precede objects at equal keys) and fills
// G. H's top is now object 31 at 1, tied with 18's lower bound: a search
// that pops 31 without probing 18 answers {7, 10, 31}, where the
// (distance, id) order asks for {7, 10, 18}.
func TestAKNNLazyProbesTieWhenBufferFills(t *testing.T) {
	point := func(id uint64, x, y float64) *fuzzy.Object {
		return fuzzy.MustNew(id, []fuzzy.WeightedPoint{{P: geom.Point{x, y}, Mu: 1}})
	}
	objs := []*fuzzy.Object{
		point(7, 0.2, 0),
		point(10, 0, 0.5),
		point(18, 1, 0),
		fuzzy.MustNew(31, []fuzzy.WeightedPoint{{P: geom.Point{-1, 0}, Mu: 1}, {P: geom.Point{-0.9, 0}, Mu: 0.2}}),
	}
	ix := buildIndex(t, objs, Options{})
	q := point(100, 0, 0)
	const k, alpha = 3, 0.5
	want, _, err := ix.LinearScanAKNN(q, k, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if ids := resultIDs(want); ids != [3]uint64{7, 10, 18} || want[2].Dist != 1 {
		t.Fatalf("the scan answers %v, want ids 7, 10, 18 with 18 at distance 1", want)
	}
	for _, algo := range []AKNNAlgorithm{LBLP, LBLPUB} {
		got, st, err := ix.AKNN(q, k, alpha, algo)
		if err != nil {
			t.Fatal(err)
		}
		// The fixture's shape: 7 and 10 admitted, 31 and 18 probed.
		if st.LazyAdmitted != 2 || st.ObjectAccesses != 2 {
			t.Fatalf("%v: %+v, want 2 admitted and 2 probed", algo, st)
		}
		if ids := resultIDs(got); ids != [3]uint64{7, 10, 18} {
			t.Errorf("%v: raw answer %v, want ids 7, 10, 18", algo, got)
		}
		refined, _, err := ix.Refine(q, alpha, got)
		if err != nil {
			t.Fatal(err)
		}
		if ids := resultIDs(refined); ids != [3]uint64{7, 10, 18} || refined[2].Dist != 1 {
			t.Errorf("%v: refined answer %v, want %v", algo, refined, want)
		}
	}
}

// resultIDs returns the ids of a three-result answer, or zeros if it has
// another length.
func resultIDs(rs []Result) (ids [3]uint64) {
	if len(rs) == len(ids) {
		for i, r := range rs {
			ids[i] = r.ID
		}
	}
	return ids
}
