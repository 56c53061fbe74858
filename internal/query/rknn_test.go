package query

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/interval"
)

// bruteRKNN is the plateau-exact reference: it evaluates the kNN set on
// every plateau of the union level set using brute-force profiles.
func bruteRKNN(objs []*fuzzy.Object, q *fuzzy.Object, k int, as, ae float64) []RangedResult {
	profiles := make(map[uint64]*fuzzy.Profile, len(objs))
	var levels []float64
	for _, o := range objs {
		p := fuzzy.ComputeProfileBrute(o, q)
		profiles[o.ID()] = p
		levels = append(levels, p.Levels...)
	}
	sort.Float64s(levels)
	levels = dedupeInWindow(levels, as, ae)

	acc := make(map[uint64]*interval.Set)
	for _, pc := range makePieces(as, ae, levels) {
		type cd struct {
			id uint64
			d  float64
		}
		var pool []cd
		for _, o := range objs {
			pool = append(pool, cd{id: o.ID(), d: profiles[o.ID()].Dist(pc.rep)})
		}
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].d != pool[j].d {
				return pool[i].d < pool[j].d
			}
			return pool[i].id < pool[j].id
		})
		if len(pool) > k {
			pool = pool[:k]
		}
		for _, p := range pool {
			s, ok := acc[p.id]
			if !ok {
				s = &interval.Set{}
				acc[p.id] = s
			}
			s.Add(pc.iv)
		}
	}
	out := make([]RangedResult, 0, len(acc))
	for id, s := range acc {
		out = append(out, RangedResult{ID: id, Qualifying: *s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func checkSameRanged(t *testing.T, got, want []RangedResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		gids := make([]uint64, len(got))
		for i, r := range got {
			gids[i] = r.ID
		}
		wids := make([]uint64, len(want))
		for i, r := range want {
			wids[i] = r.ID
		}
		t.Fatalf("%s: %d results %v, want %d results %v", label, len(got), gids, len(want), wids)
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d id %d, want %d", label, i, got[i].ID, want[i].ID)
		}
		if !got[i].Qualifying.Equal(want[i].Qualifying) {
			t.Fatalf("%s: object %d qualifying range %v, want %v",
				label, got[i].ID, got[i].Qualifying, want[i].Qualifying)
		}
	}
}

func TestRKNNAllVariantsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 1))
	algos := []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR}
	for trial := 0; trial < 10; trial++ {
		n := 15 + rng.IntN(40)
		quant := []int{4, 8, 16}[trial%3] // quantized levels force shared plateaus
		objs := makeObjects(rng, n, 8+rng.IntN(25), 10, quant)
		ix := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
		q := makeQuery(rng, 20, 10, quant)
		for _, cfg := range []struct {
			k      int
			as, ae float64
		}{
			{2, 0.3, 0.6},
			{5, 0.1, 0.9},
			{1, 0.5, 0.5}, // degenerate single-point range
			{3, 0.8, 1.0},
			{n + 3, 0.3, 0.7}, // k exceeds dataset
			// The staircases start at αs: exactly on a level of every
			// quantization, just above it, and below every object's lowest
			// level (1/16), where they are complete.
			{3, 0.5, 0.9},
			{3, math.Nextafter(0.5, 1), 0.9},
			{4, 0.03, 0.6},
		} {
			want := bruteRKNN(objs, q, cfg.k, cfg.as, cfg.ae)
			for _, algo := range algos {
				got, _, err := ix.RKNN(q, cfg.k, cfg.as, cfg.ae, algo)
				if err != nil {
					t.Fatalf("trial %d %v k=%d [%v,%v]: %v", trial, algo, cfg.k, cfg.as, cfg.ae, err)
				}
				checkSameRanged(t, got, want, algo.String())
			}
		}
	}
}

// TestRKNNWideningWindowsShareOneCache: one scratch answers RKNN [0.5, 0.6],
// then RKNN [0.4, 0.6], then an expected-distance kNN for the same query
// object, so each later question meets staircases an earlier one cached from
// a higher floor. Every answer must equal that of a fresh index searched
// through a fresh scratch, on one tree and on four shards.
func TestRKNNWideningWindowsShareOneCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(109, 5))
	objs := makeObjects(rng, 60, 16, 10, 0)
	q := makeQuery(rng, 16, 10, 0)
	opts := Options{MinEntries: 2, MaxEntries: 6}
	for _, shards := range []int{1, 4} {
		forest := func() []*Index {
			if shards == 1 {
				return []*Index{buildIndex(t, objs, opts)}
			}
			return buildShardedOver(t, objs, shards, opts).shards
		}
		trees, sc := forest(), newScratch()
		for _, algo := range []RKNNAlgorithm{BasicRKNN, RSS, RSSICR} {
			for _, w := range [][2]float64{{0.5, 0.6}, {0.4, 0.6}} {
				label := fmt.Sprintf("%d shards %v [%v, %v] after narrower windows", shards, algo, w[0], w[1])
				got, gotSt, err := rknnInto(sc, nil, sc.pin(trees...), q, 3, w[0], w[1], algo)
				if err != nil {
					t.Fatal(err)
				}
				fsc := newScratch()
				want, wantSt, err := rknnInto(fsc, nil, fsc.pin(forest()...), q, 3, w[0], w[1], algo)
				if err != nil {
					t.Fatal(err)
				}
				checkSameRanged(t, got, want, label)
				// The work charged is the window's, whatever the cache held.
				if gotSt.ProfilePoints != wantSt.ProfilePoints || gotSt.ProfilePoints == 0 {
					t.Fatalf("%s: %d profile points, fresh %d", label, gotSt.ProfilePoints, wantSt.ProfilePoints)
				}
			}
		}
		got, _, err := scanTopK(sc, sc.pin(trees...), q, 5, 1, expectedDistScore)
		if err != nil {
			t.Fatal(err)
		}
		fsc := newScratch()
		want, _, err := scanTopK(fsc, fsc.pin(forest()...), q, 5, 1, expectedDistScore)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d shards: expected-distance kNN after RKNNs %v, fresh %v", shards, got, want)
		}
	}
}

func TestRKNNContinuousMemberships(t *testing.T) {
	// Continuous (unquantized) memberships: every point its own level.
	rng := rand.New(rand.NewPCG(103, 2))
	objs := makeObjects(rng, 20, 12, 8, 0)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 12, 8, 0)
	want := bruteRKNN(objs, q, 3, 0.2, 0.8)
	for _, algo := range []RKNNAlgorithm{BasicRKNN, RSS, RSSICR} {
		got, _, err := ix.RKNN(q, 3, 0.2, 0.8, algo)
		if err != nil {
			t.Fatal(err)
		}
		checkSameRanged(t, got, want, algo.String())
	}
}

func TestRKNNQualifyingRangesCoverWholeWindow(t *testing.T) {
	// At every α in the window, exactly min(k, n) objects must qualify.
	rng := rand.New(rand.NewPCG(105, 3))
	objs := makeObjects(rng, 30, 10, 10, 8)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 10, 10, 8)
	k, as, ae := 4, 0.25, 0.85
	got, _, err := ix.RKNN(q, k, as, ae, RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	for alpha := as; alpha <= ae; alpha += 0.01 {
		count := 0
		for _, r := range got {
			if r.Qualifying.Contains(alpha) {
				count++
			}
		}
		if count != k {
			t.Fatalf("alpha %v: %d qualifying objects, want %d", alpha, count, k)
		}
	}
}

func TestRSSAndICRSameObjectAccesses(t *testing.T) {
	// Both share the candidate acquisition (one AKNN + one range search), so
	// their object access counts must coincide (paper §6.3.1); ICR only cuts
	// CPU work, visible as fewer refinement pieces.
	rng := rand.New(rand.NewPCG(107, 4))
	objs := makeObjects(rng, 120, 12, 15, 8)
	ix := buildIndex(t, objs, Options{})
	var piecesRSS, piecesICR int
	for trial := 0; trial < 8; trial++ {
		q := makeQuery(rng, 12, 15, 8)
		_, stRSS, err := ix.RKNN(q, 5, 0.3, 0.7, RSS)
		if err != nil {
			t.Fatal(err)
		}
		_, stICR, err := ix.RKNN(q, 5, 0.3, 0.7, RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		if stRSS.ObjectAccesses != stICR.ObjectAccesses {
			t.Fatalf("object accesses differ: RSS %d, ICR %d",
				stRSS.ObjectAccesses, stICR.ObjectAccesses)
		}
		if stRSS.Candidates != stICR.Candidates {
			t.Fatalf("candidate counts differ: %d vs %d", stRSS.Candidates, stICR.Candidates)
		}
		piecesRSS += stRSS.Pieces
		piecesICR += stICR.Pieces
	}
	if piecesICR > piecesRSS {
		t.Fatalf("ICR refinement pieces (%d) exceed RSS (%d)", piecesICR, piecesRSS)
	}
}

func TestRKNNOptimizedBeatBasicOnAccesses(t *testing.T) {
	rng := rand.New(rand.NewPCG(109, 5))
	objs := makeObjects(rng, 150, 12, 15, 8)
	ix := buildIndex(t, objs, Options{})
	var basicAcc, rssAcc int
	for trial := 0; trial < 5; trial++ {
		q := makeQuery(rng, 12, 15, 8)
		_, st, err := ix.RKNN(q, 5, 0.3, 0.7, BasicRKNN)
		if err != nil {
			t.Fatal(err)
		}
		basicAcc += st.ObjectAccesses
		_, st, err = ix.RKNN(q, 5, 0.3, 0.7, RSS)
		if err != nil {
			t.Fatal(err)
		}
		rssAcc += st.ObjectAccesses
	}
	if rssAcc > basicAcc {
		t.Fatalf("RSS accesses (%d) exceed Basic RKNN (%d)", rssAcc, basicAcc)
	}
}

func TestRKNNValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(111, 6))
	objs := makeObjects(rng, 10, 8, 10, 4)
	ix := buildIndex(t, objs, Options{})
	q := makeQuery(rng, 8, 10, 4)
	if _, _, err := ix.RKNN(q, 3, 0.7, 0.3, RSS); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := ix.RKNN(q, 0, 0.3, 0.7, RSS); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ix.RKNN(q, 3, 0, 0.7, RSS); err == nil {
		t.Error("alphaStart=0 accepted")
	}
	if _, _, err := ix.RKNN(q, 3, 0.3, 1.5, RSS); err == nil {
		t.Error("alphaEnd>1 accepted")
	}
	if _, _, err := ix.RKNN(q, 3, 0.3, 0.7, RKNNAlgorithm(42)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRKNNEmptyIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(113, 7))
	ix := buildIndex(t, nil, Options{})
	q := makeQuery(rng, 8, 10, 4)
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		got, _, err := ix.RKNN(q, 3, 0.3, 0.7, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) != 0 {
			t.Fatalf("%v: %d results from empty index", algo, len(got))
		}
	}
}

func TestRKNNPaperStyleScenario(t *testing.T) {
	// A constructed scenario in the spirit of Figure 3: three objects whose
	// α-distance curves cross inside the window, so the 2NN set changes and
	// one object's qualifying range is a proper sub-interval.
	mk := func(id uint64, xs ...float64) *fuzzy.Object {
		// Points on a line at x = xs[i] with membership decreasing with i;
		// the first point is the kernel.
		wps := make([]fuzzy.WeightedPoint, len(xs))
		for i, x := range xs {
			mu := 1 - float64(i)*0.3
			wps[i] = fuzzy.WeightedPoint{P: geom2(x), Mu: mu}
		}
		return fuzzy.MustNew(id, wps)
	}
	// Query: single kernel point at origin.
	q := fuzzy.MustNew(100, []fuzzy.WeightedPoint{{P: geom2(0), Mu: 1}})
	// A: very close at all levels.
	a := mk(1, 1)
	// B: close at low α (outer point at 2), far at high α (kernel at 6).
	b := mk(2, 6, 2)
	// C: constant middle distance 4.
	c := mk(3, 4)
	ix := buildIndex(t, []*fuzzy.Object{a, b, c}, Options{})

	got, _, err := ix.RKNN(q, 2, 0.3, 1.0, RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteRKNN([]*fuzzy.Object{a, b, c}, q, 2, 0.3, 1.0)
	checkSameRanged(t, got, want, "paper-style")

	// A qualifies everywhere; B only while its outer point counts (µ=0.7);
	// C takes over beyond.
	byID := map[uint64]interval.Set{}
	for _, r := range got {
		byID[r.ID] = r.Qualifying
	}
	if !byID[1].Contains(0.3) || !byID[1].Contains(1.0) {
		t.Fatalf("A should qualify across the window: %v", byID[1])
	}
	if !byID[2].Contains(0.7) || byID[2].Contains(0.9) {
		t.Fatalf("B should qualify at 0.7 but not 0.9: %v", byID[2])
	}
	if byID[3].Contains(0.5) || !byID[3].Contains(0.9) {
		t.Fatalf("C should qualify at 0.9 but not 0.5: %v", byID[3])
	}
}

func geom2(x float64) []float64 { return []float64{x, 0} }
