package fuzzy

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"fuzzyknn/internal/geom"
)

// randObject builds a random valid fuzzy object: n points scattered around a
// center, memberships quantized to `q` levels (0 = continuous), always at
// least one kernel point.
func randObject(rng *rand.Rand, id uint64, n, dims int, q int) *Object {
	center := make(geom.Point, dims)
	for i := range center {
		center[i] = rng.Float64() * 100
	}
	pts := make([]WeightedPoint, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = center[j] + (rng.Float64()-0.5)*2
		}
		mu := rng.Float64()
		if mu == 0 {
			mu = 0.5
		}
		if q > 0 {
			mu = math.Ceil(mu*float64(q)) / float64(q)
		}
		pts[i] = WeightedPoint{P: p, Mu: mu}
	}
	pts[0].Mu = 1 // ensure non-empty kernel
	return MustNew(id, pts)
}

func TestNewValidation(t *testing.T) {
	p := geom.Point{0, 0}
	tests := []struct {
		name string
		in   []WeightedPoint
		want error
	}{
		{"empty", nil, ErrNoPoints},
		{"mu zero", []WeightedPoint{{P: p, Mu: 0}}, ErrBadMu},
		{"mu negative", []WeightedPoint{{P: p, Mu: -0.5}}, ErrBadMu},
		{"mu above one", []WeightedPoint{{P: p, Mu: 1.5}}, ErrBadMu},
		{"mu NaN", []WeightedPoint{{P: p, Mu: math.NaN()}}, ErrBadMu},
		{"no kernel", []WeightedPoint{{P: p, Mu: 0.9}}, ErrEmptyKernel},
		{"dims mismatch", []WeightedPoint{{P: p, Mu: 1}, {P: geom.Point{1, 2, 3}, Mu: 0.5}}, ErrDims},
		{"zero dims", []WeightedPoint{{P: geom.Point{}, Mu: 1}}, ErrDims},
		{"NaN coordinate", []WeightedPoint{{P: p, Mu: 1}, {P: geom.Point{math.NaN(), 0}, Mu: 0.5}}, ErrBadCoord},
		{"+Inf coordinate", []WeightedPoint{{P: geom.Point{0, math.Inf(1)}, Mu: 1}}, ErrBadCoord},
		{"-Inf coordinate", []WeightedPoint{{P: p, Mu: 1}, {P: geom.Point{math.Inf(-1), 0}, Mu: 1}}, ErrBadCoord},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(1, tc.in); !errors.Is(err, tc.want) {
				t.Errorf("New() error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNewOrdersStably pins the order New imposes: descending membership,
// ties in input order — whatever order the input arrives in.
func TestNewOrdersStably(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 19))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.IntN(60)
		in := make([]WeightedPoint, n)
		for i := range in {
			// The first coordinate records the input position.
			in[i] = WeightedPoint{P: geom.Point{float64(i), rng.Float64()}, Mu: float64(1+rng.IntN(4)) / 4}
		}
		in[rng.IntN(n)].Mu = 1
		if iter%2 == 0 { // already in order: the slabs are kept as they are
			slices.SortStableFunc(in, func(a, b WeightedPoint) int { return cmp.Compare(b.Mu, a.Mu) })
			for i := range in {
				in[i].P[0] = float64(i)
			}
		}
		o := MustNew(1, in)
		for i := 1; i < n; i++ {
			p, mu := o.At(i)
			prev, prevMu := o.At(i - 1)
			if mu > prevMu || (mu == prevMu && p[0] < prev[0]) {
				t.Fatalf("iter %d: point %d (µ=%v, input %v) after (µ=%v, input %v)", iter, i, mu, p[0], prevMu, prev[0])
			}
			if want := in[int(p[0])]; !p.Equal(want.P) || mu != want.Mu {
				t.Fatalf("iter %d: point %d is not input point %v", iter, i, p[0])
			}
		}
	}
}

// TestFromSlabs: the ownership-taking entry builds the object New builds,
// and refuses what New refuses.
func TestFromSlabs(t *testing.T) {
	o, err := FromSlabs(7, 2, []float64{0, 0, 1, 1, 2, 2}, []float64{0.5, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(7, []WeightedPoint{{P: geom.Point{0, 0}, Mu: 0.5}, {P: geom.Point{1, 1}, Mu: 1}, {P: geom.Point{2, 2}, Mu: 0.5}})
	if !sameObject(o, want) {
		t.Fatalf("FromSlabs built %v, New built %v", o.WeightedPoints(), want.WeightedPoints())
	}
	for _, tc := range []struct {
		name        string
		dims        int
		coords, mus []float64
		want        error
	}{
		{"no points", 2, nil, nil, ErrNoPoints},
		{"zero dims", 0, nil, []float64{1}, ErrDims},
		{"short slab", 2, []float64{0, 0, 1}, []float64{1, 1}, ErrDims},
		{"long slab", 1, []float64{0, 0, 1}, []float64{1, 1}, ErrDims},
		{"bad mu", 1, []float64{0}, []float64{1.5}, ErrBadMu},
		{"NaN mu", 1, []float64{0, 1}, []float64{1, math.NaN()}, ErrBadMu},
		{"no kernel", 1, []float64{0, 1}, []float64{0.5, 0.9}, ErrEmptyKernel},
		{"Inf coordinate", 1, []float64{0, math.Inf(1)}, []float64{1, 0.5}, ErrBadCoord},
		// Precedence when several rules are broken at once: memberships are
		// validated first, the kernel next, coordinates last.
		{"bad mu before empty kernel and bad coordinate", 1, []float64{math.NaN(), 1}, []float64{0.5, 0}, ErrBadMu},
		{"bad mu before bad coordinate", 1, []float64{math.NaN(), 1}, []float64{1, 2}, ErrBadMu},
		{"empty kernel before bad coordinate", 1, []float64{math.NaN(), 1}, []float64{0.5, 0.9}, ErrEmptyKernel},
		{"empty kernel before bad coordinate, sorted", 1, []float64{0, math.Inf(-1)}, []float64{0.9, 0.5}, ErrEmptyKernel},
	} {
		if _, err := FromSlabs(1, tc.dims, tc.coords, tc.mus); !errors.Is(err, tc.want) {
			t.Errorf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// sameObject reports whether two objects are structurally equal: points and
// memberships in At order, levels, the cut and MBR at every level, Rep.
func sameObject(a, b *Object) bool {
	if a.ID() != b.ID() || a.Dims() != b.Dims() || !slices.Equal(a.Coords(), b.Coords()) ||
		!slices.Equal(a.Memberships(), b.Memberships()) || !slices.Equal(a.Levels(), b.Levels()) ||
		!a.Rep().Equal(b.Rep()) {
		return false
	}
	for _, u := range a.Levels() {
		if a.CutSize(u) != b.CutSize(u) || !a.MBR(u).Equal(b.MBR(u)) {
			return false
		}
	}
	return true
}

// TestNewAllocs pins the constructor's allocations: the object header and
// its two slabs — independent of the number of points and levels —
// plus the permutation and the reordered slabs when the input is unsorted.
func TestNewAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 21))
	sorted := randObject(rng, 1, 128, 2, 0).WeightedPoints()
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, tc := range []struct {
		name string
		in   []WeightedPoint
		max  float64
	}{{"sorted", sorted, 3}, {"shuffled", shuffled, 6}} {
		if got := testing.AllocsPerRun(50, func() { MustNew(1, tc.in) }); got > tc.max {
			t.Errorf("New on %s input allocates %.0f times, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(1, nil)
}

// cutOf materializes the α-cut A_α = {a : µ(a) ≥ α}, in descending
// membership, through the accessors product code reads it by.
func cutOf(o *Object, alpha float64) []geom.Point {
	cut := make([]geom.Point, o.CutSize(alpha))
	for i := range cut {
		cut[i], _ = o.At(i)
	}
	return cut
}

func TestCutIsMembershipFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.IntN(100)
		o := randObject(rng, uint64(iter), n, 2, 10)
		for _, alpha := range []float64{0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			cut := cutOf(o, alpha)
			want := 0
			for i := 0; i < o.Len(); i++ {
				if _, mu := o.At(i); mu >= alpha {
					want++
				}
			}
			if len(cut) != want {
				t.Fatalf("Cut(%v) size = %d, want %d", alpha, len(cut), want)
			}
			for i, p := range cut {
				q, mu := o.At(i)
				if !p.Equal(q) || mu < alpha {
					t.Fatalf("Cut(%v)[%d] inconsistent", alpha, i)
				}
			}
		}
	}
}

func TestCutNesting(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	o := randObject(rng, 1, 200, 2, 0)
	prev := o.Len() + 1
	for alpha := 0.0; alpha <= 1.0; alpha += 0.01 {
		size := o.CutSize(alpha)
		if size > prev {
			t.Fatalf("cut grew as alpha increased at %v: %d > %d", alpha, size, prev)
		}
		prev = size
	}
	if o.CutSize(1.0) == 0 {
		t.Fatal("kernel cut empty")
	}
	if o.CutSize(1.1) != 0 {
		t.Fatal("cut above 1 should be empty")
	}
}

func TestCutAtExactLevels(t *testing.T) {
	pts := []WeightedPoint{
		{P: geom.Point{0, 0}, Mu: 1},
		{P: geom.Point{1, 0}, Mu: 0.7},
		{P: geom.Point{2, 0}, Mu: 0.7},
		{P: geom.Point{3, 0}, Mu: 0.3},
	}
	o := MustNew(9, pts)
	for _, tc := range []struct {
		alpha float64
		want  int
	}{
		{1.0, 1}, {0.71, 1}, {0.7, 3}, {0.5, 3}, {0.3, 4}, {0.1, 4}, {0.0, 4},
	} {
		if got := o.CutSize(tc.alpha); got != tc.want {
			t.Errorf("CutSize(%v) = %d, want %d", tc.alpha, got, tc.want)
		}
	}
}

func TestLevelsAscendingDistinctEndAtOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	for iter := 0; iter < 20; iter++ {
		o := randObject(rng, uint64(iter), 1+rng.IntN(50), 2, 8)
		ls := o.Levels()
		for i := 1; i < len(ls); i++ {
			if ls[i] <= ls[i-1] {
				t.Fatalf("levels not strictly ascending: %v", ls)
			}
		}
		if ls[len(ls)-1] != 1 {
			t.Fatalf("top level = %v, want 1", ls[len(ls)-1])
		}
		if o.MinLevel() != ls[0] {
			t.Fatalf("MinLevel mismatch")
		}
	}
}

func TestMBRMatchesCut(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for iter := 0; iter < 20; iter++ {
		o := randObject(rng, uint64(iter), 1+rng.IntN(80), 1+rng.IntN(3), 6)
		for alpha := 0.05; alpha <= 1.0; alpha += 0.05 {
			cut := cutOf(o, alpha)
			got := o.MBR(alpha)
			want := geom.BoundingRect(cut)
			if !got.Equal(want) {
				t.Fatalf("MBR(%v) = %v, want %v", alpha, got, want)
			}
		}
		if !o.MBR(2).IsEmpty() {
			t.Fatal("MBR above 1 should be empty")
		}
		if !o.SupportMBR().Equal(geom.BoundingRect(cutOf(o, 0))) {
			t.Fatal("SupportMBR mismatch")
		}
		if !o.KernelMBR().Equal(geom.BoundingRect(cutOf(o, 1))) {
			t.Fatal("KernelMBR mismatch")
		}
	}
}

// TestLevelIndexMatchesEagerReference: the lazily built index and the
// membership search equal a reference derived eagerly from the points —
// over continuous, heavily tied and all-kernel memberships.
func TestLevelIndexMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 23))
	for iter := 0; iter < 60; iter++ {
		n, dims := 1+rng.IntN(90), 1+rng.IntN(3)
		o := randObject(rng, uint64(iter), n, dims, []int{0, 3, 1}[iter%3]) // q=1: every µ is 1

		// Reference: distinct levels ascending, the cut size at each, and
		// the bounding box of that prefix.
		var levels []float64
		var ends []int
		for i := n - 1; i >= 0; i-- {
			if _, mu := o.At(i); len(levels) == 0 || mu != levels[len(levels)-1] {
				levels = append(levels, mu)
				ends = append(ends, i+1)
			}
		}
		prefix := func(size int) []geom.Point {
			pts := make([]geom.Point, size)
			for i := range pts {
				pts[i], _ = o.At(i)
			}
			return pts
		}

		if o.lazyIndex.Load() != nil {
			t.Fatal("index built before anyone asked")
		}
		if got := o.Levels(); !slices.Equal(got, levels) || got[len(got)-1] != 1 {
			t.Fatalf("Levels = %v, want %v", got, levels)
		}
		for i, u := range levels {
			if got, want := o.MBR(u), geom.BoundingRect(prefix(ends[i])); !got.Equal(want) {
				t.Fatalf("MBR at level %v = %v, want %v", u, got, want)
			}
		}
		if !o.SupportMBR().Equal(o.MBR(levels[0])) || !o.KernelMBR().Equal(o.MBR(1)) {
			t.Fatal("SupportMBR/KernelMBR are not the lowest and top level's MBRs")
		}

		// The level-based cut size: the cut at α is the cut at the first
		// level ≥ α.
		levelCut := func(alpha float64) int {
			for i, u := range levels {
				if u >= alpha {
					return ends[i]
				}
			}
			return 0
		}
		alphas := []float64{0, levels[0] / 2, math.Nextafter(1, 2), 1.5}
		for i, u := range levels {
			alphas = append(alphas, u, math.Nextafter(u, 0), math.Nextafter(u, 2))
			if i > 0 {
				alphas = append(alphas, (u+levels[i-1])/2)
			}
		}
		for _, alpha := range alphas {
			if got, want := o.CutSize(alpha), levelCut(alpha); got != want {
				t.Fatalf("CutSize(%v) = %d, level-based %d (levels %v)", alpha, got, want, levels)
			}
		}
	}
}

// TestLevelIndexSharedFirstTouch: goroutines that first-touch the index of
// one shared object (two shards hitting the same cached object) all get the
// one published index. Run under -race.
func TestLevelIndexSharedFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 25))
	for iter := 0; iter < 20; iter++ {
		o := randObject(rng, uint64(iter), 64, 2, 8)
		const workers = 8
		type seen struct{ level, lo, hi *float64 }
		got := make([]seen, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch w % 3 { // whichever accessor comes first builds it
				case 0:
					got[w] = seen{level: &o.Levels()[0]}
				case 1:
					got[w] = seen{lo: &o.MBR(0.5).Lo[0]}
				default:
					got[w] = seen{hi: &o.KernelMBR().Hi[0]}
				}
			}()
		}
		close(start)
		wg.Wait()
		want := seen{level: &o.Levels()[0], lo: &o.MBR(0.5).Lo[0], hi: &o.KernelMBR().Hi[0]}
		for w, g := range got {
			if (g.level != nil && g.level != want.level) || (g.lo != nil && g.lo != want.lo) || (g.hi != nil && g.hi != want.hi) {
				t.Fatalf("iter %d: worker %d saw an index that was not the published one", iter, w)
			}
		}
	}
}

// TestProbeBuildsNoIndex: what a search does to an object it visits —
// α-distances, cut sizes, the representative, cut samples — reads the two
// slabs only; evaluating against a pinned query does not allocate either.
func TestProbeBuildsNoIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 27))
	q := randObject(rng, 1, 128, 2, 0)
	src := randObject(rng, 2, 128, 2, 0)
	o, err := FromSlabs(2, 2, slices.Clone(src.Coords()), slices.Clone(src.Memberships()))
	if err != nil {
		t.Fatal(err)
	}
	var e DistEval
	e.Reset(q, 0.5)
	if allocs := testing.AllocsPerRun(20, func() { e.dist(o) }); allocs != 0 {
		t.Errorf("DistEval.dist allocates %.0f times", allocs)
	}
	e.Dist(o)
	AlphaDist(o, q, 0.5)
	AlphaDistBrute(o, q, 0.5)
	o.CutSize(0.5)
	o.MinLevel()
	o.Rep()
	o.SampleCut(0.5, 8, 1)
	if o.lazyIndex.Load() != nil {
		t.Fatal("a probe built the level index")
	}
}

// TestProfileBuildsNoIndex: a staircase reads the two slabs only, on both
// sides, whether it is asked for through a cache or one-shot; and an
// evaluator that has met the pair's sizes allocates exactly the Profile it
// returns — the header and one slab shared by Levels and Dists.
func TestProfileBuildsNoIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 29))
	q := randObject(rng, 1, 128, 2, 0)
	o := randObject(rng, 2, 128, 2, 8)
	var c ProfileCache
	p := c.Profile(o, q)
	c.ExpectedDist(o, q)
	ComputeProfile(o, q)
	ExpectedDist(q, o)
	if o.lazyIndex.Load() != nil || q.lazyIndex.Load() != nil {
		t.Fatal("a profile built a level index")
	}
	if !slices.Equal(p.Levels, mergeLevels(o.Levels(), q.Levels())) {
		t.Fatal("profile levels are not the union of the two level indexes")
	}
	var e profileEval
	e.Profile(o, q)
	if allocs := testing.AllocsPerRun(20, func() { e.Profile(o, q) }); allocs != 2 {
		t.Errorf("a warm profileEval.Profile allocates %.0f times, want 2", allocs)
	}
}

func TestKernelAllOnes(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	o := randObject(rng, 3, 60, 2, 4)
	for i, p := range cutOf(o, 1) {
		q, mu := o.At(i)
		if mu != 1 || !p.Equal(q) {
			t.Fatalf("kernel point %d has mu %v", i, mu)
		}
	}
}

func TestRepDeterministicAndInKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	o := randObject(rng, 77, 50, 2, 5)
	r1 := o.Rep()
	r2 := o.Rep()
	if !r1.Equal(r2) {
		t.Fatal("Rep not deterministic")
	}
	found := false
	for _, p := range cutOf(o, 1) {
		if p.Equal(r1) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("Rep not a kernel point")
	}
	// A copy, not a view: whoever keeps it (index summaries do, for as long
	// as the object is indexed) must not keep the coordinate slab alive.
	r1[0]++
	if !o.Rep().Equal(r2) {
		t.Fatal("Rep aliases the object's coordinates")
	}
}

func TestSampleCut(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 15))
	o := randObject(rng, 5, 100, 2, 0)
	s := o.SampleCut(0.3, 10, 42)
	if len(s) != 10 {
		t.Fatalf("sample size = %d, want 10", len(s))
	}
	cut := cutOf(o, 0.3)
	inCut := func(p geom.Point) bool {
		for _, q := range cut {
			if p.Equal(q) {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	for _, p := range s {
		if !inCut(p) {
			t.Fatalf("sample point %v not in cut", p)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate sample point %v", p)
		}
		seen[p.String()] = true
	}
	// Deterministic under the same seed.
	s2 := o.SampleCut(0.3, 10, 42)
	for i := range s {
		if !s[i].Equal(s2[i]) {
			t.Fatal("SampleCut not deterministic")
		}
	}
	// Whole cut returned when n >= |cut|.
	all := o.SampleCut(1.0, 1000, 1)
	if len(all) != o.CutSize(1.0) {
		t.Fatalf("oversized sample = %d, want %d", len(all), o.CutSize(1.0))
	}
}

func TestWeightedPointsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 17))
	o := randObject(rng, 8, 40, 3, 7)
	wps := o.WeightedPoints()
	o2 := MustNew(o.ID(), wps)
	if o2.Len() != o.Len() || len(o2.Levels()) != len(o.Levels()) {
		t.Fatal("round trip changed object shape")
	}
	for i := 0; i < o.Len(); i++ {
		p1, m1 := o.At(i)
		p2, m2 := o2.At(i)
		if !p1.Equal(p2) || m1 != m2 {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestStringSmoke(t *testing.T) {
	o := MustNew(1, []WeightedPoint{{P: geom.Point{0, 0}, Mu: 1}})
	if o.String() == "" {
		t.Fatal("empty String")
	}
}
