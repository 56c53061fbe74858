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

// Levels is AppendLevels into a fresh slice, for the package's tests.
func (o *Object) Levels() []float64 { return o.AppendLevels(nil) }

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
		if !o.MBR(1).Equal(geom.BoundingRect(cutOf(o, 1))) {
			t.Fatal("kernel MBR mismatch")
		}
	}
}

// TestMBRIntoMatchesEagerReference: AppendLevels, the membership search and
// MBRInto — writing into one reused dst throughout — equal a reference
// derived eagerly from the points, bit for bit, at α = 0, on every level,
// `nextafter` on either side of it, between levels, at 1 and above 1 — over
// continuous, heavily tied and all-kernel memberships.
func TestMBRIntoMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 23))
	var dst geom.Rect
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

		got := o.AppendLevels([]float64{-1})
		if !slices.Equal(got[1:], levels) || got[len(got)-1] != 1 {
			t.Fatalf("AppendLevels = %v, want %v after the -1 it was handed", got, levels)
		}

		// The level-based cut: the cut at α is the cut at the first level ≥ α.
		levelCut := func(alpha float64) int {
			for i, u := range levels {
				if u >= alpha {
					return ends[i]
				}
			}
			return 0
		}
		alphas := []float64{0, levels[0] / 2, 1, math.Nextafter(1, 2), 1.5}
		for i, u := range levels {
			alphas = append(alphas, u, math.Nextafter(u, 0), math.Nextafter(u, 2))
			if i > 0 {
				alphas = append(alphas, (u+levels[i-1])/2)
			}
		}
		for _, alpha := range alphas {
			size := levelCut(alpha)
			if got := o.CutSize(alpha); got != size {
				t.Fatalf("CutSize(%v) = %d, level-based %d (levels %v)", alpha, got, size, levels)
			}
			got := o.MBRInto(alpha, dst)
			if size == 0 {
				if !got.IsEmpty() {
					t.Fatalf("MBRInto(%v) = %v above the top level, want empty", alpha, got)
				}
				continue
			}
			want := geom.BoundingRect(prefix(size))
			if !sameBitsRect(got, want) || !sameBitsRect(o.MBR(alpha), want) {
				t.Fatalf("MBRInto(%v) = %v, MBR %v, want %v", alpha, got, o.MBR(alpha), want)
			}
			roomy := cap(dst.Lo) >= dims && cap(dst.Hi) >= dims
			if roomy && (&got.Lo[0] != &dst.Lo[0] || &got.Hi[0] != &dst.Hi[0]) {
				t.Fatalf("MBRInto(%v) did not reuse a dst with room", alpha)
			}
			dst = got
		}
		if !sameBitsRect(o.SupportMBR(), o.MBR(0)) || !sameBitsRect(o.SupportMBR(), o.MBR(levels[0])) {
			t.Fatal("SupportMBR is not the lowest level's MBR")
		}
	}
}

// sameBitsRect reports whether two rectangles have bitwise equal corners.
func sameBitsRect(a, b geom.Rect) bool {
	if len(a.Lo) != len(b.Lo) || len(a.Hi) != len(b.Hi) {
		return false
	}
	for i := range a.Lo {
		if math.Float64bits(a.Lo[i]) != math.Float64bits(b.Lo[i]) ||
			math.Float64bits(a.Hi[i]) != math.Float64bits(b.Hi[i]) {
			return false
		}
	}
	return true
}

// TestSharedObjectReaders: one object read by 8 goroutines at once — as two
// shards or a cache and a query share one — gives every reader the same
// cut boxes, levels, summary and α-distances, and under -race shows that
// reading an object writes nothing.
func TestSharedObjectReaders(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 25))
	for iter := 0; iter < 20; iter++ {
		o := randObject(rng, uint64(iter), 64, 2, []int{0, 8}[iter%2])
		q := randObject(rng, 1000+uint64(iter), 64, 2, 0)
		const workers = 8
		type seen struct {
			box       geom.Rect
			levels    []float64
			summary   []float64
			dist, rev float64
		}
		got := make([]seen, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var e, rev DistEval
				e.Reset(q, 0.5)
				rev.Reset(o, 0.5) // o as the query object too
				got[w] = seen{
					box:     o.MBRInto(0.5, geom.Rect{}),
					levels:  o.AppendLevels(nil),
					summary: AppendSummary(nil, o),
					dist:    e.Dist(o),
					rev:     rev.Dist(q),
				}
			}()
		}
		close(start)
		wg.Wait()
		for w, g := range got {
			if !sameBitsRect(g.box, got[0].box) || !slices.Equal(g.levels, got[0].levels) ||
				!slices.Equal(g.summary, got[0].summary) || g.dist != got[0].dist || g.rev != got[0].rev {
				t.Fatalf("iter %d: worker %d read %+v, worker 0 %+v", iter, w, g, got[0])
			}
		}
		if want := AlphaDistBrute(o, q, 0.5); got[0].dist != want || got[0].rev != want {
			t.Fatalf("iter %d: shared readers' distances %v and %v, want %v", iter, got[0].dist, got[0].rev, want)
		}
	}
}

// TestProbeBuildsNoIndex: what a search does to an object it visits reads
// the two slabs only — evaluating against a pinned query allocates nothing,
// and agrees with the one-shot and the brute-force α-distance.
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
	if d, one, brute := e.Dist(o), AlphaDist(o, q, 0.5), AlphaDistBrute(o, q, 0.5); d != one || d != brute {
		t.Errorf("pinned %v, one-shot %v, brute force %v", d, one, brute)
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
	p := c.Profile(o, q, 0)
	c.ExpectedDist(o, q)
	ComputeProfile(o, q)
	ExpectedDist(q, o)
	if !slices.Equal(p.Levels, mergeLevels(o.Levels(), q.Levels())) {
		t.Fatal("profile levels are not the union of the two objects' levels")
	}
	var e profileEval
	e.Profile(o, q, 0)
	if allocs := testing.AllocsPerRun(20, func() { e.Profile(o, q, 0) }); allocs != 2 {
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
