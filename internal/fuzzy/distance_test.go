package fuzzy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fuzzyknn/internal/geom"
)

func TestAlphaDistMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 40; iter++ {
		dims := 1 + rng.IntN(3)
		a := randObject(rng, 1, 1+rng.IntN(80), dims, 8)
		b := randObject(rng, 2, 1+rng.IntN(80), dims, 8)
		for _, alpha := range []float64{0.1, 0.5, 0.9, 1.0} {
			got := AlphaDist(a, b, alpha)
			want := AlphaDistBrute(a, b, alpha)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("iter %d alpha %v: AlphaDist = %v, want %v", iter, alpha, got, want)
			}
		}
	}
}

func TestAlphaDistMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 20; iter++ {
		a := randObject(rng, 1, 60, 2, 0)
		b := randObject(rng, 2, 60, 2, 0)
		prev := -1.0
		for alpha := 0.05; alpha <= 1.0; alpha += 0.05 {
			d := AlphaDist(a, b, alpha)
			if d < prev-1e-12 {
				t.Fatalf("d_alpha decreased at %v: %v < %v", alpha, d, prev)
			}
			prev = d
		}
	}
}

func TestAlphaDistIdenticalObjectsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randObject(rng, 1, 50, 2, 4)
	if d := AlphaDist(a, a, 0.5); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestProfileMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for iter := 0; iter < 30; iter++ {
		dims := 1 + rng.IntN(3)
		q := 4 * (1 + iter%4) // quantization makes shared levels likely
		a := randObject(rng, 1, 1+rng.IntN(60), dims, q)
		b := randObject(rng, 2, 1+rng.IntN(60), dims, q)
		got := ComputeProfile(a, b)
		want := ComputeProfileBrute(a, b)
		if len(got.Levels) != len(want.Levels) {
			t.Fatalf("level count %d, want %d", len(got.Levels), len(want.Levels))
		}
		for j := range got.Levels {
			if got.Levels[j] != want.Levels[j] {
				t.Fatalf("level[%d] = %v, want %v", j, got.Levels[j], want.Levels[j])
			}
			if math.Abs(got.Dists[j]-want.Dists[j]) > 1e-9 {
				t.Fatalf("iter %d: dist[%d] (level %v) = %v, want %v",
					iter, j, got.Levels[j], got.Dists[j], want.Dists[j])
			}
		}
	}
}

func TestProfileDistsNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for iter := 0; iter < 20; iter++ {
		a := randObject(rng, 1, 80, 2, 0)
		b := randObject(rng, 2, 80, 2, 0)
		p := ComputeProfile(a, b)
		for j := 1; j < len(p.Dists); j++ {
			if p.Dists[j] < p.Dists[j-1] {
				t.Fatalf("profile decreased at %d", j)
			}
		}
		if p.Levels[len(p.Levels)-1] != 1 {
			t.Fatalf("top level = %v", p.Levels[len(p.Levels)-1])
		}
	}
}

func TestProfileDistMatchesAlphaDist(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	a := randObject(rng, 1, 70, 2, 6)
	b := randObject(rng, 2, 70, 2, 6)
	p := ComputeProfile(a, b)
	for alpha := 0.01; alpha <= 1.0; alpha += 0.01 {
		got := p.Dist(alpha)
		want := AlphaDistBrute(a, b, alpha)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Profile.Dist(%v) = %v, want %v", alpha, got, want)
		}
	}
	if !math.IsInf(p.Dist(1.5), 1) {
		t.Fatal("Dist above 1 should be +Inf")
	}
}

func TestCriticalSetDefinition(t *testing.T) {
	// Critical probabilities are exactly the α ∈ levels with no β > α such
	// that d_β = d_α (Definition 7).
	rng := rand.New(rand.NewPCG(13, 14))
	for iter := 0; iter < 20; iter++ {
		a := randObject(rng, 1, 50, 2, 5)
		b := randObject(rng, 2, 50, 2, 5)
		p := ComputeProfile(a, b)
		crit := p.Critical()
		critSet := map[float64]bool{}
		for _, c := range crit {
			critSet[c] = true
		}
		for j, u := range p.Levels {
			// u is critical iff it is the last level or the next plateau is
			// strictly larger.
			isCrit := j == len(p.Levels)-1 || p.Dists[j+1] > p.Dists[j]
			if critSet[u] != isCrit {
				t.Fatalf("level %v critical = %v, want %v", u, critSet[u], isCrit)
			}
		}
		// 1 is always critical.
		if !critSet[1] {
			t.Fatal("top level must be critical")
		}
	}
}

func TestNextCriticalAndNextLevel(t *testing.T) {
	// Handcrafted profile: levels 0.2, 0.5, 0.8, 1.0 with distances
	// 1, 1, 2, 2 — critical set {0.5, 1.0}.
	p := &Profile{
		Levels: []float64{0.2, 0.5, 0.8, 1.0},
		Dists:  []float64{1, 1, 2, 2},
	}
	got := p.Critical()
	if len(got) != 2 || got[0] != 0.5 || got[1] != 1.0 {
		t.Fatalf("Critical = %v, want [0.5 1]", got)
	}
	for _, tc := range []struct {
		alpha, want float64
	}{
		{0.1, 0.5}, {0.2, 0.5}, {0.5, 0.5}, {0.51, 1.0}, {0.8, 1.0}, {1.0, 1.0},
	} {
		if got := p.NextCritical(tc.alpha); got != tc.want {
			t.Errorf("NextCritical(%v) = %v, want %v", tc.alpha, got, tc.want)
		}
	}
	if l, ok := p.NextLevel(0.5); !ok || l != 0.8 {
		t.Errorf("NextLevel(0.5) = %v,%v", l, ok)
	}
	if l, ok := p.NextLevel(0.1); !ok || l != 0.2 {
		t.Errorf("NextLevel(0.1) = %v,%v", l, ok)
	}
	if _, ok := p.NextLevel(1.0); ok {
		t.Error("NextLevel(1.0) should report !ok")
	}
}

func TestMergeLevels(t *testing.T) {
	got := mergeLevels([]float64{0.1, 0.5, 1}, []float64{0.3, 0.5, 1})
	want := []float64{0.1, 0.3, 0.5, 1}
	if len(got) != len(want) {
		t.Fatalf("mergeLevels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeLevels = %v, want %v", got, want)
		}
	}
	if out := mergeLevels(nil, []float64{0.2, 1}); len(out) != 2 {
		t.Fatalf("mergeLevels with empty = %v", out)
	}
}

// TestProfileCoincidentPoints: every point of both objects at one spot — no
// extent on any axis — gives distance zero at every level.
func TestProfileCoincidentPoints(t *testing.T) {
	pts := []WeightedPoint{
		{P: []float64{1, 1}, Mu: 1},
		{P: []float64{1, 1}, Mu: 0.5},
	}
	a := MustNew(1, pts)
	p := ComputeProfile(a, a)
	if !slices.Equal(p.Levels, []float64{0.5, 1}) || !slices.Equal(p.Dists, []float64{0, 0}) {
		t.Fatalf("profile of coincident objects = %v at %v, want zero at [0.5 1]", p.Dists, p.Levels)
	}
}

// TestDimensionMismatchPanics: every pairwise evaluation refuses objects of
// different dimensionality with the same message, in either argument order.
func TestDimensionMismatchPanics(t *testing.T) {
	a := MustNew(1, []WeightedPoint{{P: geom.Point{0, 0}, Mu: 1}, {P: geom.Point{1, 1}, Mu: 0.5}})
	b := MustNew(2, []WeightedPoint{{P: geom.Point{0, 0, 0}, Mu: 1}, {P: geom.Point{1, 1, 1}, Mu: 0.5}})
	var cache ProfileCache
	for _, tc := range []struct {
		name string
		eval func(x, y *Object)
	}{
		{"AlphaDist", func(x, y *Object) { AlphaDist(x, y, 0.5) }},
		{"ComputeProfile", func(x, y *Object) { ComputeProfile(x, y) }},
		{"ExpectedDist", func(x, y *Object) { ExpectedDist(x, y) }},
		{"ProfileCache.Profile", func(x, y *Object) { cache.Profile(x, y, 0) }},
	} {
		for _, pair := range [][2]*Object{{a, b}, {b, a}} {
			x, y := pair[0], pair[1]
			t.Run(fmt.Sprintf("%s/%dd-vs-%dd", tc.name, x.Dims(), y.Dims()), func(t *testing.T) {
				want := fmt.Sprintf("fuzzy: dimension mismatch %d vs %d", x.Dims(), y.Dims())
				defer func() {
					if r := recover(); r != want {
						t.Fatalf("recovered %v, want %q", r, want)
					}
				}()
				tc.eval(x, y)
			})
		}
	}
}

// objectNear builds an n-point object whose points lie within ±1 of centre
// on every axis. quant > 0 draws memberships from the quant values k/quant,
// so two such objects share levels.
func objectNear(rng *rand.Rand, id uint64, n, quant int, centre geom.Point) *Object {
	pts := make([]WeightedPoint, n)
	for i := range pts {
		p := make(geom.Point, len(centre))
		for j := range p {
			p[j] = centre[j] + (rng.Float64()-0.5)*2
		}
		mu := 1 - rng.Float64()
		if quant > 0 {
			mu = math.Ceil(mu*float64(quant)) / float64(quant)
		}
		pts[i] = WeightedPoint{P: p, Mu: mu}
	}
	pts[0].Mu = 1
	return MustNew(id, pts)
}

// sameProfile requires the staircase of (a, q) through e to equal the
// brute-force one exactly — the paper's contract is exact answers, and
// Critical compares neighbouring plateaus strictly — and every floored
// staircase profileFloors names to be its suffix (sameSuffix).
func sameProfile(t *testing.T, e *profileEval, a, q *Object) {
	t.Helper()
	got, want := e.Profile(a, q, 0), ComputeProfileBrute(a, q)
	if !slices.Equal(got.Levels, want.Levels) {
		t.Fatalf("%v vs %v: levels %v, want %v", a, q, got.Levels, want.Levels)
	}
	if !slices.Equal(got.Dists, want.Dists) {
		t.Fatalf("%v vs %v: dists %v, want %v", a, q, got.Dists, want.Dists)
	}
	if got.Integrate() != want.Integrate() {
		t.Fatalf("%v vs %v: integral %v, want %v", a, q, got.Integrate(), want.Integrate())
	}
	for _, floor := range profileFloors(a, q) {
		sameSuffix(t, e, a, q, want, floor)
	}
}

// profileFloors names the floors a staircase of (a, q) is checked from: one
// below every level, the lowest and a middle level of either side, the float
// just above each of those, and 1.
func profileFloors(a, q *Object) []float64 {
	floors := []float64{min(a.MinLevel(), q.MinLevel()) / 2, 1}
	for _, o := range []*Object{a, q} {
		levels := o.AppendLevels(nil)
		for _, u := range []float64{levels[0], levels[len(levels)/2]} {
			floors = append(floors, u)
			if u < 1 {
				floors = append(floors, math.Nextafter(u, 2))
			}
		}
	}
	return floors
}

// sameSuffix requires the staircase of (a, q) from floor, through e, to hold
// exactly want's levels ≥ floor and their distances (compared bit for bit),
// to answer Dist, NextCritical and NextLevel as want does at every α ≥ floor,
// and then either to be the complete staircase with its integral — when the
// floor cuts nothing off either object — or to refuse loudly to be read below
// its floor or integrated.
func sameSuffix(t *testing.T, e *profileEval, a, q *Object, want *Profile, floor float64) {
	t.Helper()
	got := e.Profile(a, q, floor)
	j0 := sort.SearchFloat64s(want.Levels, floor)
	if !equalBits(got.Levels, want.Levels[j0:]) || !equalBits(got.Dists, want.Dists[j0:]) {
		t.Fatalf("%v vs %v from %v: levels %v dists %v, want %v %v",
			a, q, floor, got.Levels, got.Dists, want.Levels[j0:], want.Dists[j0:])
	}
	alphas := []float64{floor}
	for _, u := range got.Levels {
		alphas = append(alphas, u)
		if u < 1 {
			alphas = append(alphas, math.Nextafter(u, 2))
		}
	}
	for _, alpha := range alphas {
		gl, gok := got.NextLevel(alpha)
		wl, wok := want.NextLevel(alpha)
		if !equalBits([]float64{got.Dist(alpha), got.NextCritical(alpha), gl}, []float64{want.Dist(alpha), want.NextCritical(alpha), wl}) || gok != wok {
			t.Fatalf("%v vs %v from %v at α = %v: Dist, NextCritical, NextLevel = %v, %v, %v/%v; want %v, %v, %v/%v",
				a, q, floor, alpha, got.Dist(alpha), got.NextCritical(alpha), gl, gok,
				want.Dist(alpha), want.NextCritical(alpha), wl, wok)
		}
	}
	if floor <= min(a.MinLevel(), q.MinLevel()) {
		if !got.integrated || !equalBits([]float64{got.Integrate()}, []float64{want.Integrate()}) {
			t.Fatalf("%v vs %v from %v (below every level): integral %v (memoized %v), want %v",
				a, q, floor, got.integral, got.integrated, want.Integrate())
		}
		return
	}
	mustPanic(t, "Dist below the floor", func() { got.Dist(math.Nextafter(floor, 0)) })
	mustPanic(t, "Integrate of a floored staircase", func() { got.Integrate() })
}

// equalBits reports whether x and y hold the same float64 bit patterns.
func equalBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestProfileBitIdenticalToBrute drives ONE evaluator — as a query's scratch
// does — across changing queries, dimensionalities that go up and come back
// down, and candidate sizes that shrink and then grow, so a buffer length
// left over from the previous pair would show.
func TestProfileBitIdenticalToBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	var e profileEval
	sizes := []int{40, 7, 1, 64, 3, 90}
	var prevQ *Object
	for _, dims := range []int{2, 4, 1, 3, 2} {
		for _, quant := range []int{0, 5} {
			centre := make(geom.Point, dims)
			for j := range centre {
				centre[j] = rng.Float64() * 10
			}
			q := objectNear(rng, 1, sizes[rng.IntN(len(sizes))], quant, centre)
			// Overlapping, interleaved, touching, adjacent and far apart.
			for _, gap := range []float64{0, 0.7, 2, 2.5, 40} {
				at := centre.Clone()
				at[rng.IntN(dims)] += gap
				for _, n := range sizes {
					sameProfile(t, &e, objectNear(rng, 2, n, quant, at), q)
				}
			}
			// An RKNN by query_id meets its own query among the candidates.
			sameProfile(t, &e, q, q)
			// A candidate sharing exact points with the query, each repeated,
			// under memberships of its own.
			wps := q.WeightedPoints()
			for i := range wps {
				wps[i].Mu = 1 - rng.Float64()
			}
			wps[0].Mu = 1
			sameProfile(t, &e, MustNew(3, append(wps, wps...)), q)
			// Back to the previous query (another dimensionality, except the
			// first time round) and forth again: the pin must follow.
			if prevQ != nil && prevQ.Dims() == dims {
				sameProfile(t, &e, q, prevQ)
				sameProfile(t, &e, prevQ, q)
			}
			prevQ = q
		}
	}
	// One-point objects on both sides, and the §6.1 shape the product serves.
	one := MustNew(4, []WeightedPoint{{P: geom.Point{50, 50}, Mu: 1}})
	sameProfile(t, &e, one, one)
	sq, objs := sec61Neighbours(rng, 12)
	sameProfile(t, &e, one, sq)
	sameProfile(t, &e, sq, one)
	for _, o := range objs {
		sameProfile(t, &e, o, sq)
	}
}

// FuzzProfile decodes two small objects from the input — coordinates on a
// coarse lattice and memberships in quarters, so coincident points, equal
// levels and exact distance ties are the common case — and requires the
// evaluator, reused across both argument orders and the self pair, to equal
// brute force exactly, from every floor profileFloors names and from one more
// the input draws: an eighth, on a quarter level or between two, or the
// float just above it.
func FuzzProfile(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 3, 2, 0, 0, 3, 4, 4, 1, 8, 0, 2, 1, 1, 3, 5, 5, 0, 9, 9, 2})
	f.Add([]byte{2, 7, 7, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add([]byte{0, 5, 5, 4, 7, 3, 7, 2, 7, 1, 7, 0, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dims := 1 + next()%3
		na, nq := 1+next()%12, 1+next()%12
		shift := float64(next()%8) / 2
		object := func(id uint64, n int, shift float64) *Object {
			pts := make([]WeightedPoint, n)
			for i := range pts {
				p := make(geom.Point, dims)
				for j := range p {
					p[j] = float64(next()%8)/2 + shift
				}
				pts[i] = WeightedPoint{P: p, Mu: float64(1+next()%4) / 4}
			}
			pts[0].Mu = 1
			return MustNew(id, pts)
		}
		a, q := object(1, na, 0), object(2, nq, shift)
		floor := float64(next()%9) / 8
		if next()%2 == 1 && floor < 1 {
			floor = math.Nextafter(floor, 2)
		}
		var e profileEval
		sameProfile(t, &e, a, q)
		sameProfile(t, &e, q, a)
		sameProfile(t, &e, a, a)
		sameSuffix(t, &e, a, q, ComputeProfileBrute(a, q), floor)
		sameProfile(t, &e, a, q)
	})
}

func BenchmarkAlphaDist1K(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := randObject(rng, 1, 1000, 2, 0)
	q := randObject(rng, 2, 1000, 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AlphaDist(a, q, 0.5)
	}
}

func BenchmarkProfile1K(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := randObject(rng, 1, 1000, 2, 0)
	q := randObject(rng, 2, 1000, 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeProfile(a, q)
	}
}

var profileSink *Profile

// BenchmarkProfileNeighbours128 is the staircase an RKNN refines with: two
// §6.1 objects one diameter apart, through an evaluator that has met the
// query before.
func BenchmarkProfileNeighbours128(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	q := sec61Object(rng, 1, 50, 50, 128)
	a := sec61Object(rng, 2, 51, 50, 128)
	var e profileEval
	e.Profile(a, q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = e.Profile(a, q, 0)
	}
}

// BenchmarkProfileNeighbours128Floor04 is the same staircase as an RKNN over
// a window starting at αs = 0.4 asks for it: swept from floor 0.4 only.
func BenchmarkProfileNeighbours128Floor04(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	q := sec61Object(rng, 1, 50, 50, 128)
	a := sec61Object(rng, 2, 51, 50, 128)
	var e profileEval
	e.Profile(a, q, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = e.Profile(a, q, 0.4)
	}
}
