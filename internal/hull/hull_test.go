package hull

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// upper returns the upper hull of pts in any order: upperHull of the
// samples sorted by x. Points sharing an x keep only the highest y, and pts
// is not modified.
func upper(pts []Pt) []Pt {
	return upperHull(nil, slices.SortedFunc(slices.Values(pts), func(a, b Pt) int { return cmp.Compare(a.X, b.X) }))
}

func TestUpperHullBasic(t *testing.T) {
	// A decreasing, strictly concave set: every point is a hull vertex.
	pts := []Pt{{0, 10}, {0.5, 9}, {1, 0}}
	h := upper(pts)
	if len(h) != 3 {
		t.Fatalf("hull size = %d, want 3: %v", len(h), h)
	}
	// A convex (bulging-down) middle point is dropped.
	pts = []Pt{{0, 10}, {0.5, 1}, {1, 0}}
	h = upper(pts)
	if len(h) != 2 {
		t.Fatalf("hull size = %d, want 2: %v", len(h), h)
	}
}

func TestUpperHullCollinear(t *testing.T) {
	pts := []Pt{{0, 4}, {0.5, 2}, {1, 0}}
	h := upper(pts)
	// Collinear middle points are not hull vertices.
	if len(h) != 2 || h[0] != (Pt{0, 4}) || h[1] != (Pt{1, 0}) {
		t.Fatalf("hull = %v", h)
	}
}

func TestUpperHullDuplicateX(t *testing.T) {
	for _, pts := range [][]Pt{
		{{0, 1}, {0, 5}, {1, 0}},
		{{0, 5}, {0, 1}, {1, 0}},
		{{1, 0}, {0, 1}, {0, 5}, {0, 3}},
	} {
		if h := upper(pts); len(h) != 2 || h[0] != (Pt{0, 5}) {
			t.Fatalf("duplicate x should keep max y: %v -> %v", pts, h)
		}
	}
}

func TestUpperHullEmptyAndSingle(t *testing.T) {
	if h := upper(nil); h != nil {
		t.Errorf("empty hull = %v", h)
	}
	h := upper([]Pt{{0.3, 0.7}})
	if len(h) != 1 || h[0] != (Pt{0.3, 0.7}) {
		t.Errorf("single-point hull = %v", h)
	}
}

// hullDominates checks that every input point is on or below the hull's
// piecewise-linear upper boundary.
func hullDominates(h, pts []Pt) bool {
	eval := func(x float64) float64 {
		if len(h) == 1 {
			return h[0].Y
		}
		if x <= h[0].X {
			return h[0].Y
		}
		if x >= h[len(h)-1].X {
			return h[len(h)-1].Y
		}
		for i := 1; i < len(h); i++ {
			if x <= h[i].X {
				f := (x - h[i-1].X) / (h[i].X - h[i-1].X)
				return h[i-1].Y + f*(h[i].Y-h[i-1].Y)
			}
		}
		return h[len(h)-1].Y
	}
	for _, p := range pts {
		if p.Y > eval(p.X)+1e-9 {
			return false
		}
	}
	return true
}

func TestUpperHullDominatesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.IntN(60)
		pts := make([]Pt, n)
		for i := range pts {
			pts[i] = Pt{X: rng.Float64(), Y: rng.Float64() * 10}
		}
		h := upper(pts)
		if !hullDominates(h, pts) {
			t.Fatalf("hull does not dominate inputs: %v / %v", h, pts)
		}
		// Slopes strictly decreasing.
		for i := 2; i < len(h); i++ {
			s1 := (h[i-1].Y - h[i-2].Y) / (h[i-1].X - h[i-2].X)
			s2 := (h[i].Y - h[i-1].Y) / (h[i].X - h[i-1].X)
			if s2 >= s1 {
				t.Fatalf("slopes not strictly decreasing: %v", h)
			}
		}
	}
}

func TestOptimalLineSinglePoint(t *testing.T) {
	l := OptimalConservativeLine([]Pt{{0.5, 3}})
	if l.M != 0 || math.Abs(l.Eval(0.5)-3) > 1e-12 {
		t.Fatalf("single point line = %+v", l)
	}
}

func TestOptimalLineCollinearIsExact(t *testing.T) {
	pts := []Pt{{0, 4}, {0.25, 3}, {0.5, 2}, {1, 0}}
	l := OptimalConservativeLine(pts)
	for _, p := range pts {
		if math.Abs(l.Eval(p.X)-p.Y) > 1e-9 {
			t.Fatalf("line %+v should interpolate collinear points, off at %v", l, p)
		}
	}
}

func TestOptimalLineEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OptimalConservativeLine(nil)
}

func TestOptimalLineUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OptimalConservativeLine([]Pt{{0, 1}, {0.5, 2}, {0.25, 3}})
}

// sumSqErr returns the objective Σ (l(x_i) − y_i)².
func sumSqErr(l Line, pts []Pt) float64 {
	var s float64
	for _, p := range pts {
		e := l.Eval(p.X) - p.Y
		s += e * e
	}
	return s
}

// activeSetOptimum is the reference for the fit, and shares neither its
// hull nor its candidate argument: at the optimum of this two-variable
// convex QP one constraint is active — the line is that sample's
// anchor-optimal line — or two are — the line through two samples. It
// enumerates both over every sample, keeps the candidates that dominate
// every sample up to rounding, lifts those to dominate exactly, and returns
// the least objective. Its candidates include every lifted anchor-optimal
// line, which is all the bisection the closed form replaced could return,
// so a fit that matches it is never worse than that one.
func activeSetOptimum(pts []Pt) float64 {
	best := math.Inf(1)
	try := func(l Line) {
		for _, p := range pts {
			if p.Y > l.Eval(p.X)+1e-9*(1+math.Abs(p.Y)) {
				return
			}
		}
		if o := sumSqErr(lift(l, pts), pts); o < best {
			best = o
		}
	}
	for i, p := range pts {
		var num, den float64
		for _, q := range pts {
			dx := q.X - p.X
			num += dx * (q.Y - p.Y)
			den += dx * dx
		}
		m := 0.0
		if den > 0 {
			m = num / den
		}
		try(Line{M: m, T: p.Y - m*p.X})
		for _, q := range pts[i+1:] {
			if q.X != p.X {
				m := (q.Y - p.Y) / (q.X - p.X)
				try(Line{M: m, T: p.Y - m*p.X})
			}
		}
	}
	return best
}

// Boundary-function shapes the fit is checked over.
const (
	noisyDecreasing = iota // a random non-increasing step function
	gaussianShape          // √(−2 ln α), the δ of a Gaussian membership
	uniformShape           // uniform noise
	gridShape              // few distinct x and y values: duplicate x, ties, collinear runs
	numShapes
)

// boundarySamples returns n ≥ 1 samples of the given shape, ascending in x
// as the fit takes them. Shapes with levels in (0, 1] start with the α = 0
// anchor at the lowest level's value, as a §3.2 summary's samples do.
func boundarySamples(rng *rand.Rand, shape, n int) []Pt {
	pts := make([]Pt, n)
	switch shape {
	case noisyDecreasing:
		y := 5 + rng.Float64()*5
		for i := range pts {
			y = max(y-rng.Float64()*0.5, 0)
			pts[i] = Pt{X: float64(i) / float64(n), Y: y}
		}
	case gaussianShape:
		xs := make([]float64, n-1)
		for i := range xs {
			xs[i] = 1 - rng.Float64() // in (0, 1]
		}
		slices.Sort(xs)
		scale := 0.1 + rng.Float64()*10
		for i, x := range xs {
			pts[i+1] = Pt{X: x, Y: scale * math.Sqrt(-2*math.Log(x))}
		}
		pts[0] = Pt{Y: pts[min(1, n-1)].Y}
	case uniformShape:
		for i := range pts {
			pts[i] = Pt{X: rng.Float64(), Y: rng.Float64() * 4}
		}
	case gridShape:
		for i := range pts {
			pts[i] = Pt{X: float64(rng.IntN(5)) / 4, Y: float64(rng.IntN(4))}
		}
	}
	slices.SortFunc(pts, func(a, b Pt) int { return cmp.Compare(a.X, b.X) })
	return pts
}

// checkFit requires the fit of pts to dominate every sample exactly and to
// reach the active-set optimum up to rounding.
func checkFit(t *testing.T, pts []Pt) {
	t.Helper()
	l := OptimalConservativeLine(pts)
	for _, p := range pts {
		if p.Y > l.Eval(p.X) {
			t.Fatalf("line %+v below sample %v of %v", l, p, pts)
		}
	}
	got, want := sumSqErr(l, pts), activeSetOptimum(pts)
	if got > want*(1+1e-9)+1e-12 {
		t.Fatalf("fit objective %v, active-set optimum %v (pts=%v)", got, want, pts)
	}
}

// TestOptimalLineConservativeRandom: the served line dominates every sample
// exactly, with no tolerance, on noisy decreasing boundary functions of up to
// 128 samples.
func TestOptimalLineConservativeRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	for iter := 0; iter < 2000; iter++ {
		pts := boundarySamples(rng, noisyDecreasing, 1+rng.IntN(128))
		l := OptimalConservativeLine(pts)
		for _, p := range pts {
			if p.Y > l.Eval(p.X) {
				t.Fatalf("line %+v not conservative at %v", l, p)
			}
		}
	}
}

// TestOptimalLineMatchesBruteForce holds the fit to the active-set oracle on
// 5 000 random boundary functions of each shape.
func TestOptimalLineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(123, 45))
	for shape := 0; shape < numShapes; shape++ {
		for iter := 0; iter < 5000; iter++ {
			checkFit(t, boundarySamples(rng, shape, 1+rng.IntN(64)))
		}
	}
}

// FuzzOptimalLine holds the fit to the active-set oracle on random boundary
// functions of every shape and of 1 to 128 samples.
func FuzzOptimalLine(f *testing.F) {
	for shape := uint8(0); shape < numShapes; shape++ {
		f.Add(uint64(shape), shape, uint8(30*shape+1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, n uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		checkFit(t, boundarySamples(rng, int(shape)%numShapes, 1+int(n)%128))
	})
}

func TestOptimalLineTypicalBoundaryFunction(t *testing.T) {
	// δ(α) for a Gaussian-membership circle shrinks like sqrt(-log(α)).
	var pts []Pt
	for i := 1; i <= 50; i++ {
		a := float64(i) / 50
		pts = append(pts, Pt{X: a, Y: 0.5 * math.Sqrt(-math.Log(a)+1e-9)})
	}
	l := OptimalConservativeLine(pts)
	if l.M >= 0 {
		t.Errorf("boundary approximation should slope downward, got m=%v", l.M)
	}
	for _, p := range pts {
		if p.Y > l.Eval(p.X) {
			t.Fatalf("not conservative at %v", p)
		}
	}
}

// TestFitterReuse: a Fitter carried across fits of different sizes returns
// OptimalConservativeLine's line bit for bit, and a warm one allocates
// nothing.
func TestFitterReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	var f Fitter
	for iter := 0; iter < 200; iter++ {
		pts := boundarySamples(rng, uniformShape, 1+rng.IntN(80))
		if iter%3 == 0 { // duplicate x, as the α = 0 anchor makes
			pts = slices.Insert(pts, 1, Pt{X: pts[0].X, Y: pts[0].Y / 2})
		}
		if got, want := f.Fit(pts), OptimalConservativeLine(pts); got != want {
			t.Fatalf("iter %d: Fitter %+v, OptimalConservativeLine %+v", iter, got, want)
		}
	}
	pts := make([]Pt, 64)
	for i := range pts {
		pts[i] = Pt{X: float64(i) / 64, Y: 1 - float64(i*i)/4096}
	}
	if allocs := testing.AllocsPerRun(20, func() { f.Fit(pts) }); allocs != 0 {
		t.Errorf("a warm Fitter allocates %.0f times per fit", allocs)
	}
}

func BenchmarkOptimalLine256(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	pts := make([]Pt, 256)
	y := 10.0
	for i := range pts {
		y -= rng.Float64() * 0.1
		pts[i] = Pt{X: float64(i) / 256, Y: y}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalConservativeLine(pts)
	}
}
