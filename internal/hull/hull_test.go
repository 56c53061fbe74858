package hull

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestUpperHullBasic(t *testing.T) {
	// A decreasing, strictly concave set: every point is a hull vertex.
	pts := []Pt{{0, 10}, {0.5, 9}, {1, 0}}
	h := Upper(pts)
	if len(h) != 3 {
		t.Fatalf("hull size = %d, want 3: %v", len(h), h)
	}
	// A convex (bulging-down) middle point is dropped.
	pts = []Pt{{0, 10}, {0.5, 1}, {1, 0}}
	h = Upper(pts)
	if len(h) != 2 {
		t.Fatalf("hull size = %d, want 2: %v", len(h), h)
	}
}

func TestUpperHullCollinear(t *testing.T) {
	pts := []Pt{{0, 4}, {0.5, 2}, {1, 0}}
	h := Upper(pts)
	// Collinear middle points are not hull vertices.
	if len(h) != 2 || h[0] != (Pt{0, 4}) || h[1] != (Pt{1, 0}) {
		t.Fatalf("hull = %v", h)
	}
}

func TestUpperHullDuplicateX(t *testing.T) {
	pts := []Pt{{0, 1}, {0, 5}, {1, 0}}
	h := Upper(pts)
	if h[0] != (Pt{0, 5}) {
		t.Fatalf("duplicate x should keep max y: %v", h)
	}
}

func TestUpperHullEmptyAndSingle(t *testing.T) {
	if h := Upper(nil); h != nil {
		t.Errorf("empty hull = %v", h)
	}
	h := Upper([]Pt{{0.3, 0.7}})
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
		h := Upper(pts)
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

// bruteOptimalLine scans all hull anchors, returning the best conservative
// line. It serves as the reference implementation for the bisection.
func bruteOptimalLine(pts []Pt) Line {
	h := Upper(pts)
	best := Line{}
	bestObj := math.Inf(1)
	for _, p := range h {
		l := lift(anchorOptimalLine(p, pts), pts)
		if o := sumSqErr(l, pts); o < bestObj {
			bestObj = o
			best = l
		}
	}
	return best
}

func TestOptimalLineConservativeRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.IntN(50)
		pts := make([]Pt, n)
		// Generate a decreasing noisy boundary function like real δ(α).
		y := 5 + rng.Float64()*5
		for i := range pts {
			x := float64(i) / float64(n)
			y -= rng.Float64() * 0.5
			if y < 0 {
				y = 0
			}
			pts[i] = Pt{X: x, Y: y}
		}
		l := OptimalConservativeLine(pts)
		for _, p := range pts {
			if p.Y > l.Eval(p.X)+1e-9 {
				t.Fatalf("line %+v not conservative at %v", l, p)
			}
		}
	}
}

func TestOptimalLineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(123, 45))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.IntN(40)
		pts := make([]Pt, n)
		for i := range pts {
			pts[i] = Pt{X: rng.Float64(), Y: rng.Float64() * 4}
		}
		got := OptimalConservativeLine(pts)
		want := bruteOptimalLine(pts)
		gotObj := sumSqErr(got, pts)
		wantObj := sumSqErr(want, pts)
		// The bisection must be at least as good as the exhaustive anchor
		// scan up to numerical noise.
		if gotObj > wantObj*(1+1e-6)+1e-9 {
			t.Fatalf("bisection objective %v worse than brute force %v (pts=%v)",
				gotObj, wantObj, pts)
		}
	}
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
		if p.Y > l.Eval(p.X)+1e-9 {
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
		pts := make([]Pt, 1+rng.IntN(80))
		for i := range pts {
			pts[i] = Pt{X: rng.Float64(), Y: rng.Float64() * 3}
		}
		if iter%3 == 0 { // duplicate x, as the α = 0 anchor makes
			pts = append(pts, Pt{X: pts[0].X, Y: pts[0].Y / 2})
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
