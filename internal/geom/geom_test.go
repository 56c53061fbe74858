package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func pt(xs ...float64) Point { return Point(xs) }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", pt(1, 2), pt(1, 2), 0},
		{"unit x", pt(0, 0), pt(1, 0), 1},
		{"345 triangle", pt(0, 0), pt(3, 4), 5},
		{"3d", pt(1, 1, 1), pt(2, 2, 2), math.Sqrt(3)},
		{"negative coords", pt(-1, -1), pt(1, 1), 2 * math.Sqrt2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := Dist(tc.q, tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist not symmetric: %v", got)
			}
		})
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist(pt(1, 2), pt(1, 2, 3))
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(pt(3, -1), pt(0, 4))
	if !r.Lo.Equal(pt(0, -1)) || !r.Hi.Equal(pt(3, 4)) {
		t.Errorf("NewRect did not normalize: %v", r)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{pt(1, 1), pt(-2, 3), pt(0, -5)}
	r := BoundingRect(pts)
	want := Rect{Lo: pt(-2, -5), Hi: pt(1, 3)}
	if !r.Equal(want) {
		t.Errorf("BoundingRect = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.ContainsRect(RectFromPoint(p)) {
			t.Errorf("bounding rect %v does not contain %v", r, p)
		}
	}
}

func TestBoundingRectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty point set")
		}
	}()
	BoundingRect(nil)
}

func TestRectExpand(t *testing.T) {
	var r Rect
	if !r.IsEmpty() {
		t.Fatal("zero Rect should be empty")
	}
	r.ExpandPoint(pt(1, 1))
	if !r.Equal(RectFromPoint(pt(1, 1))) {
		t.Errorf("expanding empty rect by point: %v", r)
	}
}

func TestContainsAndIntersects(t *testing.T) {
	r := NewRect(pt(0, 0), pt(10, 10))
	s := NewRect(pt(2, 2), pt(5, 5))
	if !r.ContainsRect(s) {
		t.Error("r should contain s")
	}
	if s.ContainsRect(r) {
		t.Error("s should not contain r")
	}
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Error("r and s should intersect")
	}
	far := NewRect(pt(20, 20), pt(30, 30))
	if r.Intersects(far) {
		t.Error("disjoint rects should not intersect")
	}
	if !r.ContainsRect(Rect{}) {
		t.Error("empty rect contained in anything")
	}
	if r.Intersects(Rect{}) {
		t.Error("empty rect intersects nothing")
	}
	// Touching boundaries count as intersecting (closed rectangles).
	touch := NewRect(pt(10, 0), pt(12, 10))
	if !r.Intersects(touch) {
		t.Error("touching rects should intersect")
	}
}

func TestAreaCenter(t *testing.T) {
	r := NewRect(pt(0, 0), pt(4, 2))
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := r.Center(); !got.Equal(pt(2, 1)) {
		t.Errorf("Center = %v, want (2,1)", got)
	}
	if got := (Rect{}).Area(); got != 0 {
		t.Errorf("empty Area = %v", got)
	}
}

func TestMinDistMaxDistKnownValues(t *testing.T) {
	a := NewRect(pt(0, 0), pt(1, 1))
	b := NewRect(pt(3, 0), pt(4, 1))
	if got := MinDist(a, b); math.Abs(got-2) > 1e-12 {
		t.Errorf("MinDist = %v, want 2", got)
	}
	// Max corner distance: (0,0)-(4,1) or (0,1)-(4,0): sqrt(16+1).
	if got := MaxDist(a, b); math.Abs(got-math.Sqrt(17)) > 1e-12 {
		t.Errorf("MaxDist = %v, want sqrt(17)", got)
	}
	// Overlapping rects have MinDist 0.
	c := NewRect(pt(0.5, 0.5), pt(2, 2))
	if got := MinDist(a, c); got != 0 {
		t.Errorf("MinDist overlapping = %v, want 0", got)
	}
	// Diagonal offset.
	d := NewRect(pt(4, 5), pt(6, 7))
	if got := MinDist(a, d); math.Abs(got-5) > 1e-12 {
		t.Errorf("MinDist diagonal = %v, want 5", got)
	}
}

func TestMinMaxDistEmpty(t *testing.T) {
	a := NewRect(pt(0, 0), pt(1, 1))
	if !math.IsInf(MinDist(a, Rect{}), 1) || !math.IsInf(MaxDist(Rect{}, a), 1) {
		t.Error("distances involving empty rect should be +Inf")
	}
	p := pt(0, 0)
	if !math.IsInf(MinDistPointSq(p, Rect{}), 1) {
		t.Error("point distance to empty rect should be +Inf")
	}
}

func TestPointRectDistances(t *testing.T) {
	r := NewRect(pt(0, 0), pt(2, 2))
	tests := []struct {
		p        Point
		min, max float64
	}{
		{pt(1, 1), 0, math.Sqrt2},                // inside: max to farthest corner
		{pt(3, 1), 1, math.Sqrt(9 + 1)},          // right of rect
		{pt(-1, -1), math.Sqrt2, 3 * math.Sqrt2}, // below-left corner
	}
	for _, tc := range tests {
		if got := math.Sqrt(MinDistPointSq(tc.p, r)); math.Abs(got-tc.min) > 1e-12 {
			t.Errorf("MinDistPointSq(%v) = %v², want %v²", tc.p, got, tc.min)
		}
		if got := MaxDist(RectFromPoint(tc.p), r); math.Abs(got-tc.max) > 1e-12 {
			t.Errorf("MaxDist(%v) = %v, want %v", tc.p, got, tc.max)
		}
	}
}

// randRect produces a random rectangle inside [-50,50]^d.
func randRect(rng *rand.Rand, d int) Rect {
	a := make(Point, d)
	b := make(Point, d)
	for i := 0; i < d; i++ {
		a[i] = rng.Float64()*100 - 50
		b[i] = rng.Float64()*100 - 50
	}
	return NewRect(a, b)
}

// randPointIn produces a uniform random point inside r.
func randPointIn(rng *rand.Rand, r Rect) Point {
	p := make(Point, len(r.Lo))
	for i := range p {
		p[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
	}
	return p
}

// TestMinMaxDistSandwich property: for any rects r, s and any points p in r,
// q in s: MinDist(r,s) <= Dist(p,q) <= MaxDist(r,s).
func TestMinMaxDistSandwich(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for iter := 0; iter < 500; iter++ {
		d := 1 + rng.IntN(4)
		r := randRect(rng, d)
		s := randRect(rng, d)
		lo, hi := MinDist(r, s), MaxDist(r, s)
		if lo > hi {
			t.Fatalf("MinDist %v > MaxDist %v for %v, %v", lo, hi, r, s)
		}
		for j := 0; j < 10; j++ {
			p := randPointIn(rng, r)
			q := randPointIn(rng, s)
			dd := Dist(p, q)
			if dd < lo-1e-9 {
				t.Fatalf("point dist %v below MinDist %v", dd, lo)
			}
			if dd > hi+1e-9 {
				t.Fatalf("point dist %v above MaxDist %v", dd, hi)
			}
		}
	}
}

// TestMinMaxDistSymmetry property: MinDist and MaxDist are symmetric.
func TestMinMaxDistSymmetry(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.IntN(3)
		r, s := randRect(rng, d), randRect(rng, d)
		if MinDist(r, s) != MinDist(s, r) {
			t.Fatalf("MinDist asymmetric for %v, %v", r, s)
		}
		if MaxDist(r, s) != MaxDist(s, r) {
			t.Fatalf("MaxDist asymmetric for %v, %v", r, s)
		}
	}
}

// TestPointDistSandwich property: point-rect distances bound the distance to
// any point in the rect.
func TestPointDistSandwich(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for iter := 0; iter < 300; iter++ {
		d := 1 + rng.IntN(3)
		r := randRect(rng, d)
		p := randPointIn(rng, randRect(rng, d))
		lo, hi := math.Sqrt(MinDistPointSq(p, r)), MaxDist(RectFromPoint(p), r)
		for j := 0; j < 10; j++ {
			q := randPointIn(rng, r)
			dd := Dist(p, q)
			if dd < lo-1e-9 || dd > hi+1e-9 {
				t.Fatalf("point dist %v outside [%v,%v]", dd, lo, hi)
			}
		}
	}
}

// TestDistTriangleInequality property via testing/quick.
func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		a, b, c := pt(ax, ay), pt(bx, by), pt(cx, cy)
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestStringForms(t *testing.T) {
	if got := pt(1, 2.5).String(); got != "(1, 2.5)" {
		t.Errorf("Point.String = %q", got)
	}
	if got := (Rect{}).String(); got != "[empty]" {
		t.Errorf("empty Rect.String = %q", got)
	}
	r := NewRect(pt(0, 0), pt(1, 1))
	if got := r.String(); got != "[(0, 0); (1, 1)]" {
		t.Errorf("Rect.String = %q", got)
	}
}
