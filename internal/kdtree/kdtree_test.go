package kdtree

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fuzzyknn/internal/geom"
)

func randPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()*100 - 50
		}
		pts[i] = p
	}
	return pts
}

// flat lays pts out the way the tree takes them: one coordinate slab.
func flat(pts []geom.Point) []float64 {
	var out []float64
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

// bruteNearest is the reference nearest-neighbor implementation.
func bruteNearest(pts []geom.Point, q geom.Point) (int, float64) {
	best, bi := math.Inf(1), -1
	for i, p := range pts {
		if d := geom.Dist(p, q); d < best {
			best, bi = d, i
		}
	}
	return bi, best
}

// bruteClosestPair is the reference BCP implementation.
func bruteClosestPair(a, b []geom.Point) (int, int, float64) {
	best := math.Inf(1)
	bi, bj := -1, -1
	for i, p := range a {
		for j, q := range b {
			if d := geom.Dist(p, q); d < best {
				best, bi, bj = d, i, j
			}
		}
	}
	return bi, bj, best
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, 2)
	if tree.Len() != 0 {
		t.Fatalf("empty tree Len = %d", tree.Len())
	}
	i, d := tree.Nearest(geom.Point{0, 0})
	if i != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty tree = (%d, %v)", i, d)
	}
}

func TestSinglePoint(t *testing.T) {
	tree := Build([]float64{3, 4}, 2)
	i, d := tree.Nearest(geom.Point{0, 0})
	if i != 0 || math.Abs(d-5) > 1e-12 {
		t.Errorf("Nearest = (%d, %v), want (0, 5)", i, d)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		for _, d := range []int{1, 2, 3} {
			pts := randPoints(rng, n, d)
			tree := Build(flat(pts), len(pts[0]))
			if tree.Len() != n {
				t.Fatalf("Len = %d, want %d", tree.Len(), n)
			}
			for q := 0; q < 30; q++ {
				query := randPoints(rng, 1, d)[0]
				gi, gd := tree.Nearest(query)
				wi, wd := bruteNearest(pts, query)
				if math.Abs(gd-wd) > 1e-9 {
					t.Fatalf("n=%d d=%d: Nearest dist %v (idx %d), want %v (idx %d)", n, d, gd, gi, wd, wi)
				}
			}
		}
	}
}

func TestNearestWithinBound(t *testing.T) {
	pts := []geom.Point{{0, 0}, {10, 0}, {20, 0}}
	tree := Build(flat(pts), len(pts[0]))
	// Bound excludes everything.
	i, d := tree.NearestWithin(geom.Point{5, 5}, 1.0)
	if i != -1 || !math.IsInf(d, 1) {
		t.Errorf("NearestWithin tight bound = (%d, %v), want (-1, +Inf)", i, d)
	}
	// Bound admits only the closest.
	i, d = tree.NearestWithin(geom.Point{1, 0}, 5.0)
	if i != 0 || math.Abs(d-1) > 1e-12 {
		t.Errorf("NearestWithin = (%d, %v), want (0, 1)", i, d)
	}
	// Strictness: a point exactly at the bound is excluded.
	i, _ = tree.NearestWithin(geom.Point{1, 0}, 1.0)
	if i != -1 {
		t.Errorf("NearestWithin strict bound admitted index %d", i)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tree := Build(flat(pts), len(pts[0]))
	i, d := tree.Nearest(geom.Point{1, 1})
	if d != 0 {
		t.Errorf("Nearest to duplicate cluster = %v, want 0", d)
	}
	if i < 0 || i > 2 {
		t.Errorf("Nearest index %d should be one of the duplicates", i)
	}
}

func TestClosestPairMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for iter := 0; iter < 50; iter++ {
		d := 1 + rng.IntN(3)
		na, nb := 1+rng.IntN(60), 1+rng.IntN(60)
		a := randPoints(rng, na, d)
		b := randPoints(rng, nb, d)
		gi, gj, gd := ClosestPair(flat(a), flat(b), len(a[0]))
		_, _, wd := bruteClosestPair(a, b)
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("ClosestPair dist = %v, want %v", gd, wd)
		}
		if got := geom.Dist(a[gi], b[gj]); math.Abs(got-gd) > 1e-9 {
			t.Fatalf("returned pair distance inconsistent: %v vs %v", got, gd)
		}
	}
}

func TestClosestPairEmpty(t *testing.T) {
	i, j, d := ClosestPair(nil, []float64{1, 1}, 2)
	if i != -1 || j != -1 || !math.IsInf(d, 1) {
		t.Errorf("ClosestPair with empty set = (%d, %d, %v)", i, j, d)
	}
}

// TestClosestPairIndicesMatchBrute checks ClosestPair against brute force to
// the bit, indices included, on inputs whose closest pair is unique — the far
// side listed first, so the near-side seed is not the first query point —
// and, under duplicates, that the returned pair is one at the minimum.
func TestClosestPairIndicesMatchBrute(t *testing.T) {
	a := []geom.Point{{0, 0}}
	b := []geom.Point{{0, 3}, {0, 2}, {0, 1}}
	if i, j, d := ClosestPair(flat(a), flat(b), 2); i != 0 || j != 2 || d != 1 {
		t.Errorf("ClosestPair = (%d, %d, %v), want (0, 2, 1)", i, j, d)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for iter := 0; iter < 200; iter++ {
		d := 1 + rng.IntN(3)
		a := randPoints(rng, 1+rng.IntN(40), d)
		b := randPoints(rng, 1+rng.IntN(40), d)
		if iter%4 == 0 { // a shared point: distance 0, possibly at several pairs
			b[rng.IntN(len(b))] = a[rng.IntN(len(a))].Clone()
		}
		gi, gj, gd := ClosestPair(flat(a), flat(b), d)
		wi, wj, wd := bruteClosestPair(a, b)
		if math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("iter %d: dist %v, brute %v", iter, gd, wd)
		}
		if got := geom.Dist(a[gi], b[gj]); math.Float64bits(got) != math.Float64bits(wd) {
			t.Fatalf("iter %d: pair (%d, %d) is %v apart, brute (%d, %d) %v", iter, gi, gj, got, wi, wj, wd)
		}
		if iter%4 != 0 && (gi != wi || gj != wj) {
			t.Fatalf("iter %d: pair (%d, %d), brute (%d, %d)", iter, gi, gj, wi, wj)
		}
	}
}

func TestClosestPairAsymmetricSizes(t *testing.T) {
	// Exercise the swap path (len(b) < len(a)).
	rng := rand.New(rand.NewPCG(4, 4))
	a := randPoints(rng, 100, 2)
	b := randPoints(rng, 3, 2)
	gi, gj, gd := ClosestPair(flat(a), flat(b), len(a[0]))
	_, _, wd := bruteClosestPair(a, b)
	if math.Abs(gd-wd) > 1e-9 {
		t.Fatalf("dist = %v, want %v", gd, wd)
	}
	if got := geom.Dist(a[gi], b[gj]); math.Abs(got-gd) > 1e-9 {
		t.Fatalf("pair indices wrong after swap: %v vs %v", got, gd)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	coords := flat(randPoints(rng, 50, 2))
	orig := slices.Clone(coords)
	Build(coords, 2)
	if !slices.Equal(coords, orig) {
		t.Fatal("input slab reordered")
	}
}

func BenchmarkNearest1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	pts := randPoints(rng, 1000, 2)
	tree := Build(flat(pts), len(pts[0]))
	queries := randPoints(rng, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(queries[i%len(queries)])
	}
}

func BenchmarkClosestPair1000x1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	pa := flat(randPoints(rng, 1000, 2))
	pb := flat(randPoints(rng, 1000, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClosestPair(pa, pb, 2)
	}
}

// TestBoxGapSqMatchesBruteForce holds the box query, and the box-and-disk
// query, to their definitions bit for bit: max(floorSq, the smallest over
// the points of geom.MinDistPointSq to the box, raised to the point's
// squared disk gap when there is a disk) — on empty trees, in one to three
// dimensions, for boxes that contain points, touch them, sit on a splitting
// plane or shrink to a point, on grid points whose coordinates tie on every
// axis, and for disks centred anywhere, on a point or on the grid, with
// radii from zero past the points' spread, a margin scale below one, and
// coordinates whose squares overflow.
func TestBoxGapSqMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(23001, 23002))
	bits := math.Float64bits
	for dims := 1; dims <= 3; dims++ {
		for iter := 0; iter < 300; iter++ {
			pts := randPoints(rng, rng.IntN(80), dims)
			if iter%3 == 1 { // ties: integer grid points
				for _, p := range pts {
					for j := range p {
						p[j] = math.Round(p[j] / 10)
					}
				}
			}
			tree := Build(flat(pts), dims)
			box := geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
			for j := 0; j < dims; j++ {
				c, w := rng.Float64()*120-60, rng.Float64()*20
				switch {
				case iter%5 == 0: // a point
					w = 0
				case iter%5 == 1 && len(pts) > 0: // a face on a point's coordinate
					c = pts[rng.IntN(len(pts))][j] + w/2
				}
				if iter%3 == 1 {
					c, w = math.Round(c/10), math.Round(w/10)
				}
				box.Lo[j], box.Hi[j] = c-w/2, c+w/2
			}
			brute := math.Inf(1)
			for _, p := range pts {
				brute = min(brute, geom.MinDistPointSq(p, box))
			}
			for _, floor := range []float64{0, brute / 2, brute, 2 * brute, rng.Float64() * 400} {
				if got, want := tree.BoxGapSq(box.Lo, box.Hi, floor), max(brute, floor); bits(got) != bits(want) {
					t.Fatalf("dims %d iter %d (%d points), box %v, floor %v: got %v, brute force %v",
						dims, iter, len(pts), box, floor, got, want)
				}
			}
			for trial := 0; trial < 4; trial++ {
				disk := Disk{C: make([]float64, dims), Scale: 1 - float64(trial%2)*0x1p-40, R: rng.Float64() * 40}
				for j := range disk.C {
					disk.C[j] = rng.Float64()*120 - 60
				}
				switch {
				case trial == 1 && len(pts) > 0: // centred on a point
					copy(disk.C, pts[rng.IntN(len(pts))])
				case trial == 2: // on the grid, radius zero
					for j := range disk.C {
						disk.C[j] = math.Round(disk.C[j] / 10)
					}
					disk.R = 0
				case trial == 3 && iter%7 == 0: // squares overflow
					for j := range disk.C {
						disk.C[j] = 1e300
					}
					disk.R = 1e153
				}
				brute := math.Inf(1)
				for _, p := range pts {
					g := geom.MinDistPointSq(p, box)
					rho := math.Sqrt(min(geom.DistSq(p, disk.C), math.MaxFloat64))
					if dg := float64(rho*disk.Scale) - disk.R; dg > 0 {
						g = max(g, dg*dg)
					}
					brute = min(brute, g)
				}
				for _, floor := range []float64{0, brute / 2, brute, 2 * brute} {
					if got, want := tree.CutGapSq(box.Lo, box.Hi, disk, floor), max(brute, floor); bits(got) != bits(want) {
						t.Fatalf("dims %d iter %d (%d points), box %v, disk %+v, floor %v: got %v, brute force %v",
							dims, iter, len(pts), box, disk, floor, got, want)
					}
				}
			}
		}
	}
}
