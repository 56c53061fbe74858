package fuzzy

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/geom"
)

// sec61Object is the §6.1 generator's shape (internal/dataset cannot be
// imported from here): n points uniform in a disk of radius 0.5, Gaussian
// memberships (σ = 0.5) normalized onto (0, 1] — one level per point.
func sec61Object(rng *rand.Rand, id uint64, cx, cy float64, n int) *Object {
	pts := make([]WeightedPoint, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range pts {
		r := 0.5 * math.Sqrt(rng.Float64())
		theta := rng.Float64() * 2 * math.Pi
		dx, dy := r*math.Cos(theta), r*math.Sin(theta)
		pts[i] = WeightedPoint{P: geom.Point{cx + dx, cy + dy}, Mu: math.Exp(-(dx*dx + dy*dy) / 0.5)}
		lo, hi = min(lo, pts[i].Mu), max(hi, pts[i].Mu)
	}
	for i := range pts {
		pts[i].Mu = max((pts[i].Mu-lo)/(hi-lo), 1e-9)
	}
	return MustNew(id, pts)
}

// sec61Neighbours returns a query and the objects an AKNN probes for it:
// the paper's density (5 objects per unit area) puts a query's 20 nearest
// within about a unit of it.
func sec61Neighbours(rng *rand.Rand, n int) (*Object, []*Object) {
	q := sec61Object(rng, 0, 50, 50, 128)
	objs := make([]*Object, n)
	for i := range objs {
		r, theta := 0.3+1.2*rng.Float64(), rng.Float64()*2*math.Pi
		objs[i] = sec61Object(rng, uint64(i+1), 50+r*math.Cos(theta), 50+r*math.Sin(theta), 128)
	}
	return q, objs
}

// sameBits checks the three evaluations of d_α agree to the last bit: the
// gate and the near-side seed of kdtree.Tree.ClosestSq may only skip work.
func sameBits(t *testing.T, e *DistEval, a, q *Object, alpha float64) {
	t.Helper()
	e.Reset(q, alpha)
	got, tree, brute := e.Dist(a), AlphaDist(a, q, alpha), AlphaDistBrute(a, q, alpha)
	if math.Float64bits(got) != math.Float64bits(brute) || math.Float64bits(tree) != math.Float64bits(brute) {
		t.Fatalf("d_%v(%v, %v): DistEval %v, AlphaDist %v, brute %v", alpha, a, q, got, tree, brute)
	}
}

func TestDistEvalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	var e DistEval
	alphas := func(a, q *Object) []float64 {
		// Fixed values plus exact membership levels of either side.
		out := []float64{0, 0.05, 0.5, 0.95, 1, 1.5}
		out = append(out, a.Levels()[rng.IntN(len(a.Levels()))], q.Levels()[rng.IntN(len(q.Levels()))])
		return out
	}
	for _, dims := range []int{1, 2, 3, 5} {
		for iter := 0; iter < 40; iter++ {
			a := randObject(rng, 1, 1+rng.IntN(90), dims, 8*(iter%3))
			// Centres are uniform in [0,100)^d with ±1 extents: most pairs are
			// far apart; every fourth one is moved to overlap, touch or sit at
			// a single point of a.
			var q *Object
			switch iter % 4 {
			case 0:
				q = randObject(rng, 2, 1+rng.IntN(90), dims, 8)
			case 1: // overlapping: a's points jittered, fresh memberships
				wps := a.WeightedPoints()
				for i := range wps {
					wps[i].P[rng.IntN(dims)] += rng.Float64() - 0.5
					wps[i].Mu = 1 - rng.Float64()
				}
				wps[0].Mu = 1
				q = MustNew(2, wps)
			case 2: // touching: shares one exact point with a
				p, _ := a.At(rng.IntN(a.Len()))
				far := p.Clone()
				far[0] += 3
				q = MustNew(2, []WeightedPoint{{P: p.Clone(), Mu: 1}, {P: far, Mu: 0.5}})
			case 3: // single-point cut
				p := make(geom.Point, dims)
				for j := range p {
					p[j] = rng.Float64() * 100
				}
				q = MustNew(2, []WeightedPoint{{P: p, Mu: 1}})
			}
			for _, alpha := range alphas(a, q) {
				sameBits(t, &e, a, q, alpha)
				sameBits(t, &e, q, a, alpha)
			}
			sameBits(t, &e, a, a, 0.5) // identical
		}
	}
	q, objs := sec61Neighbours(rng, 50)
	for _, o := range objs {
		for _, alpha := range []float64{0.1, 0.5, 0.9, o.Levels()[len(o.Levels())/2]} {
			sameBits(t, &e, o, q, alpha)
		}
	}
}

// TestDistEvalNearestWithin holds the §3.4 upper bound to its definition:
// the distance from a point to the nearest point of Q_α, capped at the
// bound, and for an object's representative kernel point never below
// d_α(A, Q).
func TestDistEvalNearestWithin(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	q, objs := sec61Neighbours(rng, 40)
	var e DistEval
	for _, alpha := range []float64{0, 0.5, 0.9, 1} {
		e.Reset(q, alpha)
		cut := cutOf(q, alpha)
		for _, o := range objs {
			rep := o.Rep()
			want := math.Inf(1)
			for _, c := range cut {
				want = min(want, geom.Dist(rep, c))
			}
			if got := e.NearestWithin(rep, math.Inf(1)); got != want {
				t.Fatalf("α = %v, object %d: nearest cut point at %v, brute force %v", alpha, o.ID(), got, want)
			}
			if got := e.NearestWithin(rep, want/2); got != want/2 {
				t.Fatalf("α = %v, object %d: bound %v not kept, got %v", alpha, o.ID(), want/2, got)
			}
			if d := e.Dist(o); d > want {
				t.Fatalf("α = %v, object %d: d_α %v above its representative's %v", alpha, o.ID(), d, want)
			}
		}
	}
}

// TestDistEvalGateSkips pins the descent count: on the pairs an AKNN
// actually evaluates, most points of the visited object lie beyond the
// running minimum from the query's MBR and never enter the tree. The bounds
// fail for a loop that starts its minimum from the object's first points
// instead of its near side (68% and 51% skipped).
func TestDistEvalGateSkips(t *testing.T) {
	for _, tc := range []struct{ alpha, want float64 }{{0.5, 0.8}, {0.9, 0.7}} {
		rng := rand.New(rand.NewPCG(23, 24))
		q, objs := sec61Neighbours(rng, 200)
		var e DistEval
		e.Reset(q, tc.alpha)
		points := 0
		for _, o := range objs {
			e.Dist(o)
			points += o.CutSize(tc.alpha)
		}
		skipped := points - e.descents
		t.Logf("α = %v: %.1f descents per object, %d of %d points skipped", tc.alpha,
			float64(e.descents)/float64(len(objs)), skipped, points)
		if share := float64(skipped) / float64(points); share < tc.want {
			t.Errorf("α = %v: gate skipped %d of %d points (%.1f%%), want ≥ %.0f%%",
				tc.alpha, skipped, points, 100*share, 100*tc.want)
		}
	}
}

// TestDistEvalResetAllocs pins what pinning a query costs: a warm evaluator
// Reset to a query object it has never seen rebuilds its tree and M_Q(α) in
// its own storage and allocates nothing — nothing is derived onto, or kept
// for, the query object — and QueryMBR is that object's MBR(α) bit for bit.
func TestDistEvalResetAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	const runs = 20
	qs := make([]*Object, runs+2)
	for i := range qs {
		qs[i] = sec61Object(rng, uint64(i), 50, 50, 128)
	}
	var e DistEval
	e.Reset(qs[len(qs)-1], 0.5) // warm: buffers at the queries' size
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() { e.Reset(qs[next], 0.5); next++ }); allocs != 0 {
		t.Errorf("a warm DistEval.Reset on a new query object allocates %.0f times, want 0", allocs)
	}
	for _, alpha := range []float64{1e-9, 0.5, 1, 1.5} {
		e.Reset(qs[0], alpha)
		if got, want := e.QueryMBR(), qs[0].MBR(alpha); !sameBitsRect(got, want) || got.IsEmpty() != want.IsEmpty() {
			t.Errorf("α = %v: QueryMBR %v, want %v", alpha, got, want)
		}
	}
}

// FuzzDistEval holds the seeded closest pair to brute force on random
// §6.1-shaped pairs: far apart, overlapping, touching (distance 0), with
// duplicate points, and against a one-point object, at fixed α, at exact
// levels of either side and just above one. The three evaluations must agree
// to the bit: the near-side seed changes the sequence of running minima, and
// a fixed table only samples it.
func FuzzDistEval(f *testing.F) {
	for shape := uint8(0); shape < 5; shape++ {
		f.Add(uint64(shape), shape, uint8(40), uint8(90), uint8(7*shape))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, na, nq, pick uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		a := sec61Object(rng, 1, 50, 50, 2+int(na)%127)
		cx := 50 + rng.Float64() - 0.5 // overlapping
		if shape%5 == 0 {
			cx += 1 + 30*rng.Float64() // far apart
		}
		q := sec61Object(rng, 2, cx, 50, 2+int(nq)%127)
		switch shape % 5 {
		case 2: // touching: q gains one of a's points
			p, mu := a.At(rng.IntN(a.Len()))
			q = MustNew(2, append(q.WeightedPoints(), WeightedPoint{P: p.Clone(), Mu: mu}))
		case 3: // duplicate points on both sides
			dup := func(o *Object) *Object {
				wps := o.WeightedPoints()
				for i := 0; i < 1+len(wps)/4; i++ {
					w := wps[rng.IntN(len(wps))]
					wps = append(wps, WeightedPoint{P: w.P.Clone(), Mu: w.Mu})
				}
				return MustNew(o.ID(), wps)
			}
			a, q = dup(a), dup(q)
		case 4: // a one-point object
			q = MustNew(2, []WeightedPoint{{P: geom.Point{cx, 50 + rng.Float64()}, Mu: 1}})
		}
		la, lq := a.Levels(), q.Levels()
		level := la[int(pick)%len(la)]
		if pick%2 == 1 {
			level = lq[int(pick)%len(lq)]
		}
		var e DistEval
		for _, alpha := range []float64{1e-9, 0.05, 0.5, 0.95, 1, level, math.Nextafter(level, 2)} {
			sameBits(t, &e, a, q, alpha)
			sameBits(t, &e, q, a, alpha)
		}
	})
}

// TestProfileCacheFloorsDoNotLeak drives one cache through windows that widen
// under it: an entry answers only from its own floor up, a lower floor
// recomputes and replaces it, and the expected distance — the integral over
// every level — never comes from a floored staircase.
func TestProfileCacheFloorsDoNotLeak(t *testing.T) {
	q, objs := sec61Neighbours(rand.New(rand.NewPCG(43, 44)), 1)
	o := objs[0]
	var c ProfileCache
	p5 := c.Profile(o, q, 0.5)
	if _, ok := c.Lookup(o, q, 0.4); ok {
		t.Fatal("Lookup at 0.4 served the staircase floored at 0.5")
	}
	if p, ok := c.Lookup(o, q, 0.5); !ok || p != p5 {
		t.Fatal("Lookup at 0.5 missed the staircase floored at 0.5")
	}
	p4 := c.Profile(o, q, 0.4)
	if p4 == p5 {
		t.Fatal("Profile from 0.4 served the staircase floored at 0.5")
	}
	if p := c.Profile(o, q, 0.6); p != p4 {
		t.Fatal("Profile from 0.6 recomputed although the entry answers from 0.4")
	}
	brute := ComputeProfileBrute(o, q)
	for _, alpha := range []float64{0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 1} {
		if got, want := p4.Dist(alpha), brute.Dist(alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d_%v from the floor-0.4 staircase = %v, brute force %v", alpha, got, want)
		}
	}
	if _, ok := c.Lookup(o, q, 0.3); ok {
		t.Fatal("Lookup at 0.3 served the staircase floored at 0.4")
	}
	if got, want := c.ExpectedDist(o, q), ExpectedDist(o, q); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cached expected distance %v, one-shot %v", got, want)
	}
	if p, ok := c.Lookup(o, q, 0.3); !ok || p.floor != 0 {
		t.Fatal("the complete staircase ExpectedDist cached does not answer at 0.3")
	}
}

var distSink float64

// BenchmarkDistEval is the arithmetic of one probe: d_0.5 between a query
// and the §6.1 neighbours an AKNN visits, uncached.
func BenchmarkDistEval(b *testing.B) {
	q, objs := sec61Neighbours(rand.New(rand.NewPCG(25, 26)), 64)
	var e DistEval
	e.Reset(q, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distSink = e.dist(objs[i%len(objs)])
	}
}
