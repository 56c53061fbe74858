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
// MBR gates in DistEval and kdtree.ClosestPairWithin may only skip work.
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

// TestDistEvalGateSkips keeps the gate from rotting into a no-op: on the
// pairs an AKNN actually evaluates, most points of the visited object lie
// beyond the running minimum from the query's MBR and never enter the tree.
func TestDistEvalGateSkips(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	q, objs := sec61Neighbours(rng, 200)
	var e DistEval
	e.Reset(q, 0.5)
	points := 0
	for _, o := range objs {
		e.Dist(o)
		points += o.CutSize(0.5)
	}
	if share := float64(e.gated) / float64(points); share <= 0.5 {
		t.Fatalf("gate skipped %d of %d points (%.0f%%), want > 50%%", e.gated, points, 100*share)
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
