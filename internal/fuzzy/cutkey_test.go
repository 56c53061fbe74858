package fuzzy_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/oracle"
)

// TestCutKeyBracketsDistance holds DistEval.CutKey between the bound it
// refines and the distance it bounds, EstimateMinDist ≤ key ≤ d_α, and to
// its definition bit for bit (oracle.CutKey: max(coarse, √(min over q ∈ Q_α
// of the larger of q's squared gaps to M_A(α)* and to the disk))). The
// objects are the synthetic and cells shapes of §6.1 and random objects in
// one to three dimensions with few membership levels; the α values include
// exact levels of either object. The key must also come out above the
// coarse bound for some objects, and the disk must decide it for some, or
// neither refines anything.
func TestCutKeyBracketsDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(23003, 23004))
	type pair struct{ q, o *fuzzy.Object }
	var pairs []pair
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		p := dataset.Default(kind)
		p.N, p.PointsPerObject, p.Space, p.Seed = 120, 32, 5, 23005
		objs, err := dataset.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 4; qi++ {
			q, err := dataset.GenerateQuery(p, qi)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range objs {
				pairs = append(pairs, pair{q, o})
			}
		}
	}
	randObj := func(id uint64, dims int) *fuzzy.Object {
		wps := make([]fuzzy.WeightedPoint, 1+rng.IntN(30))
		for i := range wps {
			p := make(geom.Point, dims)
			for j := range p {
				p[j] = rng.Float64() * 6
			}
			wps[i] = fuzzy.WeightedPoint{P: p, Mu: float64(1+rng.IntN(4)) / 4}
		}
		wps[0].Mu = 1
		return fuzzy.MustNew(id, wps)
	}
	for dims := 1; dims <= 3; dims++ {
		for i := 0; i < 200; i++ {
			pairs = append(pairs, pair{randObj(0, dims), randObj(uint64(i+1), dims)})
		}
	}

	var e fuzzy.DistEval
	bits := math.Float64bits
	tighter, byDisk := 0, 0
	for _, pr := range pairs {
		box, sum := summary(pr.o)
		ol, ql := pr.o.AppendLevels(nil), pr.q.AppendLevels(nil)
		for _, alpha := range []float64{0.1, 0.5, 0.9, 1, ol[rng.IntN(len(ol))], ql[rng.IntN(len(ql))]} {
			e.Reset(pr.q, alpha)
			coarse := fuzzy.EstimateMinDist(box, sum, alpha, e.QueryMBR())
			key := e.CutKey(box, sum, coarse)
			d := e.Dist(pr.o)
			if !(coarse <= key && key <= d) {
				t.Fatalf("object %d, α = %v: EstimateMinDist %v, cut key %v, d_α %v", pr.o.ID(), alpha, coarse, key, d)
			}
			if want := oracle.CutKey(pr.q, alpha, box, sum, coarse); bits(key) != bits(want) {
				t.Fatalf("object %d, α = %v: cut key %v, definition %v", pr.o.ID(), alpha, key, want)
			}
			if key > coarse {
				tighter++
			}
			if key > oracle.CutKey(pr.q, alpha, box, sum[:fuzzy.WitnessSummaryLen(len(box)/2)], coarse) {
				byDisk++
			}
		}
	}
	t.Logf("%d pairs: the cut key beat EstimateMinDist %d times, the disk raised it %d times", len(pairs), tighter, byDisk)
	if tighter == 0 || byDisk == 0 {
		t.Error("the cut key never beat EstimateMinDist, or the disk never raised it")
	}
}

// TestCutKeyTouchingDisks is the rounding-adversarial bracket: ideal
// objects (dataset.Ideal), whose α-cuts are disks, far from the origin so
// that a coordinate's rounding dwarfs the gap, against one-point queries
// placed on the ray from the support box's centre c through the cut's
// farthest point a, at and a few ulps beyond it, and a relative 10⁻¹⁶ to
// 10⁻¹² beyond it. At every level the line touches, R̂(α) is |a − c| as
// the fit rounded it, so the disk gap without its margin would be a
// difference of two nearly equal roundings; with it, the key stays at or
// below Dist, bit for bit, and at its definition.
func TestCutKeyTouchingDisks(t *testing.T) {
	p := dataset.Default(dataset.Ideal)
	p.N, p.PointsPerObject, p.Space, p.Radius, p.Quantize, p.Seed = 40, 48, 1, 3, 6, 53001
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var e fuzzy.DistEval
	bits := math.Float64bits
	checked := 0
	for _, o := range objs {
		box, sum := summary(o)
		c := geom.Point{box[0]*0.5 + box[2]*0.5, box[1]*0.5 + box[3]*0.5}
		for _, alpha := range o.AppendLevels(nil) {
			far, farD := geom.Point(nil), -1.0
			for i := 0; i < o.CutSize(alpha); i++ {
				if a, _ := o.At(i); geom.Dist(a, c) > farD {
					far, farD = a, geom.Dist(a, c)
				}
			}
			dir := geom.Point{far[0] - c[0], far[1] - c[1]}
			var at []geom.Point
			for _, s := range []float64{0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12} {
				at = append(at, geom.Point{far[0] + dir[0]*s, far[1] + dir[1]*s})
			}
			for ulps := 1; ulps <= 4; ulps++ {
				q := far.Clone()
				for j := range q {
					for n := 0; n < ulps; n++ {
						q[j] = math.Nextafter(q[j], q[j]+dir[j])
					}
				}
				at = append(at, q)
			}
			for _, pt := range at {
				q := fuzzy.MustNew(0, []fuzzy.WeightedPoint{{P: pt, Mu: 1}})
				e.Reset(q, alpha)
				coarse := fuzzy.EstimateMinDist(box, sum, alpha, e.QueryMBR())
				key, d := e.CutKey(box, sum, coarse), e.Dist(o)
				if key > d {
					t.Fatalf("object %d α %v, query %v: cut key %v above d_α %v", o.ID(), alpha, pt, key, d)
				}
				if want := oracle.CutKey(q, alpha, box, sum, coarse); bits(key) != bits(want) {
					t.Fatalf("object %d α %v, query %v: cut key %v, definition %v", o.ID(), alpha, pt, key, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d touching queries", checked)
}

// TestRadialLineDominates: every point of A_α lies within R̂(α) of the
// support box's centre, with the distance rounded as the fit rounds it, at
// every level of the object, one ulp either side, halfway between levels
// and near α = 0 — on the synthetic and cells shapes of §6.1 and on random
// objects in one to three dimensions with few levels.
func TestRadialLineDominates(t *testing.T) {
	rng := rand.New(rand.NewPCG(53002, 53003))
	var objs []*fuzzy.Object
	for _, kind := range []dataset.Kind{dataset.Synthetic, dataset.Cells} {
		p := dataset.Default(kind)
		p.N, p.PointsPerObject, p.Space, p.Seed = 60, 64, 5, 53004
		gen, err := dataset.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, gen...)
	}
	for dims := 1; dims <= 3; dims++ {
		for i := 0; i < 100; i++ {
			wps := make([]fuzzy.WeightedPoint, 1+rng.IntN(30))
			for j := range wps {
				p := make(geom.Point, dims)
				for k := range p {
					p[k] = rng.Float64()*6 - 3
				}
				wps[j] = fuzzy.WeightedPoint{P: p, Mu: float64(1+rng.IntN(3)) / 3}
			}
			wps[0].Mu = 1
			objs = append(objs, fuzzy.MustNew(uint64(i), wps))
		}
	}
	for _, o := range objs {
		box, sum := summary(o)
		d := o.Dims()
		c := make(geom.Point, d)
		for k := range c {
			c[k] = float64(box[k]*0.5) + float64(box[d+k]*0.5)
		}
		levels := o.AppendLevels(nil)
		alphas := []float64{1e-300, 1e-9}
		for i, u := range levels {
			alphas = append(alphas, math.Nextafter(u, 0), u, math.Nextafter(u, 2))
			if i > 0 {
				alphas = append(alphas, (levels[i-1]+u)/2)
			}
		}
		for _, alpha := range alphas {
			if alpha > 1 {
				continue
			}
			r, ok := fuzzy.SummaryRadius(sum, d, alpha)
			if !ok {
				t.Fatalf("object %d: a summary of %d floats has no radial line", o.ID(), len(sum))
			}
			for i := 0; i < o.CutSize(alpha); i++ {
				if a, _ := o.At(i); math.Sqrt(geom.DistSq(a, c)) > r {
					t.Fatalf("object %d α %v: point %v lies %v from the centre %v, beyond R̂ = %v", o.ID(), alpha, a, geom.Dist(a, c), c, r)
				}
			}
		}
	}
}

// summary returns o's leaf row as the bounds read it: the support box flat
// (lo, then hi) and the flat summary.
func summary(o *fuzzy.Object) (box, sum []float64) {
	support, sum := fuzzy.Summarize(o)
	return append(append([]float64(nil), support.Lo...), support.Hi...), sum
}
