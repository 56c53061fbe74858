package fuzzy_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
)

// TestCutKeyBracketsDistance holds DistEval.CutKey between the bound it
// refines and the distance it bounds, EstimateMinDist ≤ key ≤ d_α, and to
// its definition bit for bit: max(coarse, √(min over q ∈ Q_α of
// MinDistPointSq(q, M_A(α)*))). The objects are the synthetic and cells
// shapes of §6.1 and random objects in one to three dimensions with few
// membership levels; the α values include exact levels of either object.
// The key must also come out above the coarse bound for some objects, or it
// refines nothing.
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
	tighter := 0
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
			est := fuzzy.EstimateInto(box, sum, alpha, geom.Rect{})
			gap := math.Inf(1)
			for i := 0; i < pr.q.CutSize(alpha); i++ {
				p, _ := pr.q.At(i)
				gap = min(gap, geom.MinDistPointSq(p, est))
			}
			if want := max(coarse, math.Sqrt(gap)); bits(key) != bits(want) {
				t.Fatalf("object %d, α = %v: cut key %v, definition %v", pr.o.ID(), alpha, key, want)
			}
			if key > coarse {
				tighter++
			}
		}
	}
	t.Logf("%d pairs: the cut key beat EstimateMinDist %d times", len(pairs), tighter)
	if tighter == 0 {
		t.Error("the cut key never beat EstimateMinDist")
	}
}

// summary returns o's leaf row as the bounds read it: the support box flat
// (lo, then hi) and the flat summary.
func summary(o *fuzzy.Object) (box, sum []float64) {
	support, sum := fuzzy.Summarize(o)
	return append(append([]float64(nil), support.Lo...), support.Hi...), sum
}
