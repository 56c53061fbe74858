package dataset

import (
	"math"
	"testing"

	"fuzzyknn/internal/geom"
)

func smallParams(kind Kind) Params {
	p := Default(kind)
	p.N = 20
	p.PointsPerObject = 64
	p.Seed = 7
	return p
}

func TestValidate(t *testing.T) {
	if err := (Params{Kind: "nope", N: 1, PointsPerObject: 1, Space: 1, Radius: 1}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	p := Default(Synthetic)
	p.PointsPerObject = 0
	if err := p.Validate(); err == nil {
		t.Error("zero points accepted")
	}
	p = Default(Synthetic)
	p.Sigma = 0
	if err := p.Validate(); err == nil {
		t.Error("zero sigma accepted")
	}
	if err := Default(Cells).Validate(); err != nil {
		t.Errorf("cells default invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range []Kind{Synthetic, Cells, Ideal} {
		p := smallParams(kind)
		a, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != p.N || len(b) != p.N {
			t.Fatalf("%s: generated %d/%d objects", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Len() != b[i].Len() {
				t.Fatalf("%s: nondeterministic object %d", kind, i)
			}
			for j := 0; j < a[i].Len(); j++ {
				pa, ma := a[i].At(j)
				pb, mb := b[i].At(j)
				if !pa.Equal(pb) || ma != mb {
					t.Fatalf("%s: nondeterministic point %d/%d", kind, i, j)
				}
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	p := smallParams(Synthetic)
	a, _ := Generate(p)
	p.Seed = 8
	b, _ := Generate(p)
	pa, _ := a[0].At(0)
	pb, _ := b[0].At(0)
	if pa.Equal(pb) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestObjectsWithinSpaceAndValid(t *testing.T) {
	for _, kind := range []Kind{Synthetic, Cells, Ideal} {
		p := smallParams(kind)
		objs, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		slack := p.Radius * 1.5
		bounds := geom.NewRect(
			geom.Point{-slack, -slack},
			geom.Point{p.Space + slack, p.Space + slack},
		)
		for _, o := range objs {
			if o.Dims() != 2 {
				t.Fatalf("%s: dims %d", kind, o.Dims())
			}
			if o.CutSize(1) == 0 {
				t.Fatalf("%s: empty kernel", kind)
			}
			if !bounds.ContainsRect(o.SupportMBR()) {
				t.Fatalf("%s: object escapes space: %v", kind, o.SupportMBR())
			}
			// Support diameter is bounded by the object footprint.
			mbr := o.SupportMBR()
			for d := 0; d < 2; d++ {
				if mbr.Hi[d]-mbr.Lo[d] > 2*p.Radius+1e-9 {
					t.Fatalf("%s: object wider than 2R: %v", kind, mbr)
				}
			}
		}
	}
}

func TestSyntheticMembershipDecaysFromCenter(t *testing.T) {
	p := smallParams(Synthetic)
	p.PointsPerObject = 500
	objs, _ := Generate(p)
	o := objs[0]
	c := o.SupportMBR().Center()
	// Correlation between distance-to-center and membership must be
	// strongly negative for a Gaussian membership surface.
	var sumD, sumM, sumDD, sumMM, sumDM float64
	n := float64(o.Len())
	for i := 0; i < o.Len(); i++ {
		pt, mu := o.At(i)
		d := geom.Dist(pt, c)
		sumD += d
		sumM += mu
		sumDD += d * d
		sumMM += mu * mu
		sumDM += d * mu
	}
	cov := sumDM/n - sumD/n*sumM/n
	sd := math.Sqrt(sumDD/n - sumD/n*sumD/n)
	sm := math.Sqrt(sumMM/n - sumM/n*sumM/n)
	if corr := cov / (sd * sm); corr > -0.8 {
		t.Fatalf("distance-membership correlation = %v, want strongly negative", corr)
	}
}

func TestSyntheticQuantization(t *testing.T) {
	p := smallParams(Synthetic)
	p.Quantize = 16
	objs, _ := Generate(p)
	for _, o := range objs {
		if n := len(o.AppendLevels(nil)); n > 16 {
			t.Fatalf("levels = %d, want <= 16", n)
		}
	}
}

func TestIdealCutRadiusMatchesFormula(t *testing.T) {
	p := smallParams(Ideal)
	p.PointsPerObject = 2000
	objs, _ := Generate(p)
	o := objs[0]
	c, _ := o.At(0) // genIdeal pins a kernel point at the exact center
	for _, alpha := range []float64{0.2, 0.5, 0.8} {
		want := RadiusAt(p.Radius, alpha)
		maxR := 0.0
		for i := 0; i < o.CutSize(alpha); i++ {
			pt, _ := o.At(i)
			if d := geom.Dist(pt, c); d > maxR {
				maxR = d
			}
		}
		// The sampled max radius approaches R(α) from below.
		if maxR > want+1e-6 {
			t.Fatalf("alpha %v: cut radius %v exceeds R(α)=%v", alpha, maxR, want)
		}
		if maxR < want*0.7 {
			t.Fatalf("alpha %v: cut radius %v far below R(α)=%v (bad sampling)", alpha, maxR, want)
		}
	}
}

func TestCellsLookLikeMasks(t *testing.T) {
	p := smallParams(Cells)
	p.PointsPerObject = 400
	objs, _ := Generate(p)
	for _, o := range objs {
		// Quantized to the 1/255 lattice after max-normalization is not
		// guaranteed, but the level count must stay far below the point
		// count (unlike the continuous synthetic data).
		if n := len(o.AppendLevels(nil)); n > 256 {
			t.Fatalf("cell object has %d levels", n)
		}
		if o.Len() < 32 {
			t.Fatalf("cell object only has %d points", o.Len())
		}
	}
}

func TestGenerateQuery(t *testing.T) {
	p := smallParams(Synthetic)
	q1, err := GenerateQuery(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := GenerateQuery(p, 0)
	pa, _ := q1.At(0)
	pb, _ := q2.At(0)
	if !pa.Equal(pb) {
		t.Fatal("query generation not deterministic")
	}
	q3, _ := GenerateQuery(p, 1)
	pc, _ := q3.At(0)
	if pa.Equal(pc) {
		t.Fatal("different query indices should differ")
	}
	if q1.CutSize(1) == 0 {
		t.Fatal("query kernel empty")
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	p := smallParams(Synthetic)
	p.Kind = "bogus"
	if _, err := Generate(p); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := GenerateQuery(p, 0); err == nil {
		t.Fatal("invalid query params accepted")
	}
}
