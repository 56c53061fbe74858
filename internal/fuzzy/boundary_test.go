package fuzzy

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/hull"
)

// BoundaryApprox is the §3.2 summary of one object as its own value: the
// support and kernel MBRs plus one optimal conservative line per dimension
// and side approximating the boundary function
// δ(α) = |M_A^i±(α) − M_A^i±(1)|. From it, an enclosing approximation
// M_A(α)* of the α-cut's MBR is derived for any α without touching the
// object's points (equation 2).
//
// The index does not keep this form: R-tree leaves carry the same numbers
// flat (see AppendSummary). BoundaryApprox is the line fit's output in the
// shape the paper writes it, and the reference the flat form is tested
// against; only the tests build it.
type BoundaryApprox struct {
	Support geom.Rect   // M_A(0)
	Kernel  geom.Rect   // M_A(1)
	HiLine  []hull.Line // per dimension: conservative approx of δ for the upper face
	LoLine  []hull.Line // per dimension: conservative approx of δ for the lower face
}

// NewBoundaryApprox builds the approximation from an object's exact
// per-level MBRs. Cost is one walk of the points plus the line fits.
func NewBoundaryApprox(o *Object) *BoundaryApprox {
	t := getLevelTable(o)
	defer levelTables.Put(t)
	d := o.Dims()
	b := &BoundaryApprox{
		Support: t.box(0).Clone(),
		Kernel:  t.box(len(t.levels) - 1).Clone(),
		HiLine:  make([]hull.Line, d),
		LoLine:  make([]hull.Line, d),
	}
	for dim := 0; dim < d; dim++ {
		b.HiLine[dim], b.LoLine[dim] = t.fit(dim)
	}
	return b
}

// EstimateMBR returns M_A(α)*, a rectangle guaranteed to enclose the true
// M_A(α) (equation 2): each face sits at the kernel face pushed outward by
// the conservative line's estimate of δ(α), clipped to the support MBR.
func (b *BoundaryApprox) EstimateMBR(alpha float64) geom.Rect {
	return b.EstimateMBRInto(alpha, geom.Rect{})
}

// EstimateMBRInto is EstimateMBR writing into dst's corner slices when they
// have capacity (allocating fresh ones otherwise) and returning the
// resulting rectangle, append-style. The result is backed by dst or fresh
// memory, never by b's own storage, and is only valid until the next call
// with the same dst.
func (b *BoundaryApprox) EstimateMBRInto(alpha float64, dst geom.Rect) geom.Rect {
	d := len(b.HiLine)
	lo, hi := dst.Lo, dst.Hi
	if cap(lo) < d {
		lo = make(geom.Point, d)
	}
	if cap(hi) < d {
		hi = make(geom.Point, d)
	}
	lo, hi = lo[:d], hi[:d]
	for dim := 0; dim < d; dim++ {
		dh := b.HiLine[dim].Eval(alpha)
		if dh < 0 {
			dh = 0
		}
		dl := b.LoLine[dim].Eval(alpha)
		if dl < 0 {
			dl = 0
		}
		h := b.Kernel.Hi[dim] + dh
		if s := b.Support.Hi[dim]; h > s {
			h = s
		}
		l := b.Kernel.Lo[dim] - dl
		if s := b.Support.Lo[dim]; l < s {
			l = s
		}
		hi[dim] = h
		lo[dim] = l
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// TestEstimateMBREnclosesExact is the package's central safety property
// (no-false-dismissal, §3.2): for every α, M_A(α)* must enclose the exact
// M_A(α) and stay within the support MBR.
func TestEstimateMBREnclosesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 200))
	for iter := 0; iter < 40; iter++ {
		dims := 1 + rng.IntN(3)
		o := randObject(rng, uint64(iter), 5+rng.IntN(200), dims, 16*(iter%2)) // mixed quantized/continuous
		b := NewBoundaryApprox(o)
		for alpha := 0.0; alpha <= 1.0; alpha += 0.01 {
			est := b.EstimateMBR(alpha)
			exact := o.MBR(alpha)
			if exact.IsEmpty() {
				continue
			}
			if !est.ContainsRect(exact) {
				t.Fatalf("iter %d alpha %v: estimate %v does not contain exact %v",
					iter, alpha, est, exact)
			}
			if !o.SupportMBR().ContainsRect(est) {
				t.Fatalf("iter %d alpha %v: estimate %v escapes support %v",
					iter, alpha, est, o.SupportMBR())
			}
			if !est.ContainsRect(o.MBR(1)) {
				t.Fatalf("iter %d alpha %v: estimate %v does not contain kernel %v",
					iter, alpha, est, o.MBR(1))
			}
		}
	}
}

func TestEstimateTighterThanSupportForHighAlpha(t *testing.T) {
	// For an object whose cuts genuinely shrink, the estimate at α = 1 must
	// be strictly smaller than the support MBR (that is the whole point of
	// the LB optimization).
	rng := rand.New(rand.NewPCG(5, 6))
	improvements := 0
	for iter := 0; iter < 20; iter++ {
		o := randObject(rng, uint64(iter), 200, 2, 0)
		b := NewBoundaryApprox(o)
		est := b.EstimateMBR(1.0)
		if est.Area() < o.SupportMBR().Area() {
			improvements++
		}
	}
	if improvements < 15 {
		t.Fatalf("estimate at alpha=1 rarely tighter than support: %d/20", improvements)
	}
}

func TestBoundaryApproxSingleLevelObject(t *testing.T) {
	// All points in the kernel: boundary function is identically zero and
	// the estimate collapses to the kernel MBR at every α.
	pts := []WeightedPoint{}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 20; i++ {
		pts = append(pts, WeightedPoint{
			P:  []float64{rng.Float64(), rng.Float64()},
			Mu: 1,
		})
	}
	o := MustNew(1, pts)
	b := NewBoundaryApprox(o)
	for _, alpha := range []float64{0, 0.3, 0.7, 1} {
		est := b.EstimateMBR(alpha)
		if !est.Equal(o.MBR(1)) {
			t.Fatalf("alpha %v: estimate %v, want kernel %v", alpha, est, o.MBR(1))
		}
	}
}

// TestFlatSummaryMatchesBoundaryApprox holds the flat summary the R-tree
// leaves carry to the BoundaryApprox reference: the layout field for field,
// and the three estimates bit for bit — at α = 1, on exact levels, just above
// a level and between levels, against boxes that overlap, touch and lie far
// from the object.
func TestFlatSummaryMatchesBoundaryApprox(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for iter := 0; iter < 60; iter++ {
		dims := 1 + rng.IntN(3)
		o := randObject(rng, uint64(iter), 1+rng.IntN(120), dims, 16*(iter%2))
		b := NewBoundaryApprox(o)
		sum := AppendSummary(nil, o)
		box := append(slices.Clone(o.SupportMBR().Lo), o.SupportMBR().Hi...)

		var want []float64
		want = append(want, b.Kernel.Lo...)
		want = append(want, b.Kernel.Hi...)
		for _, ls := range [][]hull.Line{b.HiLine, b.LoLine} {
			for _, l := range ls {
				want = append(want, l.M, l.T)
			}
		}
		want = append(want, o.Rep()...)
		if len(sum) != SummaryLen(dims) || !slices.Equal(sum, want) {
			t.Fatalf("iter %d: flat summary %v, want %v", iter, sum, want)
		}
		if !SummaryRep(sum).Equal(o.Rep()) {
			t.Fatalf("iter %d: SummaryRep %v, want %v", iter, SummaryRep(sum), o.Rep())
		}

		levels := o.Levels()
		alphas := []float64{1, 0.5, 1e-9, levels[0], math.Nextafter(levels[0], 2),
			levels[len(levels)/2], math.Nextafter(levels[len(levels)/2], 2)}
		for _, alpha := range alphas {
			ref := b.EstimateMBR(alpha)
			if got := EstimateInto(box, sum, alpha, geom.Rect{}); !got.Equal(ref) {
				t.Fatalf("iter %d α %v: EstimateInto %v, want %v", iter, alpha, got, ref)
			}
			for trial := 0; trial < 8; trial++ {
				r := ref.Clone() // trial 0: the estimate itself
				switch {
				case trial == 1: // touching on one face
					r = geom.RectFromPoint(ref.Hi)
				case trial > 1: // overlapping or apart, at random
					r = geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
					for i := range r.Lo {
						r.Lo[i] = ref.Lo[i] + (rng.Float64()*6-3)*(1+ref.Hi[i]-ref.Lo[i])
						r.Hi[i] = r.Lo[i] + rng.Float64()
					}
				}
				if got, ref := EstimateMinDist(box, sum, alpha, r), geom.MinDist(ref, r); bits(got) != bits(ref) {
					t.Fatalf("iter %d α %v: EstimateMinDist %v, want %v", iter, alpha, got, ref)
				}
				if got, ref := EstimateMaxDist(box, sum, alpha, r), geom.MaxDist(ref, r); bits(got) != bits(ref) {
					t.Fatalf("iter %d α %v: EstimateMaxDist %v, want %v", iter, alpha, got, ref)
				}
			}
		}
	}
}

// TestSummaryLinesDominateSamples: every served §3.2 line lies on or above
// every sample of its boundary function, exactly — the lift leaves no sample
// an ulp above the line, on §6.1-shaped objects and on random ones.
func TestSummaryLinesDominateSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	lt := new(levelTable)
	for iter := 0; iter < 400; iter++ {
		var o *Object
		if iter%2 == 0 {
			o = sec61Object(rng, uint64(iter), 100*rng.Float64()-50, 50, 2+rng.IntN(127))
		} else {
			o = randObject(rng, uint64(iter), 1+rng.IntN(120), 1+rng.IntN(3), 16*(iter%4/2))
		}
		lt.build(o)
		for dim := 0; dim < o.Dims(); dim++ {
			hi, lo := lt.fit(dim)
			n := len(lt.levels) + 1
			for face, l := range []hull.Line{hi, lo} {
				for _, p := range lt.pts[face*n : (face+1)*n] {
					if p.Y > l.Eval(p.X) {
						t.Fatalf("iter %d dim %d face %d: line %+v below sample %v", iter, dim, face, l, p)
					}
				}
			}
		}
	}
}

// summarize128 is an index build's unit of work: one §6.1 object of 128
// points and a buffer its flat summary has already been appended to once.
func summarize128() (*Object, []float64) {
	o := sec61Object(rand.New(rand.NewPCG(128, 1)), 1, 50, 50, 128)
	return o, AppendSummary(nil, o)
}

// TestAppendSummaryAllocs: summarising an object into a reused buffer from a
// warm pool — the level table and its line fits — allocates nothing.
func TestAppendSummaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race (sync.Pool reuse is randomized)")
	}
	o, buf := summarize128()
	if allocs := testing.AllocsPerRun(50, func() { buf = AppendSummary(buf[:0], o) }); allocs != 0 {
		t.Errorf("AppendSummary allocates %.1f times per object", allocs)
	}
}

// BenchmarkSummarize128 times what every index build does once per object:
// AppendSummary of a 128-point §6.1 object, one level table and four line
// fits.
func BenchmarkSummarize128(b *testing.B) {
	o, buf := summarize128()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSummary(buf[:0], o)
	}
}

// TestEstimateMBRIntoNeverAliasesEstimatorState pins the EstimateMBRInto
// contract: the returned rectangle must be backed by dst (or fresh memory),
// never by the summary's own storage — callers hold the result in pooled
// scratch and later pass it back as a writable dst, so an aliasing return
// would let one index's estimates corrupt another's shared rectangles.
func TestEstimateMBRIntoNeverAliasesEstimatorState(t *testing.T) {
	o := MustNew(1, []WeightedPoint{
		{P: geom.Point{0, 0}, Mu: 1},
		{P: geom.Point{2, 1}, Mu: 0.6},
		{P: geom.Point{4, 3}, Mu: 0.3},
	})
	est := NewBoundaryApprox(o)
	before := est.EstimateMBR(0.5).Clone()
	var dst geom.Rect
	dst = est.EstimateMBRInto(0.5, dst)
	if !dst.Equal(before) {
		t.Fatalf("EstimateMBRInto = %v, want %v", dst, before)
	}
	// Scribble over the returned rectangle as a reused scratch buffer
	// would; the summary's own answer must be unaffected.
	for i := range dst.Lo {
		dst.Lo[i] = -1e9
		dst.Hi[i] = 1e9
	}
	if after := est.EstimateMBR(0.5); !after.Equal(before) {
		t.Fatalf("summary state mutated through EstimateMBRInto result: %v -> %v", before, after)
	}
}
