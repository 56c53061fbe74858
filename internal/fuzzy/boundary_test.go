package fuzzy

import (
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/geom"
)

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
			if !est.ContainsRect(o.KernelMBR()) {
				t.Fatalf("iter %d alpha %v: estimate %v does not contain kernel %v",
					iter, alpha, est, o.KernelMBR())
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
		if !est.Equal(o.KernelMBR()) {
			t.Fatalf("alpha %v: estimate %v, want kernel %v", alpha, est, o.KernelMBR())
		}
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
