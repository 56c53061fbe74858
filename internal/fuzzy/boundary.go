package fuzzy

import (
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/hull"
)

// BoundaryApprox is the compact per-object summary stored in R-tree leaf
// entries (§3.2 of the paper): the support and kernel MBRs plus one optimal
// conservative line per dimension and side approximating the boundary
// function δ(α) = |M_A^i±(α) − M_A^i±(1)|. From it, an enclosing
// approximation M_A(α)* of the α-cut's MBR is derived for any α without
// touching the object's points (equation 2).
type BoundaryApprox struct {
	Support geom.Rect   // M_A(0)
	Kernel  geom.Rect   // M_A(1)
	HiLine  []hull.Line // per dimension: conservative approx of δ for the upper face
	LoLine  []hull.Line // per dimension: conservative approx of δ for the lower face
}

// NewBoundaryApprox builds the approximation from an object's exact
// per-level MBRs. Cost is O(|U_A| · d) plus the line fits.
func NewBoundaryApprox(o *Object) *BoundaryApprox {
	d := o.Dims()
	b := &BoundaryApprox{
		Support: o.SupportMBR().Clone(),
		Kernel:  o.KernelMBR().Clone(),
		HiLine:  make([]hull.Line, d),
		LoLine:  make([]hull.Line, d),
	}
	kern := o.KernelMBR()
	levels := o.Levels()
	for dim := 0; dim < d; dim++ {
		hiPts := make([]hull.Pt, 0, len(levels)+1)
		loPts := make([]hull.Pt, 0, len(levels)+1)
		// α = 0 anchors the boundary function at the support (the cut is
		// constant below the smallest level, so δ(0) = δ(minLevel)).
		for i, u := range levels {
			m := o.levelMBR(i)
			hiPts = append(hiPts, hull.Pt{X: u, Y: m.Hi[dim] - kern.Hi[dim]})
			loPts = append(loPts, hull.Pt{X: u, Y: kern.Lo[dim] - m.Lo[dim]})
			if i == 0 {
				hiPts = append(hiPts, hull.Pt{X: 0, Y: m.Hi[dim] - kern.Hi[dim]})
				loPts = append(loPts, hull.Pt{X: 0, Y: kern.Lo[dim] - m.Lo[dim]})
			}
		}
		b.HiLine[dim] = hull.OptimalConservativeLine(hiPts)
		b.LoLine[dim] = hull.OptimalConservativeLine(loPts)
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
// resulting rectangle, append-style, so per-visit estimates in the search
// hot path reuse one scratch rectangle instead of allocating. The result is
// backed by dst or fresh memory, never by b's own storage, and is only
// valid until the next call with the same dst.
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
