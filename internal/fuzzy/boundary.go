package fuzzy

import (
	"math"

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
// against.
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
	var f lineFit
	for dim := 0; dim < d; dim++ {
		b.HiLine[dim], b.LoLine[dim] = f.fit(o, dim)
	}
	return b
}

// lineFit fits the two conservative lines of one dimension, keeping its
// sample buffer across dimensions.
type lineFit struct{ pts []hull.Pt }

// fit returns L_opt for the upper and the lower face of dimension dim.
func (f *lineFit) fit(o *Object, dim int) (hi, lo hull.Line) {
	kern := o.KernelMBR()
	levels := o.Levels()
	n := len(levels) + 1
	if cap(f.pts) < 2*n {
		f.pts = make([]hull.Pt, 2*n)
	}
	hiPts, loPts := f.pts[:0:n], f.pts[n:n:2*n]
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
	return hull.OptimalConservativeLine(hiPts), hull.OptimalConservativeLine(loPts)
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

// The flat summary.
//
// An R-tree leaf lays each entry's §3.2 summary out in its packed slab right
// after the entry's rectangle (rtree.Summarized), so a search computes every
// entry's bound from one contiguous stretch instead of chasing a summary
// value's slices. The support MBR is that rectangle, read as box: the lower
// corner, then the upper. The rest is the entry's summary, SummaryLen(d)
// floats in the order a page file's leaf record stores them after the
// support:
//
//	kernel lo (d) | kernel hi (d) | upper lines (m, t per dim) | lower lines (m, t per dim) | representative point (d)

// SummaryLen returns the number of floats of one flat summary at
// dimensionality d.
func SummaryLen(d int) int { return 7 * d }

// AppendSummary appends o's flat summary to dst: the kernel MBR, the line
// fit NewBoundaryApprox makes, and the representative point.
func AppendSummary(dst []float64, o *Object) []float64 {
	kern := o.KernelMBR()
	dst = append(dst, kern.Lo...)
	dst = append(dst, kern.Hi...)
	lines := len(dst)
	dst = append(dst, make([]float64, 4*o.dims)...)
	var f lineFit
	for dim := 0; dim < o.dims; dim++ {
		hi, lo := f.fit(o, dim)
		dst[lines+2*dim], dst[lines+2*dim+1] = hi.M, hi.T
		dst[lines+2*(o.dims+dim)], dst[lines+2*(o.dims+dim)+1] = lo.M, lo.T
	}
	return append(dst, o.point(o.repIndex())...)
}

// SummaryRep returns the representative kernel point of a flat summary.
func SummaryRep(sum []float64) geom.Point { return sum[6*(len(sum)/7):] }

// estimateFace returns dimension dim's faces of M_A(α)* from the support box
// and flat summary of A: EstimateMBRInto's operations, in its order, so the
// faces are bitwise the ones it writes.
func estimateFace(box, sum []float64, d, dim int, alpha float64) (l, h float64) {
	up, down := sum[2*d+2*dim:], sum[4*d+2*dim:]
	dh := hull.Line{M: up[0], T: up[1]}.Eval(alpha)
	if dh < 0 {
		dh = 0
	}
	dl := hull.Line{M: down[0], T: down[1]}.Eval(alpha)
	if dl < 0 {
		dl = 0
	}
	h = sum[d+dim] + dh
	if s := box[d+dim]; h > s {
		h = s
	}
	l = sum[dim] - dl
	if s := box[dim]; l < s {
		l = s
	}
	return l, h
}

// EstimateMinDist returns MinDist(M_A(α)*, r) from A's support box and flat
// summary without writing the estimate anywhere. It is bitwise
// geom.MinDist(b.EstimateMBR(α), r) for the BoundaryApprox b of the same
// object: the same faces, the same per-dimension gaps, summed in the same
// order. This is the §3.2 lower bound every search keys leaf entries by.
func EstimateMinDist(box, sum []float64, alpha float64, r geom.Rect) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	d := len(r.Lo)
	var s float64
	for dim := 0; dim < d; dim++ {
		l, h := estimateFace(box, sum, d, dim, alpha)
		var g float64
		switch {
		case l > r.Hi[dim]:
			g = l - r.Hi[dim]
		case r.Lo[dim] > h:
			g = r.Lo[dim] - h
		}
		s += g * g
	}
	return math.Sqrt(s)
}

// EstimateMaxDist is EstimateMinDist's twin for MaxDist(M_A(α)*, r), the
// §3.4 upper bound: bitwise geom.MaxDist(b.EstimateMBR(α), r).
func EstimateMaxDist(box, sum []float64, alpha float64, r geom.Rect) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	d := len(r.Lo)
	var s float64
	for dim := 0; dim < d; dim++ {
		l, h := estimateFace(box, sum, d, dim, alpha)
		g := math.Max(math.Abs(h-r.Lo[dim]), math.Abs(l-r.Hi[dim]))
		s += g * g
	}
	return math.Sqrt(s)
}

// EstimateInto writes M_A(α)* from A's support box and flat summary into
// dst, as EstimateMBRInto does (dst's corners are reused when they have
// capacity), for the one caller that must hold an estimate across a loop:
// the join, which compares two estimates.
func EstimateInto(box, sum []float64, alpha float64, dst geom.Rect) geom.Rect {
	d := len(box) / 2
	if cap(dst.Lo) < d {
		dst.Lo = make(geom.Point, d)
	}
	if cap(dst.Hi) < d {
		dst.Hi = make(geom.Point, d)
	}
	dst.Lo, dst.Hi = dst.Lo[:d], dst.Hi[:d]
	for dim := 0; dim < d; dim++ {
		dst.Lo[dim], dst.Hi[dim] = estimateFace(box, sum, d, dim, alpha)
	}
	return dst
}
