package fuzzy

import (
	"math"
	"sync"

	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/hull"
)

// levelTable is what the §3.2 line fit reads of one object: the distinct
// levels and the exact MBR of every level's cut, plus the fit's own working
// storage. No search reads it, so no object keeps it: a summary builds it in
// one walk of the points into a pooled table and gives it back, so for a
// caller summarising many objects (an index build) it is scratch rather
// than garbage, and a warm pool allocates nothing for it.
type levelTable struct {
	dims   int
	levels []float64   // distinct membership values U_A, ascending (last is 1)
	boxes  []float64   // level i: lo corner at [2*i*dims:], hi corner dims later
	pts    []hull.Pt   // the line fit's samples of one dimension, both faces
	fitter hull.Fitter // the line fit's hull
}

var levelTables = sync.Pool{New: func() any { return new(levelTable) }}

// getLevelTable takes a table from the pool and builds o's into it; the
// caller puts it back.
func getLevelTable(o *Object) *levelTable {
	t := levelTables.Get().(*levelTable)
	t.build(o)
	return t
}

// build derives the levels and their cut MBRs in one pass in descending
// membership: the running MBR is kept in the slot of the level being filled
// (levels ascend, so slots fill from the back) and seeds the next lower
// level's slot when a level closes.
func (t *levelTable) build(o *Object) {
	n, dims, mus := len(o.mus), o.dims, o.mus
	nLevels := countLevels(mus, nil)
	t.dims = dims
	t.levels = resize(t.levels, nLevels)
	t.boxes = resize(t.boxes, nLevels*2*dims)
	k := nLevels - 1
	lo, hi := t.boxes[2*k*dims:(2*k+1)*dims], t.boxes[(2*k+1)*dims:]
	for i := 0; i < n; i++ {
		for j, c := range o.coords[i*dims : (i+1)*dims] {
			if i == 0 || c < lo[j] {
				lo[j] = c
			}
			if i == 0 || c > hi[j] {
				hi[j] = c
			}
		}
		if i+1 == n || mus[i+1] != mus[i] {
			t.levels[k] = mus[i]
			if k--; k >= 0 {
				next := t.boxes[2*k*dims : 2*(k+1)*dims]
				copy(next, t.boxes[2*(k+1)*dims:2*(k+2)*dims])
				lo, hi = next[:dims], next[dims:]
			}
		}
	}
}

// resize returns s with length n, reusing its array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// box returns the exact MBR of the cut at level i, viewing the table.
func (t *levelTable) box(i int) geom.Rect {
	d := t.dims
	s := t.boxes[2*i*d : 2*(i+1)*d : 2*(i+1)*d]
	return geom.Rect{Lo: s[:d:d], Hi: s[d:]}
}

// fit returns L_opt for the upper and the lower face of dimension dim.
func (t *levelTable) fit(dim int) (hi, lo hull.Line) {
	d, n := t.dims, len(t.levels)+1
	kern := t.box(len(t.levels) - 1)
	kLo, kHi := kern.Lo[dim], kern.Hi[dim]
	t.pts = resize(t.pts, 2*n)
	hiPts, loPts := t.pts[:n], t.pts[n:2*n]
	// α = 0 anchors the boundary function at the support (the cut is
	// constant below the smallest level, so δ(0) = δ(minLevel)); it comes
	// first, so the samples ascend in α as the fit requires.
	hiPts[0] = hull.Pt{X: 0, Y: t.boxes[d+dim] - kHi}
	loPts[0] = hull.Pt{X: 0, Y: kLo - t.boxes[dim]}
	for i, u := range t.levels {
		box := t.boxes[2*i*d : 2*(i+1)*d]
		hiPts[i+1] = hull.Pt{X: u, Y: box[d+dim] - kHi}
		loPts[i+1] = hull.Pt{X: u, Y: kLo - box[dim]}
	}
	return t.fitter.Fit(hiPts), t.fitter.Fit(loPts)
}

// The flat summary.
//
// An R-tree leaf row is an entry's rectangle followed by its §3.2 summary,
// so a search computes every entry's bound from one contiguous stretch of
// the leaf's slab. The support MBR is that rectangle, read as box: the
// lower corner, then the upper. The rest is the entry's summary,
// SummaryLen(d) floats in the order a page file's leaf record stores them
// after the support:
//
//	kernel lo (d) | kernel hi (d) | upper lines (m, t per dim) | lower lines (m, t per dim) | representative point (d)

// SummaryLen returns the number of floats of one flat summary at
// dimensionality d.
func SummaryLen(d int) int { return 7 * d }

// AppendSummary appends o's flat summary to dst: the kernel MBR, the §3.2
// line fit per dimension and side, and the representative point.
func AppendSummary(dst []float64, o *Object) []float64 {
	t := getLevelTable(o)
	defer levelTables.Put(t)
	return t.appendSummary(dst, o)
}

// Summarize returns what an R-tree leaf row holds of o — its support MBR,
// then its flat summary — from one walk of its points, as views of one
// fresh buffer of 2·d + SummaryLen(d) floats.
func Summarize(o *Object) (support geom.Rect, sum []float64) {
	t := getLevelTable(o)
	defer levelTables.Put(t)
	d := o.dims
	row := make([]float64, 2*d, 2*d+SummaryLen(d))
	copy(row, t.boxes[:2*d]) // level 0, the support: lo, then hi
	return geom.Rect{Lo: row[:d:d], Hi: row[d : 2*d : 2*d]}, t.appendSummary(row[2*d:], o)
}

// appendSummary appends the flat summary of o, whose table t is.
func (t *levelTable) appendSummary(dst []float64, o *Object) []float64 {
	kern := t.box(len(t.levels) - 1)
	dst = append(dst, kern.Lo...)
	dst = append(dst, kern.Hi...)
	lines := len(dst)
	dst = append(dst, make([]float64, 4*o.dims)...)
	for dim := 0; dim < o.dims; dim++ {
		hi, lo := t.fit(dim)
		dst[lines+2*dim], dst[lines+2*dim+1] = hi.M, hi.T
		dst[lines+2*(o.dims+dim)], dst[lines+2*(o.dims+dim)+1] = lo.M, lo.T
	}
	return append(dst, o.point(o.repIndex())...)
}

// SummaryRep returns the representative kernel point of a flat summary.
func SummaryRep(sum []float64) geom.Point { return sum[6*(len(sum)/7):] }

// estimateFace returns dimension dim's faces of M_A(α)* from the support box
// and flat summary of A (equation 2): each face sits at the kernel face
// pushed outward by the conservative line's estimate of δ(α), clipped to the
// support MBR, so M_A(α)* encloses the true M_A(α).
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
// geom.MinDist(EstimateInto(box, sum, α, ·), r): the same faces, the same
// per-dimension gaps, summed in the same order. This is the §3.2 lower
// bound every search keys leaf entries by.
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
// §3.4 upper bound: bitwise geom.MaxDist(EstimateInto(box, sum, α, ·), r).
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
// dst (dst's corners are reused when they have capacity, else allocated)
// and returns it, for the one caller that must hold an estimate across a
// loop: the join, which compares two estimates.
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
