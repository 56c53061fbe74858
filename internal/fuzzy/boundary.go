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
	pts    []hull.Pt   // the line fit's samples: one dimension's, both faces, or R's
	fitPts []hull.Pt   // the radial fit's subsample of R's samples
	centre []float64   // the support box's centre, R's origin
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
	hiPts[0] = hull.Pt{X: 0, Y: reach(kHi, t.boxes[d+dim])}
	loPts[0] = hull.Pt{X: 0, Y: reach(-kLo, -t.boxes[dim])}
	for i, u := range t.levels {
		box := t.boxes[2*i*d : 2*(i+1)*d]
		hiPts[i+1] = hull.Pt{X: u, Y: reach(kHi, box[d+dim])}
		loPts[i+1] = hull.Pt{X: u, Y: reach(-kLo, -box[dim])}
	}
	return t.fitter.Fit(hiPts), t.fitter.Fit(loPts)
}

// reach returns δ = f − k, raised an ulp at a time while k + δ rounds below
// f: a face estimated as kernel face + δ̂ with δ̂ ≥ δ then reaches the cut's
// face in floating point, not only in the reals. The lower face is the
// upper one of the negated coordinates.
func reach(k, f float64) float64 {
	if delta := f - k; k+delta >= f {
		return delta
	}
	return reachUp(k, f)
}

// reachUp is reach's rare path, out of line so reach inlines.
func reachUp(k, f float64) float64 {
	delta := f - k
	for k+delta < f {
		delta = math.Nextafter(delta, math.Inf(1))
	}
	return delta
}

// radialSamples is how many of R's level samples, besides the α = 0
// anchor, the radial line is fitted to at most.
const radialSamples = 16

// radial returns the radial line: a conservative line over R(α), the
// largest distance from the support box's centre to a point of A_α. R is
// sampled in one walk of o's points in descending membership, at every
// level, where the walk's running maximum closes, and at the α = 0 anchor,
// where it is the whole support's. The walk keeps the maximum squared,
// summed as geom.DistSq sums it, and takes a root only when it grew: the
// root is monotone, so that is the largest of the points' rounded
// distances. The line is L_opt of the anchor, every ⌈levels/16⌉-th level
// and the top one, lifted over every sample: a summary already fits 2·d
// face lines over every level, and one more full fit made it about a
// quarter dearer. An object of at most 16 levels gets L_opt of all of them.
func (t *levelTable) radial(o *Object) hull.Line {
	d, n := t.dims, len(t.levels)
	c := supportCentre(resize(t.centre, d), t.boxes[:d], t.boxes[d:2*d])
	t.centre = c
	pts := resize(t.pts, n+1)
	t.pts = pts
	var r, rSq float64
	k, grew := n, true
	for i, mu := range o.mus {
		var s float64
		for j, x := range o.coords[i*d : (i+1)*d] {
			g := x - c[j]
			s += float64(g * g)
		}
		if s > rSq {
			rSq, grew = s, true
		}
		if i+1 == len(o.mus) || o.mus[i+1] != mu {
			if grew {
				r, grew = math.Sqrt(rSq), false
			}
			pts[k] = hull.Pt{X: mu, Y: r}
			k--
		}
	}
	pts[0] = hull.Pt{X: 0, Y: r}
	step := (n + radialSamples - 1) / radialSamples
	sub := append(t.fitPts[:0], pts[0])
	for i := step; i < n; i += step {
		sub = append(sub, pts[i])
	}
	t.fitPts = append(sub, pts[n])
	return hull.Lift(t.fitter.Fit(t.fitPts), pts)
}

// supportCentre writes the centre of the box with corners lo and hi into
// dst and returns it. Halving each corner first keeps the sum finite for
// any finite box.
func supportCentre(dst, lo, hi []float64) []float64 {
	for k := range dst {
		dst[k] = float64(lo[k]*0.5) + float64(hi[k]*0.5)
	}
	return dst
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
//	kernel lo (d) | kernel hi (d) | upper lines (m, t per dim) | lower lines (m, t per dim) | representative point (d) | witness group | radial line (m, t)
//
// The witness group describes the first max(1, n/4) of the object's points
// in descending membership:
//
//	level μ_L (1) | per dim: the prefix's lowest point along it (d), then its highest (d)
//
// μ_L is the membership of the prefix's last point, so every point of the
// prefix lies in A_α for each α ≤ μ_L, and each witness is then a valid
// sample of Lemma 1 (§3.4): d_α(A, Q) ≤ |a − q| for a in A_α, q in Q_α. The
// representative kernel point lies in every cut but at the object's core;
// the witnesses sit on the sides of a cut, where a query lies.
//
// The radial line R̂(α) = m·α + t is a conservative line over R(α), the
// largest distance from the support box's centre c to a point of A_α,
// fitted like the face lines to a subsample of the levels and lifted to
// lie on or above every sample exactly (levelTable.radial). R is a step
// function, constant between levels, and the rounded line is monotone in
// α, so R̂(α) is at least the rounded |a − c| of every a in A_α for every α
// in (0, 1], not only at the levels: A_α lies in the disk of radius R̂(α)
// about c, which the row does not store because the support box fixes it.
// The cut key reads the disk beside M_A(α)* (DistEval.CutKey).

// RepSummaryLen returns the number of floats of a summary that ends at the
// representative point, with no witness group: the row a page file of
// manifest version 2 stores. Every function here reads such a row, and
// SummaryDescent finds no witness in it.
func RepSummaryLen(d int) int { return 7 * d }

// WitnessSummaryLen returns the number of floats of a summary that ends at
// the witness group, with no radial line: the row a page file of manifest
// version 3 stores. The cut key reads such a row by its box alone.
func WitnessSummaryLen(d int) int { return RepSummaryLen(d) + 1 + 2*d*d }

// SummaryLen returns the number of floats of one flat summary at
// dimensionality d.
func SummaryLen(d int) int { return WitnessSummaryLen(d) + 2 }

// AppendSummary appends o's flat summary to dst: the kernel MBR, the §3.2
// line fit per dimension and side, the representative point, the witness
// group and the radial line.
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
	dst = append(dst, o.point(o.repIndex())...)
	dst = o.appendWitnesses(dst, max(1, len(o.mus)/4))
	r := t.radial(o)
	return append(dst, r.M, r.T)
}

// appendWitnesses appends the witness group of o's first m points: the
// membership of the m-th, then per dimension the first of them lowest
// along it and the first highest.
func (o *Object) appendWitnesses(dst []float64, m int) []float64 {
	d := o.dims
	dst = append(dst, o.mus[m-1])
	for dim := 0; dim < d; dim++ {
		lo, hi := 0, 0
		for i := 1; i < m; i++ {
			if c := o.coords[i*d+dim]; c < o.coords[lo*d+dim] {
				lo = i
			} else if c > o.coords[hi*d+dim] {
				hi = i
			}
		}
		dst = append(dst, o.point(lo)...)
		dst = append(dst, o.point(hi)...)
	}
	return dst
}

// SummaryRep returns the representative kernel point of a flat summary at
// dimensionality d.
func SummaryRep(sum []float64, d int) geom.Point { return sum[6*d : 7*d : 7*d] }

// SummaryRadius returns R̂(α) of a flat summary at dimensionality d: every
// point of A_α lies within it of the support box's centre. ok is false for
// a summary with no radial line (a page file of manifest version 2 or 3).
func SummaryRadius(sum []float64, d int, alpha float64) (r float64, ok bool) {
	if w := WitnessSummaryLen(d); len(sum) >= w+2 {
		return hull.Line{M: sum[w], T: sum[w+1]}.Eval(alpha), true
	}
	return 0, false
}

// SummaryDescent returns the point a §3.4 descent toward M_Q(α) = r starts
// from, and its distance to r: of the representative point and, when the
// witness group's level is at least α, every witness, the one nearest r (the
// smallest squared gap, the first in row order on a tie). Every candidate is
// a point of A_α, so the distance from it to the nearest point of Q_α is an
// upper bound of d_α(A, Q), and no point of Q_α is nearer to it than r is.
// A summary of RepSummaryLen(d) floats answers its representative.
func SummaryDescent(sum []float64, d int, alpha float64, r geom.Rect) (p geom.Point, reach float64) {
	p = SummaryRep(sum, d)
	best := geom.MinDistPointSq(p, r)
	if g := RepSummaryLen(d); len(sum) > g && sum[g] >= alpha {
		for w := g + 1; w < WitnessSummaryLen(d); w += d {
			if gap := geom.MinDistPointSq(sum[w:w+d:w+d], r); gap < best {
				p, best = sum[w:w+d:w+d], gap
			}
		}
	}
	return p, math.Sqrt(best)
}

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
