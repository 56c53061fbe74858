// Package kdtree implements a static k-d tree over d-dimensional points.
//
// Point sets are passed and stored flat: one coordinate slab in which point
// i occupies coords[i*dims:(i+1)*dims]. That is how fuzzy objects hold their
// points, so a tree is built from an α-cut without materializing a point
// slice, and a visited node costs one load instead of a slice header and
// then its coordinates.
//
// The tree is the computational workhorse behind α-distance evaluation: the
// bichromatic closest pair (BCP) between two α-cuts is computed by building a
// tree over one cut and running pruned nearest-neighbor queries for the
// points of the other cut (ClosestSq). The query nearest the tree's box goes
// first, so the best-so-far bound that prunes every later query is tight
// from the start.
//
// PrefixTree adds the query whole distance profiles need — the nearest
// neighbour among the first m points of the input — as an annotation beside
// the tree, so that plain trees neither carry nor compute it.
package kdtree

import (
	"fmt"
	"math"

	"fuzzyknn/internal/geom"
)

// Tree is an immutable k-d tree. The zero value is an empty tree.
type Tree struct {
	coords []float64 // points in tree order (median layout), dims apiece
	idx    []int     // original index of each point in the input slab
	dims   int
}

// Build constructs a tree over the len(coords)/dims points of coords. The
// input is not modified; the original index of each point is preserved and
// reported by queries. Building an empty tree is allowed.
func Build(coords []float64, dims int) *Tree {
	t := &Tree{}
	t.Rebuild(coords, dims)
	return t
}

// Rebuild reconstructs the tree over coords in place, reusing the tree's
// internal buffers when they have capacity. It produces exactly the same
// layout as Build over the same input and exists so hot paths can evaluate
// many closest-pair queries without allocating a fresh tree per evaluation
// (see fuzzy.DistEval). The input is not modified.
func (t *Tree) Rebuild(coords []float64, dims int) {
	if len(coords) == 0 {
		t.coords = t.coords[:0]
		t.idx = t.idx[:0]
		t.dims = 0
		return
	}
	if dims < 1 || len(coords)%dims != 0 {
		panic(fmt.Sprintf("kdtree: %d coordinates do not make points of %d dims", len(coords), dims))
	}
	n := len(coords) / dims
	t.dims = dims
	t.coords = append(t.coords[:0], coords...)
	if cap(t.idx) < n {
		t.idx = make([]int, n)
	}
	t.idx = t.idx[:n]
	for i := range t.idx {
		t.idx[i] = i
	}
	t.build(0, n, 0)
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return len(t.idx) }

// at returns the axis coordinate of the point at tree position i.
func (t *Tree) at(i, axis int) float64 { return t.coords[i*t.dims+axis] }

// build recursively arranges points [lo, hi) so the median along axis sits
// at the midpoint, with smaller coordinates on the left.
func (t *Tree) build(lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	t.selectMedian(lo, hi, mid, axis)
	next := (axis + 1) % t.dims
	t.build(lo, mid, next)
	t.build(mid+1, hi, next)
}

// selectMedian partially sorts points [lo, hi) so the element at position
// mid is the one that would be there in full sorted order along axis
// (quickselect with a sort fallback for small ranges).
func (t *Tree) selectMedian(lo, hi, mid, axis int) {
	for hi-lo > 16 {
		// Median-of-three pivot.
		pa, pb, pc := t.at(lo, axis), t.at((lo+hi)/2, axis), t.at(hi-1, axis)
		var pivot float64
		switch {
		case (pa <= pb && pb <= pc) || (pc <= pb && pb <= pa):
			pivot = pb
		case (pb <= pa && pa <= pc) || (pc <= pa && pa <= pb):
			pivot = pa
		default:
			pivot = pc
		}
		i, j := lo, hi-1
		for i <= j {
			for t.at(i, axis) < pivot {
				i++
			}
			for t.at(j, axis) > pivot {
				j--
			}
			if i <= j {
				t.swap(i, j)
				i++
				j--
			}
		}
		switch {
		case mid <= j:
			hi = j + 1
		case mid >= i:
			lo = i
		default:
			return
		}
	}
	// Insertion sort on the small remainder. A sort.Sort fallback would box
	// its sort.Interface argument and allocate on every (re)build, which the
	// zero-allocation hot path cannot afford.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && t.at(j, axis) < t.at(j-1, axis); j-- {
			t.swap(j, j-1)
		}
	}
}

func (t *Tree) swap(i, j int) {
	d := t.dims
	a, b := t.coords[i*d:(i+1)*d], t.coords[j*d:(j+1)*d]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

// distSq is geom.DistSq(q, p) for a p already known to be as long as q — the
// same differences, each square rounded before it is added, summed in the
// same order — so distances through the tree are bit-identical to a
// brute-force scan's. It exists because DistSq's length check keeps it out
// of line, which costs the descent about 15%.
func distSq(q geom.Point, p []float64) float64 {
	var s float64
	for k, c := range p {
		d := q[k] - c
		s += float64(d * d)
	}
	return s
}

// gapSq is geom.MinDistPointSq(q, box) for the box with corners lo and hi,
// of q's length, written so it inlines for the reason distSq is: the same
// gaps, each square rounded before it is added, summed in the same order.
func gapSq(q, lo, hi []float64) float64 {
	var s float64
	for k, c := range q {
		var l float64
		switch {
		case c < lo[k]:
			l = lo[k] - c
		case c > hi[k]:
			l = c - hi[k]
		}
		s += float64(l * l)
	}
	return s
}

// checkDims panics when q cannot be compared with the tree's points.
func (t *Tree) checkDims(q geom.Point) {
	if len(q) != t.dims {
		panic(fmt.Sprintf("kdtree: dimension mismatch %d vs %d", len(q), t.dims))
	}
}

// Nearest returns the index (into the Build input) and distance of the
// point nearest to q. It returns (-1, +Inf) on an empty tree.
func (t *Tree) Nearest(q geom.Point) (int, float64) {
	return t.NearestWithin(q, math.Inf(1))
}

// NearestWithin returns the nearest point to q whose distance is strictly
// less than bound. It returns (-1, +Inf) if no point qualifies. Supplying a
// finite bound prunes the search and is the key to fast bichromatic
// closest-pair computation: the running best pair distance is passed as the
// bound for each successive query.
func (t *Tree) NearestWithin(q geom.Point, bound float64) (int, float64) {
	if len(t.idx) == 0 {
		return -1, math.Inf(1)
	}
	t.checkDims(q)
	boundSq := bound * bound
	if math.IsInf(bound, 1) {
		boundSq = math.Inf(1)
	}
	i, dSq := t.nearestSq(q, boundSq)
	if i < 0 {
		return -1, math.Inf(1)
	}
	return i, math.Sqrt(dSq)
}

// nearestSq is NearestWithin on squared distances, for a non-empty tree and
// a q of the tree's dimensionality: the nearest point whose squared distance
// is strictly below boundSq, or (-1, boundSq).
func (t *Tree) nearestSq(q geom.Point, boundSq float64) (int, float64) {
	bestIdx := -1
	t.search(q, 0, len(t.idx), 0, &bestIdx, &boundSq)
	return bestIdx, boundSq
}

func (t *Tree) search(q geom.Point, lo, hi, axis int, bestIdx *int, bestSq *float64) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	p := t.coords[mid*len(q):][:len(q)]
	if d := distSq(q, p); d < *bestSq {
		*bestSq = d
		*bestIdx = t.idx[mid]
	}
	diff := q[axis] - p[axis]
	next := axis + 1
	if next == len(q) {
		next = 0
	}
	// Descend into the near side first, then the far side only if the
	// splitting plane is closer than the best distance found so far.
	if diff < 0 {
		t.search(q, lo, mid, next, bestIdx, bestSq)
		if diff*diff < *bestSq {
			t.search(q, mid+1, hi, next, bestIdx, bestSq)
		}
	} else {
		t.search(q, mid+1, hi, next, bestIdx, bestSq)
		if diff*diff < *bestSq {
			t.search(q, lo, mid, next, bestIdx, bestSq)
		}
	}
}

// Disk is a ball a cut gap can be read against beside a box: centre C,
// radius R, and a point p's gap to it (√|p − C|² · Scale − R)₊, where
// |p − C|² is summed as distSq sums it and capped at math.MaxFloat64 (an
// overflowed square reads as that cap rather than +Inf). Scale < 1 is the
// caller's margin for the rounding of the root and of the caller's own
// radius; the walk treats the gap as given. The zero value, with C nil, is
// no disk.
type Disk struct {
	C        []float64
	Scale, R float64
}

// gapSq returns the squared gap of a point whose squared distance to d.C is
// rhoSq, 0 when the point lies within the disk. It never decreases as rhoSq
// grows: every step is a monotone rounding.
func (d *Disk) gapSq(rhoSq float64) float64 {
	if g := float64(math.Sqrt(min(rhoSq, math.MaxFloat64))*d.Scale) - d.R; g > 0 {
		return g * g
	}
	return 0
}

// BoxGapSq returns max(floorSq, g), where g is the smallest squared gap
// gapSq(p, box) from any of the tree's points p to the box with corners lo
// and hi (+Inf on an empty tree). It is CutGapSq with no disk.
func (t *Tree) BoxGapSq(lo, hi []float64, floorSq float64) float64 {
	return t.CutGapSq(lo, hi, Disk{}, floorSq)
}

// CutGapSq returns max(floorSq, g), where g is the smallest over the tree's
// points p of max(gapSq(p, box), disk's squared gap of p): the box has
// corners lo and hi, and a disk with C nil adds nothing (+Inf on an empty
// tree). The search stops once some point's value is at most floorSq,
// which then decides the result; a floorSq of 0 asks for g itself.
//
// A subtree is skipped when the larger of two bounds at its splitting plane
// is at least the smallest value so far: the plane's squared distance to
// the box's face when the plane lies outside the box on the split axis,
// and the disk's squared gap at the plane's distance from C on that axis
// when the subtree lies on the far side of the plane from C. Both skips are
// exact in floating point: every point beyond the plane is at least as far
// on that axis, rounding is monotone, a sum of non-negative squares is at
// least each of its terms, and the disk's gap never decreases with the
// distance it is read from. So the result is the brute-force minimum of the
// same per-point values, bit for bit.
func (t *Tree) CutGapSq(lo, hi []float64, disk Disk, floorSq float64) float64 {
	if len(t.idx) == 0 {
		return math.Inf(1)
	}
	if len(lo) != t.dims || len(hi) != t.dims || disk.C != nil && len(disk.C) != t.dims {
		panic(fmt.Sprintf("kdtree: box of %d/%d dims, disk of %d, vs %d", len(lo), len(hi), len(disk.C), t.dims))
	}
	w := cutWalk{lo: lo, hi: hi, disk: disk, floorSq: floorSq, best: math.Inf(1)}
	t.cutGap(&w, 0, len(t.idx), 0)
	return max(w.best, floorSq)
}

// cutWalk is CutGapSq's state: the box, the disk, the floor and the
// smallest value so far.
type cutWalk struct {
	lo, hi        []float64
	disk          Disk
	floorSq, best float64
}

func (t *Tree) cutGap(w *cutWalk, l, h, axis int) {
	if h <= l || w.best <= w.floorSq {
		return
	}
	mid := (l + h) / 2
	p := t.coords[mid*len(w.lo):][:len(w.lo)]
	if g := gapSq(p, w.lo, w.hi); g < w.best {
		if w.disk.C != nil {
			g = max(g, w.disk.gapSq(distSq(p, w.disk.C)))
		}
		w.best = min(w.best, g)
	}
	s := p[axis]
	next := axis + 1
	if next == len(w.lo) {
		next = 0
	}
	// Points left of mid lie at or below s on axis, points right of it at
	// or above; left and right bound every value on their side.
	var left, right float64
	switch {
	case s < w.lo[axis]:
		g := w.lo[axis] - s
		left = g * g
	case s > w.hi[axis]:
		g := s - w.hi[axis]
		right = g * g
	}
	if c := w.disk.C; c != nil {
		g := s - c[axis]
		switch {
		case s < c[axis] && left < w.best:
			left = max(left, w.disk.gapSq(g*g))
		case s > c[axis] && right < w.best:
			right = max(right, w.disk.gapSq(g*g))
		}
	}
	if right < left {
		if right < w.best {
			t.cutGap(w, mid+1, h, next)
		}
		if left < w.best {
			t.cutGap(w, l, mid, next)
		}
		return
	}
	if left < w.best {
		t.cutGap(w, l, mid, next)
	}
	if right < w.best {
		t.cutGap(w, mid+1, h, next)
	}
}

// ForEachWithin invokes fn(idx, dist) for every point whose distance to q
// is at most radius, in tree order, stopping early if fn returns false.
// idx is the point's index in the Build input.
func (t *Tree) ForEachWithin(q geom.Point, radius float64, fn func(int, float64) bool) {
	if len(t.idx) == 0 || radius < 0 {
		return
	}
	t.checkDims(q)
	t.within(q, 0, len(t.idx), 0, radius*radius, fn)
}

func (t *Tree) within(q geom.Point, lo, hi, axis int, radiusSq float64, fn func(int, float64) bool) bool {
	if hi <= lo {
		return true
	}
	mid := (lo + hi) / 2
	p := t.coords[mid*len(q):][:len(q)]
	if d := distSq(q, p); d <= radiusSq {
		if !fn(t.idx[mid], math.Sqrt(d)) {
			return false
		}
	}
	diff := q[axis] - p[axis]
	next := (axis + 1) % t.dims
	if diff < 0 {
		if !t.within(q, lo, mid, next, radiusSq, fn) {
			return false
		}
		if diff*diff <= radiusSq {
			return t.within(q, mid+1, hi, next, radiusSq, fn)
		}
	} else {
		if !t.within(q, mid+1, hi, next, radiusSq, fn) {
			return false
		}
		if diff*diff <= radiusSq {
			return t.within(q, lo, mid, next, radiusSq, fn)
		}
	}
	return true
}

// ClosestSq is the one bichromatic closest-pair loop, behind ClosestPair and
// fuzzy.DistEval: between the tree's points, all of which lie inside box,
// and the len(pts)/dims query points of pts (flat, the tree's dims apiece),
// it returns the index i of the tree point (into the Build input), the index
// j of the query point, their squared distance, and how many nearest-
// neighbour descents it ran. gaps is scratch of at least one float per
// query point. It returns (-1, -1, +Inf, 0) when either side is empty.
//
// It makes two passes. The first computes every query point's squared gap
// to box into gaps and runs one unbounded descent from the point with the
// smallest gap — the near side, where the closest pair usually is — so the
// running minimum starts tight. The second skips every other point whose gap
// is already at least the running minimum and descends, bounded by it, from
// the rest. The skip is exact in floating point, not merely in the reals: for
// every point t in box and every axis, |q[i]-t[i]| is at least q's gap to
// the box on that axis, rounding is monotone, and gapSq squares and sums the
// gaps in the order distSq sums the differences — so distSq(q, t) is
// at least the gap, and the strict d < minimum that search demands fails for
// every t. The minimum is carried squared and never passes through a square
// root, so it is the minimum of the same per-pair squared distances a
// brute-force scan rounds, bit for bit, whatever order the pairs are met in.
func (t *Tree) ClosestSq(pts []float64, box geom.Rect, gaps []float64) (i, j int, dSq float64, descents int) {
	if len(t.idx) == 0 || len(pts) == 0 {
		return -1, -1, math.Inf(1), 0
	}
	dims := t.dims
	if len(pts)%dims != 0 {
		panic(fmt.Sprintf("kdtree: %d coordinates do not make points of %d dims", len(pts), dims))
	}
	gaps = gaps[:len(pts)/dims]
	lo, hi := box.Lo[:dims], box.Hi[:dims]
	j = 0
	for k := range gaps {
		gaps[k] = gapSq(pts[k*dims:][:dims], lo, hi)
		if gaps[k] < gaps[j] {
			j = k
		}
	}
	i, dSq = t.nearestSq(pts[j*dims:][:dims], math.Inf(1))
	descents = 1
	for k, gap := range gaps {
		if k == j || gap >= dSq {
			continue
		}
		descents++
		if ik, d := t.nearestSq(pts[k*dims:][:dims], dSq); ik >= 0 {
			i, j, dSq = ik, k, d
		}
	}
	return i, j, dSq, descents
}

// ClosestPair computes the bichromatic closest pair between the point sets
// a and b (flat, dims coordinates apiece): indices (i, j) into a and b and
// their Euclidean distance. It builds the tree over the smaller set and
// queries with the larger. Returns (-1, -1, +Inf) if either set is empty.
func ClosestPair(a, b []float64, dims int) (int, int, float64) {
	if len(a) == 0 || len(b) == 0 {
		return -1, -1, math.Inf(1)
	}
	swapped := len(b) < len(a)
	if swapped {
		a, b = b, a
	}
	// One allocation holds the tree side's bounding box and the gaps.
	scratch := make([]float64, 2*dims+len(b)/dims)
	box := geom.Rect{Lo: scratch[:dims], Hi: scratch[dims : 2*dims]}
	copy(box.Lo, a[:dims])
	copy(box.Hi, a[:dims])
	for at := dims; at < len(a); at += dims {
		box.ExpandPoint(a[at : at+dims])
	}
	i, j, dSq, _ := Build(a, dims).ClosestSq(b, box, scratch[2*dims:])
	if swapped {
		i, j = j, i
	}
	return i, j, math.Sqrt(dSq)
}
