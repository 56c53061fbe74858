// Package geom provides d-dimensional points and axis-aligned rectangles
// (minimum bounding rectangles, MBRs) together with the distance primitives
// the fuzzy-object kNN algorithms are built on: Euclidean point distance,
// MinDist and MaxDist between rectangles (Zheng et al., SIGMOD 2010,
// equations 1 and 3) and point-rectangle distances.
//
// All distances are Euclidean. Squared variants are provided because the
// search algorithms compare distances far more often than they report them;
// comparisons on squared values avoid the sqrt.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a point in d-dimensional Euclidean space. The dimensionality is
// the slice length; all points participating in one computation must agree.
type Point []float64

// Dims returns the dimensionality of the point.
func (p Point) Dims() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
// It panics if the dimensionalities differ.
func Dist(p, q Point) float64 { return math.Sqrt(DistSq(p, q)) }

// DistSq returns the squared Euclidean distance between p and q.
//
// The float64 conversion rounds each square before it is added, so a
// compiler with a fused multiply-add cannot round this sum differently from
// MinDistPointSq's (the closest-pair gates in kdtree and fuzzy rely on the
// two agreeing).
func DistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += float64(d * d)
	}
	return s
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-aligned rectangle in d-dimensional space, described by its
// lower-left corner Lo and upper-right corner Hi (inclusive on both ends).
// The zero Rect (nil corners) is the canonical "empty" rectangle.
type Rect struct {
	Lo, Hi Point
}

// NewRect constructs a rectangle from two corner points, normalizing so that
// Lo[i] <= Hi[i] for every dimension.
func NewRect(a, b Point) Rect {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(a), len(b)))
	}
	lo := make(Point, len(a))
	hi := make(Point, len(a))
	for i := range a {
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// BoundingRect returns the MBR of a non-empty point set.
// It panics on an empty input.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := RectFromPoint(pts[0])
	for _, p := range pts[1:] {
		r.ExpandPoint(p)
	}
	return r
}

// IsEmpty reports whether r is the zero (empty) rectangle.
func (r Rect) IsEmpty() bool { return r.Lo == nil }

// Dims returns the dimensionality of the rectangle (0 when empty).
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	if r.IsEmpty() {
		return Rect{}
	}
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Equal reports whether r and s cover exactly the same region.
func (r Rect) Equal(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return r.IsEmpty() == s.IsEmpty()
	}
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// ExpandPoint grows r in place to include p. Expanding the empty rectangle
// yields the degenerate rectangle at p.
func (r *Rect) ExpandPoint(p Point) {
	if r.IsEmpty() {
		*r = RectFromPoint(p)
		return
	}
	for i := range p {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// ContainsRect reports whether s lies entirely inside r. The empty rectangle
// is contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	for i := range r.Lo {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r (0 for the empty rectangle).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// String renders the rectangle as "[lo; hi]".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%s; %s]", r.Lo, r.Hi)
}

// MinDist returns the minimum Euclidean distance between any point of r and
// any point of s (equation 1 of the paper). It is 0 when the rectangles
// intersect and +Inf if either is empty.
func MinDist(r, s Rect) float64 { return math.Sqrt(MinDistSq(r, s)) }

// MinDistLoHi is MinDist where the first rectangle is given by its packed
// corner slices lo and hi (as laid out by rtree node flattening) instead of
// a Rect. The arithmetic is identical to MinDist — same per-dimension gap,
// same summation order — so the result is bitwise equal.
func MinDistLoHi(lo, hi []float64, r Rect) float64 { return math.Sqrt(MinDistSqLoHi(lo, hi, r)) }

// MinDistSqLoHi is the squared form of MinDistLoHi.
func MinDistSqLoHi(lo, hi []float64, r Rect) float64 {
	if r.IsEmpty() || len(lo) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i := range lo {
		var l float64
		switch {
		case lo[i] > r.Hi[i]:
			l = lo[i] - r.Hi[i]
		case r.Lo[i] > hi[i]:
			l = r.Lo[i] - hi[i]
		}
		sum += l * l
	}
	return sum
}

// MinDistSq is the squared form of MinDist.
func MinDistSq(r, s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	var sum float64
	for i := range r.Lo {
		var l float64
		switch {
		case r.Lo[i] > s.Hi[i]:
			l = r.Lo[i] - s.Hi[i]
		case s.Lo[i] > r.Hi[i]:
			l = s.Lo[i] - r.Hi[i]
		}
		sum += l * l
	}
	return sum
}

// MaxDist returns the maximum Euclidean distance between any point of r and
// any point of s (equation 3 of the paper). It is +Inf if either is empty.
//
// Note MaxDist upper-bounds the distance of any pair of contained points, so
// it upper-bounds in particular the closest-pair distance of any two point
// sets enclosed by r and s.
func MaxDist(r, s Rect) float64 { return math.Sqrt(MaxDistSq(r, s)) }

// MaxDistSq is the squared form of MaxDist.
func MaxDistSq(r, s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return math.Inf(1)
	}
	var sum float64
	for i := range r.Lo {
		l := math.Max(math.Abs(r.Hi[i]-s.Lo[i]), math.Abs(r.Lo[i]-s.Hi[i]))
		sum += l * l
	}
	return sum
}

// MinDistPointSq returns the squared minimum Euclidean distance from point
// p to rectangle r (0 if p is inside r, +Inf if r is empty). It never exceeds
// DistSq(p, q) for a q inside r, in floating point too: the gaps are
// squared, rounded and summed exactly as DistSq does the differences.
func MinDistPointSq(p Point, r Rect) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	var sum float64
	for i := range p {
		var l float64
		switch {
		case p[i] < r.Lo[i]:
			l = r.Lo[i] - p[i]
		case p[i] > r.Hi[i]:
			l = p[i] - r.Hi[i]
		}
		sum += float64(l * l)
	}
	return sum
}
