// Package hull implements the geometric machinery behind the paper's
// improved lower bound (§3.2): the upper convex hull of a boundary function
// and its *optimal conservative linear approximation*.
//
// A boundary function bf = {⟨α, δ(α)⟩} records how far the MBR face of an
// α-cut sits from the kernel's MBR face. The approximation L_opt is the line
// y = m·x + t that (1) dominates every bf point — so the estimated MBR
// always encloses the true one and no false dismissals can occur — and
// (2) minimizes the sum of squared errors among all dominating lines
// (Definition 6 of the paper).
//
// L_opt is found with the algorithm of Achtert et al. (SIGMOD 2006, cited as
// [1] by the paper): the optimal line interpolates at least one vertex of
// the upper convex hull, and a bisection over hull vertices locates that
// anchor by checking whether the anchor's neighbor lies above the
// anchor-optimal line (AOL).
package hull

import (
	"cmp"
	"math"
	"slices"
)

// Pt is a 2-d sample of a boundary function: X is the probability threshold
// α, Y the boundary offset δ(α).
type Pt struct {
	X, Y float64
}

// Line is y = M·x + T.
type Line struct {
	M, T float64
}

// Eval returns the line's value at x.
func (l Line) Eval(x float64) float64 { return l.M*x + l.T }

// Upper returns the upper convex hull of pts using Andrew's monotone chain,
// as a sequence with strictly increasing x and strictly decreasing segment
// slopes ("right turns"). Points sharing an x keep only the highest y. The
// input is not modified. An empty input yields an empty hull.
func Upper(pts []Pt) []Pt {
	if len(pts) == 0 {
		return nil
	}
	return appendUpper(nil, sortPts(slices.Clone(pts)))
}

// sortPts sorts pts by x, then highest y first, and returns it. That is a
// total order on distinct points, and equal points are equal values, so
// every sort gives the same sequence. slices.SortFunc, unlike sort.Slice,
// needs no reflection swapper or boxed closure.
func sortPts(pts []Pt) []Pt {
	slices.SortFunc(pts, func(a, b Pt) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(b.Y, a.Y)
	})
	return pts
}

// appendUpper appends the upper hull of sorted (ordered by sortPts,
// non-empty) to dst. It drops duplicate x from sorted in place.
func appendUpper(dst, sorted []Pt) []Pt {
	// Drop duplicate x (the highest y, first after sorting, dominates).
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p.X != uniq[len(uniq)-1].X {
			uniq = append(uniq, p)
		}
	}
	h, base := dst, len(dst)
	for _, p := range uniq {
		// Keep only right turns: the new point must be below the line of the
		// last hull segment extended; pop while the middle point is not
		// strictly above the chord from h[-2] to p.
		for len(h)-base >= 2 && cross(h[len(h)-2], h[len(h)-1], p) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// cross returns the z-component of (b-a) × (c-a). Negative means the turn
// a→b→c bends right (clockwise), which is what an upper hull consists of.
func cross(a, b, c Pt) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// OptimalConservativeLine computes L_opt for the given boundary-function
// samples: the least-squares line constrained to lie on or above every
// sample. It panics on an empty input. A single sample yields the
// horizontal line through it.
func OptimalConservativeLine(pts []Pt) Line {
	var f Fitter
	return f.Fit(pts)
}

// Fitter is OptimalConservativeLine keeping its working storage — the
// sorted samples and their hull — across calls, so a caller fitting many
// lines (a §3.2 summary fits 2·d per object, an index build one summary per
// object) allocates nothing once the buffers have grown. The zero value is
// ready. A Fitter is not safe for concurrent use.
type Fitter struct {
	sorted, hull []Pt
}

// Fit returns OptimalConservativeLine(pts).
func (f *Fitter) Fit(pts []Pt) Line {
	if len(pts) == 0 {
		panic("hull: OptimalConservativeLine of empty point set")
	}
	f.sorted = sortPts(append(f.sorted[:0], pts...))
	f.hull = appendUpper(f.hull[:0], f.sorted)
	return lift(bisectAnchor(f.hull, pts), pts)
}

// bisectAnchor runs the Achtert et al. bisection over hull vertices.
func bisectAnchor(h, all []Pt) Line {
	lo, hi := 0, len(h)-1
	for lo <= hi {
		j := (lo + hi) / 2
		line := anchorOptimalLine(h[j], all)
		switch {
		case j+1 < len(h) && above(h[j+1], line):
			lo = j + 1
		case j-1 >= 0 && above(h[j-1], line):
			hi = j - 1
		default:
			return line
		}
	}
	// Numerical degeneracy: fall back to an exhaustive scan of anchors,
	// keeping the conservative line with the smallest objective.
	best := Line{M: 0, T: math.Inf(1)}
	bestObj := math.Inf(1)
	for _, p := range h {
		line := lift(anchorOptimalLine(p, all), all)
		if obj := sumSqErr(line, all); obj < bestObj {
			bestObj = obj
			best = line
		}
	}
	return best
}

// anchorOptimalLine returns the line through anchor p minimizing the sum of
// squared errors over all points (unconstrained except for the
// interpolation of p).
func anchorOptimalLine(p Pt, all []Pt) Line {
	var num, den float64
	for _, q := range all {
		dx := q.X - p.X
		num += dx * (q.Y - p.Y)
		den += dx * dx
	}
	m := 0.0
	if den > 0 {
		m = num / den
	}
	return Line{M: m, T: p.Y - m*p.X}
}

// above reports whether p lies strictly above the line beyond a small
// relative tolerance.
func above(p Pt, l Line) bool {
	v := l.Eval(p.X)
	return p.Y > v+1e-12*(1+math.Abs(v))
}

// lift raises the line's intercept by the largest violation so the result
// dominates every point exactly (guards against floating-point residue).
func lift(l Line, pts []Pt) Line {
	var maxViolation float64
	for _, p := range pts {
		if v := p.Y - l.Eval(p.X); v > maxViolation {
			maxViolation = v
		}
	}
	if maxViolation > 0 {
		l.T += maxViolation
	}
	return l
}

// sumSqErr returns the objective Σ (l(x_i) − y_i)².
func sumSqErr(l Line, pts []Pt) float64 {
	var s float64
	for _, p := range pts {
		e := l.Eval(p.X) - p.Y
		s += e * e
	}
	return s
}
