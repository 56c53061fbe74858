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
// L_opt has a closed form over the upper hull h. For a fixed slope m the
// lowest dominating intercept is t(m) = maxᵢ(yᵢ − m·xᵢ), and no higher
// intercept is better: the least-squares intercept for slope m is the mean
// of yᵢ − m·xᵢ, which never exceeds their maximum. t(m) is convex and
// piecewise linear, and vertex h[j] attains the maximum exactly for m in
// [slope(h[j], h[j+1]), slope(h[j−1], h[j])]. On that piece the line passes
// through h[j], and the objective is a convex quadratic in m, minimized by
// the anchor-optimal slope through h[j] clamped to the piece. The objective
// over all m is convex, so L_opt is the best of these h candidates. A
// clamped candidate is the line of a hull edge.
package hull

import "math"

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

// upperHull returns the upper convex hull of pts, which ascend in x, in
// h's storage, using Andrew's monotone chain: a sequence with strictly
// increasing x and strictly decreasing segment slopes ("right turns"). It
// panics if pts do not ascend.
func upperHull(h, pts []Pt) []Pt {
	h = h[:0]
	for i, p := range pts {
		if i > 0 && p.X < pts[i-1].X {
			panic("hull: samples not in ascending x")
		}
		// The last hull vertex has the largest x so far; of two samples at
		// one x the higher dominates.
		if top := len(h) - 1; top >= 0 && p.X == h[top].X {
			if p.Y <= h[top].Y {
				continue
			}
			h = h[:top]
		}
		// Keep only right turns: pop while the middle point is not strictly
		// above the chord from h[-2] to p.
		for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) >= 0 {
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
// samples, which must ascend in x: the least-squares line constrained to
// lie on or above every sample. It panics on an empty or unsorted input. A
// single sample yields the horizontal line through it.
func OptimalConservativeLine(pts []Pt) Line {
	var f Fitter
	return f.Fit(pts)
}

// Fitter is OptimalConservativeLine keeping its working storage — the hull
// — across calls, so a caller fitting many lines (a §3.2 summary fits 2·d
// per object, an index build one summary per object) allocates nothing once
// the buffer has grown. The zero value is ready. A Fitter is not safe for
// concurrent use.
type Fitter struct {
	hull []Pt
}

// Fit returns OptimalConservativeLine(pts).
func (f *Fitter) Fit(pts []Pt) Line {
	if len(pts) == 0 {
		panic("hull: OptimalConservativeLine of empty point set")
	}
	f.hull = upperHull(f.hull, pts)
	return lift(bestCandidate(f.hull, pts), pts)
}

// bestCandidate returns the best of the clamped anchor-optimal lines, one
// per vertex of the upper hull h of pts (see the package comment).
//
// With the centred moments Cxx = Σ(x−x̄)², Cxy = Σ(x−x̄)(y−ȳ) and the least-
// squares slope m̂ = Cxy/Cxx, the line through (a, b) with slope m has the
// objective Cyy − Cxy²/Cxx + Cxx·(m − m̂)² + n·(b − ȳ − m·(a − x̄))². The
// first two terms are the same for every candidate, so candidates compare
// by the last two, a sum of squares with no cancellation.
func bestCandidate(h, pts []Pt) Line {
	n := float64(len(pts))
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/n, sy/n
	var cxx, cxy float64
	for _, p := range pts {
		dx := p.X - mx
		cxx += dx * dx
		cxy += dx * (p.Y - my)
	}
	var mhat float64
	if cxx > 0 {
		mhat = cxy / cxx
	}
	var best Line
	bestCost := math.Inf(1)
	for j, a := range h {
		dx, dy := a.X-mx, a.Y-my
		var m float64 // Σ(x−a)(y−b) / Σ(x−a)², zero when every x is a.X
		if den := cxx + n*dx*dx; den > 0 {
			m = (cxy + n*dx*dy) / den
		}
		if j+1 < len(h) {
			m = max(m, slope(a, h[j+1]))
		}
		if j > 0 {
			m = min(m, slope(h[j-1], a))
		}
		e, c := m-mhat, dy-m*dx
		if cost := cxx*e*e + n*c*c; cost < bestCost {
			best, bestCost = Line{M: m, T: a.Y - m*a.X}, cost
		}
	}
	return best
}

// slope returns the slope of the line through a and b.
func slope(a, b Pt) float64 { return (b.Y - a.Y) / (b.X - a.X) }

// Lift returns l with its intercept raised, if need be, until the line lies
// on or above every point of pts exactly: a line fitted to some samples of
// a function, lifted over all of them.
func Lift(l Line, pts []Pt) Line { return lift(l, pts) }

// lift raises the line's intercept until it dominates every point exactly:
// first by the largest violation, then an ulp at a time for what the
// rounding of that addition left.
func lift(l Line, pts []Pt) Line {
	var maxViolation float64
	for _, p := range pts {
		if v := p.Y - l.Eval(p.X); v > maxViolation {
			maxViolation = v
		}
	}
	if maxViolation == 0 {
		return l
	}
	l.T += maxViolation
	for _, p := range pts {
		for p.Y > l.Eval(p.X) {
			l.T = math.Nextafter(l.T, math.Inf(1))
		}
	}
	return l
}
