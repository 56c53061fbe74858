package fuzzy

import (
	"fmt"
	"math"
	"sort"

	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/grid"
	"fuzzyknn/internal/kdtree"
)

// AlphaDist computes d_α(A, B) — the bichromatic closest-pair distance
// between the two α-cuts (Definition 3). It returns +Inf if either cut is
// empty (only possible for α > 1).
func AlphaDist(a, b *Object, alpha float64) float64 {
	checkDims(a, b)
	_, _, d := kdtree.ClosestPair(a.cutCoords(alpha), b.cutCoords(alpha), a.dims)
	return d
}

// checkDims panics when a and b cannot be compared point against point.
func checkDims(a, b *Object) {
	if a.dims != b.dims {
		panic(fmt.Sprintf("fuzzy: dimension mismatch %d vs %d", a.dims, b.dims))
	}
}

// AlphaDistBrute is the quadratic reference evaluation of d_α used in tests
// and as the paper's description of the direct approach ("the evaluation of
// α-distance is quadratic with the number of points", §3.1).
func AlphaDistBrute(a, b *Object, alpha float64) float64 {
	na, nb := a.cutLen(alpha), b.cutLen(alpha)
	best := math.Inf(1)
	for i := 0; i < na; i++ {
		p := a.point(i)
		for j := 0; j < nb; j++ {
			if d := geom.DistSq(p, b.point(j)); d < best {
				best = d
			}
		}
	}
	return math.Sqrt(best)
}

// Profile is the complete step function α ↦ d_α(A, Q) for a pair of fuzzy
// objects, represented by its plateaus: for α in (Levels[j-1], Levels[j]]
// (with Levels[-1] = 0), the distance is Dists[j]. Levels is the ascending
// union of both objects' membership levels, always ending at 1; Dists is
// non-decreasing — the monotonicity property of d_α.
type Profile struct {
	Levels []float64
	Dists  []float64

	// integral memoizes Integrate (the staircase's exact integral — the
	// expected distance): refinement paths read it repeatedly and must not
	// pay the summation more than once. It is filled eagerly by
	// ComputeProfile — never lazily — so a *Profile is immutable after
	// construction and safe to share across goroutines. Code that mutates
	// Levels/Dists in place (none in this repository) would need to
	// construct a fresh Profile instead.
	integral   float64
	integrated bool
}

// ComputeProfile evaluates the whole distance profile in a single
// incremental pass: points of both objects are inserted into per-side hash
// grids in descending membership order, and each insertion probes the
// opposite grid bounded by the running best pair distance (the profile value
// is exactly that running minimum, because α-cuts are prefixes).
func ComputeProfile(a, q *Object) *Profile {
	levels := mergeLevels(a.Levels(), q.Levels())
	cell := profileCellSize(a, q)
	ga := grid.New(cell, a.Dims())
	gq := grid.New(cell, q.Dims())

	n := len(levels)
	dists := make([]float64, n)
	best := math.Inf(1)
	ia, iq := 0, 0 // cursors into the descending point arrays

	for j := n - 1; j >= 0; j-- {
		u := levels[j]
		// Insert all points with µ >= u that are not inserted yet. A-side
		// points probe the Q grid; Q-side points probe the A grid, so
		// same-level cross pairs are found by whichever side inserts last.
		for ; ia < len(a.mus) && a.mus[ia] >= u; ia++ {
			p := a.point(ia)
			if _, d := gq.NearestWithin(p, best); d < best {
				best = d
			}
			ga.Insert(p, ia)
		}
		for ; iq < len(q.mus) && q.mus[iq] >= u; iq++ {
			p := q.point(iq)
			if _, d := ga.NearestWithin(p, best); d < best {
				best = d
			}
			gq.Insert(p, iq)
		}
		dists[j] = best
	}
	return &Profile{Levels: levels, Dists: dists,
		integral: integrate(levels, dists), integrated: true}
}

// ComputeProfileBrute is the reference profile computation: an independent
// brute-force closest pair at every level. Used in tests.
func ComputeProfileBrute(a, q *Object) *Profile {
	levels := mergeLevels(a.Levels(), q.Levels())
	dists := make([]float64, len(levels))
	for j, u := range levels {
		dists[j] = AlphaDistBrute(a, q, u)
	}
	return &Profile{Levels: levels, Dists: dists}
}

// profileCellSize picks a grid cell comparable to the average point spacing
// of the combined support, so buckets hold O(1) points.
func profileCellSize(a, q *Object) float64 {
	r := a.SupportMBR().Union(q.SupportMBR())
	n := a.Len() + q.Len()
	d := float64(r.Dims())
	vol := r.Area()
	if vol <= 0 || n == 0 {
		// Degenerate extent (coincident points): any positive cell works.
		return 1
	}
	return math.Pow(vol/float64(n), 1/d)
}

// mergeLevels returns the ascending union of two ascending level slices.
func mergeLevels(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Dist returns d_α for any α in (0, 1]. Values of α at or below the lowest
// level fall on the first plateau; α above 1 is reported as +Inf.
func (p *Profile) Dist(alpha float64) float64 {
	if alpha > p.Levels[len(p.Levels)-1] {
		return math.Inf(1)
	}
	j := sort.SearchFloat64s(p.Levels, alpha)
	return p.Dists[j]
}

// Critical returns the critical probability set Ω_Q(A) (Definition 7): every
// level α such that no β > α has d_β = d_α — i.e. the right endpoints of the
// profile's constant segments. The top level (1) is always critical.
func (p *Profile) Critical() []float64 {
	var out []float64
	for j := range p.Levels {
		if j == len(p.Levels)-1 || p.Dists[j+1] > p.Dists[j] {
			out = append(out, p.Levels[j])
		}
	}
	return out
}

// NextCritical returns the smallest critical probability ≥ alpha (Lemma 2's
// α′). Since level 1 is always critical, the result is well defined for any
// alpha ≤ 1.
func (p *Profile) NextCritical(alpha float64) float64 {
	j := sort.SearchFloat64s(p.Levels, alpha)
	for ; j < len(p.Levels)-1; j++ {
		if p.Dists[j+1] > p.Dists[j] {
			return p.Levels[j]
		}
	}
	return p.Levels[len(p.Levels)-1]
}

// NextLevel returns the smallest profile level strictly greater than alpha
// and true, or (0, false) when alpha is at or beyond the top level. It is
// the exact replacement for the paper's "α ← α* + ε" stepping: the next
// plateau starts just above alpha and is fully characterized by this level.
func (p *Profile) NextLevel(alpha float64) (float64, bool) {
	j := sort.Search(len(p.Levels), func(i int) bool { return p.Levels[i] > alpha })
	if j == len(p.Levels) {
		return 0, false
	}
	return p.Levels[j], true
}
