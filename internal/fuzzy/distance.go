package fuzzy

import (
	"fmt"
	"math"
	"sort"

	"fuzzyknn/internal/geom"
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

// Profile is the step function α ↦ d_α(A, Q) for a pair of fuzzy objects,
// represented by its plateaus: for α in (Levels[j-1], Levels[j]] (with
// Levels[-1] = 0), the distance is Dists[j]. Levels is the ascending union of
// both objects' membership levels at or above the profile's floor, always
// ending at 1; Dists is non-decreasing — the monotonicity property of d_α.
//
// A profile with floor 0 is the complete staircase; one built from a higher
// floor is its suffix of levels ≥ floor, bit for bit, and answers only there.
type Profile struct {
	Levels []float64
	Dists  []float64

	floor float64 // the lowest α the staircase answers; 0 when complete

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

// profileEval computes distance profiles without allocating beyond the
// Profile it returns. It is the sibling of DistEval for whole staircases:
// DistEval fixes (query, α) and builds one tree over the query's cut;
// profileEval fixes the query and sweeps every α from a floor at once.
//
// Points are stored in descending membership, so the α-cut of either object
// is always the first m points of its slab, and "the points met so far" in a
// sweep over descending levels is a prefix too. Nothing is inserted
// anywhere: one kdtree.PrefixTree is built over the points of each side, and
// a point arriving at level u asks the other side's tree for its nearest
// neighbour among the prefix with µ ≥ u. The query's tree is kept for as
// long as the evaluator meets the same query object (identified by pointer:
// the evaluator holds the pointer, so the object stays alive and its address
// cannot come to name another one), and the candidate's tree is rebuilt in
// place over the candidate's floor-cut only.
//
// A profileEval is not safe for concurrent use; a ProfileCache owns one. The
// zero value is ready.
type profileEval struct {
	q            *Object // the object qTree is built over
	qTree, aTree kdtree.PrefixTree
	box          []float64 // running prefix boxes: A's lo, A's hi, Q's lo, Q's hi
}

// Profile evaluates the distance profile of (a, q) at the levels ≥ floor
// (floor ≤ 1) in one pass over them in descending order. The profile value
// at a level is the running minimum over all cross pairs met so far, because
// α-cuts are prefixes: at each level the new A-points probe Q's prefix, then
// the new Q-points probe A's prefix (which by then includes this level's
// A-points), so a same-level cross pair is met by whichever side comes last.
//
// The sweep stops at the floor: every α-cut with α ≥ floor lies inside the
// two floor-cut prefixes, so the pairs met down to a level u ≥ floor are the
// pairs with both memberships ≥ u whether or not the sweep would go on. The
// query's tree still covers all of q, since it is kept across candidates and
// the prefix length restricts it. A floor at or below both objects' lowest
// levels gives the complete staircase, its integral memoized.
//
// The result equals ComputeProfileBrute's levels ≥ floor bit for bit. The
// running minimum is carried squared — a minimum over the per-pair squared
// distances brute computes, rounded as brute rounds them, in whatever order —
// and the one square root per level is brute's; a plateau therefore repeats
// one bit pattern, which Critical's strict comparison relies on.
func (e *profileEval) Profile(a, q *Object, floor float64) *Profile {
	checkDims(a, q)
	dims := a.dims
	if e.q != q {
		e.qTree.Rebuild(q.coords, dims)
		e.q = q
	}
	amus, qmus := a.mus[:a.cutLen(floor)], q.mus[:q.cutLen(floor)]
	e.aTree.Rebuild(a.coords[:len(amus)*dims], dims)

	if cap(e.box) < 4*dims {
		e.box = make([]float64, 4*dims)
	}
	e.box = e.box[:4*dims]
	aBox := geom.Rect{Lo: e.box[:dims], Hi: e.box[dims : 2*dims]}
	qBox := geom.Rect{Lo: e.box[2*dims : 3*dims], Hi: e.box[3*dims:]}
	for i := 0; i < dims; i++ {
		aBox.Lo[i], aBox.Hi[i] = math.Inf(1), math.Inf(-1)
		qBox.Lo[i], qBox.Hi[i] = math.Inf(1), math.Inf(-1)
	}

	n := countLevels(amus, qmus)
	slab := make([]float64, 2*n)
	levels, dists := slab[:n:n], slab[n:]
	bestSq := math.Inf(1)
	ia, iq := 0, 0 // how much of each prefix the sweep has met
	for j := n - 1; j >= 0; j-- {
		u := nextLevel(amus, qmus, ia, iq)
		for ; ia < len(amus) && amus[ia] >= u; ia++ {
			p := a.point(ia)
			bestSq = closerSq(p, &e.qTree, iq, qBox, bestSq)
			aBox.ExpandPoint(p)
		}
		for ; iq < len(qmus) && qmus[iq] >= u; iq++ {
			p := q.point(iq)
			bestSq = closerSq(p, &e.aTree, ia, aBox, bestSq)
			qBox.ExpandPoint(p)
		}
		levels[j], dists[j] = u, math.Sqrt(bestSq)
	}
	if len(amus) < len(a.mus) || len(qmus) < len(q.mus) {
		return &Profile{Levels: levels, Dists: dists, floor: floor}
	}
	return &Profile{Levels: levels, Dists: dists,
		integral: integrate(levels, dists), integrated: true}
}

// closerSq returns the squared distance from p to the nearest of tree's first
// m points if that is below bestSq, and bestSq otherwise. box is the running
// bounding box of those m points: a point whose squared distance to it is
// already bestSq or more cannot lower the minimum and is not looked up at
// all (kdtree.Tree.ClosestSq gives the floating-point argument). An empty
// prefix has the inverted infinite box, which gates every point.
func closerSq(p geom.Point, tree *kdtree.PrefixTree, m int, box geom.Rect, bestSq float64) float64 {
	if geom.MinDistPointSq(p, box) >= bestSq {
		return bestSq
	}
	if _, d := tree.NearestInPrefixSq(p, m, bestSq); d < bestSq {
		return d
	}
	return bestSq
}

// nextLevel returns the largest membership not yet met by a sweep that has
// consumed the first ia and iq entries of two non-increasing slabs, at least
// one of which has entries left.
func nextLevel(amus, qmus []float64, ia, iq int) float64 {
	switch {
	case ia == len(amus):
		return qmus[iq]
	case iq == len(qmus):
		return amus[ia]
	}
	return max(amus[ia], qmus[iq])
}

// countLevels returns the number of distinct values in the union of two
// non-increasing membership slabs.
func countLevels(amus, qmus []float64) int {
	n, ia, iq := 0, 0, 0
	for ia < len(amus) || iq < len(qmus) {
		u := nextLevel(amus, qmus, ia, iq)
		for ia < len(amus) && amus[ia] == u {
			ia++
		}
		for iq < len(qmus) && qmus[iq] == u {
			iq++
		}
		n++
	}
	return n
}

// ComputeProfile is the one-shot form of profileEval.Profile for the
// complete staircase: both trees are built for this pair alone. Code that
// profiles many objects against one query goes through a ProfileCache, which
// keeps the evaluator.
func ComputeProfile(a, q *Object) *Profile {
	var e profileEval
	return e.Profile(a, q, 0)
}

// ComputeProfileBrute is the reference profile computation: an independent
// brute-force closest pair at every level. Used in tests.
func ComputeProfileBrute(a, q *Object) *Profile {
	levels := mergeLevels(a.AppendLevels(nil), q.AppendLevels(nil))
	dists := make([]float64, len(levels))
	for j, u := range levels {
		dists[j] = AlphaDistBrute(a, q, u)
	}
	return &Profile{Levels: levels, Dists: dists}
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

// Dist returns d_α for any α in (0, 1] at or above the floor. Values of α at
// or below the lowest level fall on the first plateau; α above 1 is reported
// as +Inf.
func (p *Profile) Dist(alpha float64) float64 {
	p.checkFloor(alpha)
	if alpha > p.Levels[len(p.Levels)-1] {
		return math.Inf(1)
	}
	j := sort.SearchFloat64s(p.Levels, alpha)
	return p.Dists[j]
}

// checkFloor panics when alpha lies below the staircase's floor: α is
// validated at the boundary, so such a read is a bug and must not pass as a
// wrong plateau.
func (p *Profile) checkFloor(alpha float64) {
	if alpha < p.floor {
		panic(fmt.Sprintf("fuzzy: profile read at α = %v below its floor %v", alpha, p.floor))
	}
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
// alpha ≤ 1 at or above the floor.
func (p *Profile) NextCritical(alpha float64) float64 {
	p.checkFloor(alpha)
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
// alpha must be at or above the floor.
func (p *Profile) NextLevel(alpha float64) (float64, bool) {
	p.checkFloor(alpha)
	j := sort.Search(len(p.Levels), func(i int) bool { return p.Levels[i] > alpha })
	if j == len(p.Levels) {
		return 0, false
	}
	return p.Levels[j], true
}
