package fuzzy

import (
	"math"

	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/kdtree"
)

// DistEval evaluates α-distances d_α(·, Q) against one fixed query object at
// one fixed α without allocating per evaluation. AlphaDist builds a k-d tree
// per call; a search visiting m objects therefore pays m tree builds even
// though one side of every closest-pair computation — the query's α-cut — is
// the same. DistEval builds that tree once per (query, α) and probes it with
// each visited object's cut points, reusing the tree's buffers across
// Reset calls, so the steady-state cost per visit is the pruned
// nearest-neighbor queries alone.
//
// Dist returns exactly the same value as AlphaDist: the bichromatic
// closest-pair distance is a unique minimum, and both evaluations take the
// minimum over the same correctly-rounded per-pair Euclidean distances, so
// the result is bitwise identical regardless of which side the tree is
// built over.
//
// Values are additionally memoized per object id. The memo is cleared on
// every Reset: object ids are only stable identities within a single query
// execution (one index snapshot), so a memo must never outlive the query
// that filled it.
//
// A DistEval is not safe for concurrent use; pool one per worker (the query
// layer keeps one in its per-query scratch).
type DistEval struct {
	q     *Object
	alpha float64
	tree  kdtree.Tree
	qmbr  geom.Rect // M_Q(α), the box of the tree's points, backed by qbox
	qbox  []float64 // qmbr's corners: lo, then hi
	abox  []float64 // CutKey's M_A(α)*: lo, then hi
	gaps  []float64 // ClosestSq's per-point scratch
	memo  map[uint64]float64

	// k-d tree descents run by dist and by NearestWithin (read by tests)
	descents, nearDescents int
}

// Reset points the evaluator at a new (query, α) pair, rebuilding the
// query-cut tree and M_Q(α) in place and dropping all memoized values. Once
// its buffers have grown to the query's size it allocates nothing, whichever
// object q is.
func (e *DistEval) Reset(q *Object, alpha float64) {
	e.q = q
	e.alpha = alpha
	e.tree.Rebuild(q.cutCoords(alpha), q.dims)
	d := q.dims
	if cap(e.qbox) < 2*d {
		e.qbox = make([]float64, 2*d)
	}
	e.qmbr = q.MBRInto(alpha, geom.Rect{Lo: e.qbox[:d:d], Hi: e.qbox[d : 2*d : 2*d]})
	if e.memo == nil {
		e.memo = make(map[uint64]float64, 64)
	}
	clear(e.memo)
}

// Invalidate drops the evaluator's pin and memo without rebuilding
// anything. Callers that conditionally Reset on Query() changes (the join
// workers) must Invalidate when they acquire a pooled evaluator: a stale
// pin from a previous execution could otherwise alias the current query
// object and skip the Reset — wrong α, stale memo.
func (e *DistEval) Invalidate() {
	e.q = nil
	clear(e.memo)
}

// Query returns the object the evaluator is currently pinned to (nil before
// the first Reset, and after Invalidate).
func (e *DistEval) Query() *Object { return e.q }

// Alpha returns the α the evaluator is currently pinned to.
func (e *DistEval) Alpha() float64 { return e.alpha }

// QueryMBR returns M_Q(α) of the pinned pair (empty for α > 1). It is the
// evaluator's own storage: valid until the next Reset, and not to be
// modified. A search pinned to a pair reads its query box here instead of
// computing a second one.
func (e *DistEval) QueryMBR() geom.Rect { return e.qmbr }

// NearestWithin returns the distance from p to the nearest point of Q_α
// when it is below bound, and bound otherwise. For a point p of A_α it is
// an upper bound of d_α(A, Q): Lemma 1 (§3.4) over the whole cut.
func (e *DistEval) NearestWithin(p geom.Point, bound float64) float64 {
	e.nearDescents++
	if _, d := e.tree.NearestWithin(p, bound); d < bound {
		return d
	}
	return bound
}

// CutKey returns the §3.2 lower bound of d_α(A, Q) read against the whole
// α-cut of Q rather than its box: max(coarse, √g), where g is the smallest
// squared gap from a point of Q_α to M_A(α)*, the estimated cut box of A
// from its support box and flat summary (box and sum, as EstimateMinDist
// takes them). coarse is that bound already known, EstimateMinDist against
// QueryMBR, and the k-d tree query stops as soon as g cannot exceed it. A
// caller that only compares the key with some r ≥ coarse may pass r itself
// (the range search does): the query then stops at the first point within
// r, and the result exceeds r exactly when the key would, wherever √(r²)
// rounds back to r. A_α lies in M_A(α)*, so every pair distance Dist takes
// is at least some query point's gap, bit for bit (kdtree.Tree.BoxGapSq):
// the key never exceeds Dist.
func (e *DistEval) CutKey(box, sum []float64, coarse float64) float64 {
	d := len(box) / 2
	if cap(e.abox) < 2*d {
		e.abox = make([]float64, 2*d)
	}
	lo, hi := e.abox[:d], e.abox[d:2*d]
	for dim := 0; dim < d; dim++ {
		lo[dim], hi[dim] = estimateFace(box, sum, d, dim, e.alpha)
	}
	return max(coarse, math.Sqrt(e.tree.BoxGapSq(lo, hi, coarse*coarse)))
}

// Descents returns how many k-d tree descents the evaluator has run since it
// was made: those of Dist's evaluations, and NearestWithin's calls. Tests
// read them to show work a search did not do.
func (e *DistEval) Descents() (dist, nearest int) { return e.descents, e.nearDescents }

// Dist returns d_α(o, Q) for the pinned query and α, memoized by o.ID().
func (e *DistEval) Dist(o *Object) float64 {
	if d, ok := e.memo[o.ID()]; ok {
		return d
	}
	d := e.dist(o)
	e.memo[o.ID()] = d
	return d
}

// dist is the uncached evaluation: a bichromatic closest pair between o's
// cut and the prebuilt query-cut tree (kdtree.Tree.ClosestSq). The descent
// from o's point nearest M_Q(α) fixes a tight minimum first; every point at
// least that far from M_Q(α) — usually the whole far side of o — then never
// enters the tree.
func (e *DistEval) dist(o *Object) float64 {
	cut := o.cutCoords(e.alpha)
	if len(cut) == 0 || e.tree.Len() == 0 {
		return math.Inf(1)
	}
	checkDims(o, e.q)
	if n := len(cut) / o.dims; cap(e.gaps) < n {
		e.gaps = make([]float64, n)
	}
	_, _, dSq, descents := e.tree.ClosestSq(cut, e.qmbr, e.gaps)
	e.descents += descents
	return math.Sqrt(dSq)
}

// ProfileCache memoizes distance profiles (the staircase α ↦ d_α and hence
// its integral, the expected distance) per (object, query) pair. Profiles
// are pure functions of the two objects' points, so entries are keyed by
// object *pointer* — a payload identity that stays valid across index churn,
// unlike an id, which can be recycled. The cache serves one query object at
// a time: Lookup for a different query clears it, which also bounds its
// size to one query's working set (with maxProfileEntries as a hard cap for
// stores that decode a fresh object per probe and would otherwise grow it
// without ever hitting).
//
// Misses are computed by an evaluator the cache owns, so the k-d tree over
// the query's points is built once per query object and serves every
// candidate's staircase, and a miss allocates the Profile and nothing else.
// An entry answers only at or above the floor it was swept from, so a
// staircase cut for one window never serves a wider one.
//
// A ProfileCache is not safe for concurrent use; pool one per worker.
type ProfileCache struct {
	q    *Object
	m    map[*Object]*Profile
	eval profileEval
}

// maxProfileEntries caps the cache; see the type comment.
const maxProfileEntries = 4096

// Lookup returns the cached profile of (o, q) if it answers at alpha,
// without computing on a miss. Search paths use it to reuse a staircase
// value some earlier phase already paid for while never paying a profile for
// a one-shot distance.
func (c *ProfileCache) Lookup(o, q *Object, alpha float64) (*Profile, bool) {
	if c.q != q || c.m == nil {
		return nil, false
	}
	p, ok := c.m[o]
	if !ok || alpha < p.floor {
		return nil, false
	}
	return p, true
}

// Profile returns the memoized profile of (o, q) exact at every α ≥ floor,
// computing it from that floor and caching it when no entry reaches that
// low. Both repeated calls within one query execution and repeats of the
// same query object across executions hit the cache.
func (c *ProfileCache) Profile(o, q *Object, floor float64) *Profile {
	if c.q != q || c.m == nil {
		if c.m == nil {
			c.m = make(map[*Object]*Profile, 64)
		} else {
			clear(c.m)
		}
		c.q = q
	}
	if p, ok := c.m[o]; ok && p.floor <= floor {
		return p
	}
	p := c.eval.Profile(o, q, floor)
	if len(c.m) >= maxProfileEntries {
		clear(c.m)
	}
	c.m[o] = p
	return p
}

// ExpectedDist returns the memoized integrated distance E(o, q) from the
// complete staircase; the profile's integral is itself computed at most once
// (see Integrate).
func (c *ProfileCache) ExpectedDist(o, q *Object) float64 {
	return c.Profile(o, q, 0).Integrate()
}
