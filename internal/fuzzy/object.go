// Package fuzzy implements the fuzzy object model of Zheng et al. (SIGMOD
// 2010): objects are finite sets of weighted points ⟨a, µ(a)⟩ with
// µ(a) ∈ (0, 1], a non-empty kernel (µ = 1), and queries are evaluated on
// α-cuts — the subsets with µ ≥ α.
//
// Internally points are kept sorted by descending membership so that every
// α-cut is a prefix of the point array. That single invariant makes cut
// extraction a binary search, per-level MBRs prefix maxima, and the full
// distance profile (α ↦ d_α) computable in one incremental pass.
package fuzzy

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"fuzzyknn/internal/geom"
)

// WeightedPoint is a spatial point with its membership probability.
type WeightedPoint struct {
	P  geom.Point
	Mu float64
}

// Object is an immutable fuzzy object. Construct with New or FromSlabs.
//
// An object is a header over pointer-free payload and nothing else: the
// coordinates (point i is the view coords[i*dims:(i+1)*dims], so the α-cut
// is the first cutLen(α) points) and the memberships. Nothing derived is
// kept beside them: a cut's box, the distinct levels and the §3.2 line fit's
// per-level table are computed by whoever needs them, into storage that
// caller owns (MBRInto, AppendLevels, AppendSummary). An object is therefore
// immutable by construction and shareable across shards and caches.
type Object struct {
	id   uint64
	dims int

	coords []float64 // n*dims, points in descending-membership order
	mus    []float64 // one per point, non-increasing, mus[0] = 1
}

// Validation errors returned by New and FromSlabs.
var (
	ErrNoPoints    = errors.New("fuzzy: object has no points")
	ErrEmptyKernel = errors.New("fuzzy: object kernel is empty (no point with µ = 1)")
	ErrBadMu       = errors.New("fuzzy: membership values must lie in (0, 1]")
	ErrDims        = errors.New("fuzzy: inconsistent point dimensionality")
	ErrBadCoord    = errors.New("fuzzy: coordinates must be finite")
)

// New constructs a fuzzy object from weighted points. The input is copied.
// Membership values must lie in (0, 1], at least one point must have µ = 1
// (the paper's non-empty-kernel assumption, §2.1), all points must share one
// dimensionality ≥ 1 and every coordinate must be finite.
func New(id uint64, points []WeightedPoint) (*Object, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	dims := points[0].P.Dims()
	coords := make([]float64, 0, len(points)*dims)
	mus := make([]float64, len(points))
	for i, wp := range points {
		if wp.P.Dims() != dims {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDims, wp.P.Dims(), dims)
		}
		coords = append(coords, wp.P...)
		mus[i] = wp.Mu
	}
	return FromSlabs(id, dims, coords, mus)
}

// FromSlabs is New over flat storage: point i is coords[i*dims:(i+1)*dims]
// with membership mus[i]. It takes ownership of both slices — the object
// keeps them (when the memberships are already non-increasing, which is how
// every encoder of this repository writes them) and the caller must not
// touch them again. Otherwise the points are stably reordered by descending
// membership, exactly as New orders them.
func FromSlabs(id uint64, dims int, coords, mus []float64) (*Object, error) {
	n := len(mus)
	if n == 0 {
		return nil, ErrNoPoints
	}
	if dims < 1 || len(coords) != n*dims {
		return nil, fmt.Errorf("%w: %d coordinates for %d points of %d dims", ErrDims, len(coords), n, dims)
	}
	sorted := true
	for i, mu := range mus {
		if !(mu > 0 && mu <= 1) { // also refuses NaN
			return nil, fmt.Errorf("%w: got %v", ErrBadMu, mu)
		}
		if i > 0 && mu > mus[i-1] {
			sorted = false
		}
	}
	if !sorted {
		coords, mus = sortDescending(dims, coords, mus)
	}
	if mus[0] != 1 {
		return nil, ErrEmptyKernel
	}
	for i, c := range coords {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: point %d has %v", ErrBadCoord, i/dims, c)
		}
	}
	return &Object{id: id, dims: dims, coords: coords, mus: mus}, nil
}

// sortDescending returns copies of the slabs with the points stably ordered
// by descending membership.
func sortDescending(dims int, coords, mus []float64) ([]float64, []float64) {
	perm := make([]int, len(mus))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(mus[b], mus[a]) })
	sc := make([]float64, 0, len(coords))
	sm := make([]float64, len(mus))
	for i, src := range perm {
		sc = append(sc, coords[src*dims:(src+1)*dims]...)
		sm[i] = mus[src]
	}
	return sc, sm
}

// MustNew is New but panics on error; intended for tests and generators that
// construct objects from known-valid data.
func MustNew(id uint64, points []WeightedPoint) *Object {
	o, err := New(id, points)
	if err != nil {
		panic(err)
	}
	return o
}

// ID returns the object identifier.
func (o *Object) ID() uint64 { return o.id }

// Len returns the number of points (the support size).
func (o *Object) Len() int { return len(o.mus) }

// Dims returns the dimensionality of the object's points.
func (o *Object) Dims() int { return o.dims }

// point returns the i-th point as a view of the coordinate slab.
func (o *Object) point(i int) geom.Point {
	d := o.dims
	return o.coords[i*d : (i+1)*d : (i+1)*d]
}

// At returns the i-th point and its membership, in descending-membership
// order. The returned point must not be modified.
func (o *Object) At(i int) (geom.Point, float64) { return o.point(i), o.mus[i] }

// AppendLevels appends the distinct membership values U_A to dst in
// ascending order (the last is always 1) and returns the extended slice.
func (o *Object) AppendLevels(dst []float64) []float64 {
	for i := len(o.mus) - 1; i >= 0; i-- {
		if i == len(o.mus)-1 || o.mus[i] != o.mus[i+1] {
			dst = append(dst, o.mus[i])
		}
	}
	return dst
}

// MinLevel returns the smallest membership value of any point.
func (o *Object) MinLevel() float64 { return o.mus[len(o.mus)-1] }

// cutLen returns the number of points in the α-cut: how many of the
// non-increasing memberships are ≥ α (none for α > 1, all for α ≤ MinLevel).
func (o *Object) cutLen(alpha float64) int {
	lo, hi := 0, len(o.mus)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.mus[mid] >= alpha {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cutCoords returns the coordinates of the α-cut, a prefix of the slab.
func (o *Object) cutCoords(alpha float64) []float64 {
	return o.coords[:o.cutLen(alpha)*o.dims]
}

// CutSize returns |A_α| without materializing the cut.
func (o *Object) CutSize(alpha float64) int { return o.cutLen(alpha) }

// MBRInto writes M_A(α), the exact MBR of the α-cut, into dst's corner
// slices when they have capacity (allocating one slab for both otherwise)
// and returns it, append-style. It is one pass over the cut's points, the
// first cutLen(α) of the slab: minimum and maximum are exact, so the box is
// the cut's bounding rectangle bit for bit. For α > 1 the cut is empty and
// the result is the empty rectangle, leaving dst untouched.
func (o *Object) MBRInto(alpha float64, dst geom.Rect) geom.Rect {
	cut := o.cutCoords(alpha)
	if len(cut) == 0 {
		return geom.Rect{}
	}
	d := o.dims
	lo, hi := dst.Lo, dst.Hi
	if cap(lo) < d || cap(hi) < d {
		box := make([]float64, 2*d)
		lo, hi = box[:d:d], box[d:]
	}
	lo, hi = lo[:d], hi[:d]
	copy(lo, cut[:d])
	copy(hi, cut[:d])
	for i := d; i < len(cut); i += d {
		for j, c := range cut[i : i+d] {
			if c < lo[j] {
				lo[j] = c
			} else if c > hi[j] {
				hi[j] = c
			}
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// MBR returns the exact MBR M_A(α) of the α-cut in fresh memory. For α > 1
// it returns the empty rectangle.
func (o *Object) MBR(alpha float64) geom.Rect { return o.MBRInto(alpha, geom.Rect{}) }

// SupportMBR returns the exact MBR of the support, M_A(0) in paper notation,
// in fresh memory.
func (o *Object) SupportMBR() geom.Rect { return o.MBR(0) }

// Coords returns all coordinates as one slab, point i (in At order) at
// [i*Dims():(i+1)*Dims()]. The result must not be modified.
func (o *Object) Coords() []float64 { return o.coords }

// Memberships returns the membership values in At order (non-increasing).
// The result must not be modified.
func (o *Object) Memberships() []float64 { return o.mus }

// WeightedPoints returns a copy of the object's points with memberships, in
// descending-membership order.
func (o *Object) WeightedPoints() []WeightedPoint {
	coords := slices.Clone(o.coords)
	out := make([]WeightedPoint, len(o.mus))
	for i := range out {
		out[i] = WeightedPoint{P: coords[i*o.dims : (i+1)*o.dims : (i+1)*o.dims], Mu: o.mus[i]}
	}
	return out
}

// Rep returns the object's representative kernel point (§3.4): a
// deterministic pseudo-random pick so that index rebuilds are reproducible.
// It is a copy: a view would keep the whole coordinate slab alive with it.
func (o *Object) Rep() geom.Point { return o.point(o.repIndex()).Clone() }

// repIndex returns the index of the representative point among the kernel's.
func (o *Object) repIndex() int {
	// SplitMix64 of the id selects the kernel index.
	x := o.id + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(o.cutLen(1)))
}

// String summarizes the object.
func (o *Object) String() string {
	return fmt.Sprintf("fuzzy.Object{id=%d, n=%d, dims=%d, levels=%d}",
		o.id, len(o.mus), o.dims, countLevels(o.mus, nil))
}
