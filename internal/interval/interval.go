// Package interval provides one-dimensional interval arithmetic with
// open/closed endpoints.
//
// RKNN queries return each result object together with its *qualifying
// range* — the subset of the queried probability range on which the object
// belongs to the kNN set. Because α-distances are step functions with
// plateaus of the form (u_j, u_{j+1}], qualifying ranges are in general
// unions of half-open intervals, e.g. the paper's running example
// ⟨B, [0.3, 0.45] ∪ (0.55, 0.6]⟩. This package represents such unions
// exactly.
package interval

import (
	"fmt"
	"slices"
	"strings"
)

// Interval is a contiguous range between Lo and Hi, each endpoint
// independently open or closed. The zero value is the empty interval.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
	nonEmpty       bool
}

// Closed returns [lo, hi]. It panics if lo > hi.
func Closed(lo, hi float64) Interval { return newInterval(lo, hi, false, false) }

// OpenClosed returns (lo, hi]. It panics if lo > hi; (x, x] is empty.
func OpenClosed(lo, hi float64) Interval { return newInterval(lo, hi, true, false) }

// ClosedOpen returns [lo, hi). It panics if lo > hi; [x, x) is empty.
func ClosedOpen(lo, hi float64) Interval { return newInterval(lo, hi, false, true) }

// Open returns (lo, hi). It panics if lo > hi; (x, x) is empty.
func Open(lo, hi float64) Interval { return newInterval(lo, hi, true, true) }

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Closed(x, x) }

// Make builds an interval from explicit endpoint flags.
func Make(lo, hi float64, loOpen, hiOpen bool) Interval {
	return newInterval(lo, hi, loOpen, hiOpen)
}

func newInterval(lo, hi float64, loOpen, hiOpen bool) Interval {
	if lo > hi {
		panic(fmt.Sprintf("interval: lo %v > hi %v", lo, hi))
	}
	if lo == hi && (loOpen || hiOpen) {
		return Interval{} // empty
	}
	return Interval{Lo: lo, Hi: hi, LoOpen: loOpen, HiOpen: hiOpen, nonEmpty: true}
}

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return !iv.nonEmpty }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	if iv.IsEmpty() {
		return false
	}
	if x < iv.Lo || x > iv.Hi {
		return false
	}
	if x == iv.Lo && iv.LoOpen {
		return false
	}
	if x == iv.Hi && iv.HiOpen {
		return false
	}
	return true
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	if iv.Lo > o.Lo || (iv.Lo == o.Lo && iv.LoOpen && !o.LoOpen) {
		iv, o = o, iv // ensure iv starts first (or equal with iv closed)
	}
	switch {
	case o.Lo < iv.Hi:
		return true
	case o.Lo > iv.Hi:
		return false
	default: // o.Lo == iv.Hi: they share that single point only if both ends include it
		return !iv.HiOpen && !o.LoOpen
	}
}

// mergeableWith reports whether the union of the two intervals is itself a
// contiguous interval (they overlap or touch with at least one closed end at
// the junction).
func (iv Interval) mergeableWith(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	if iv.Overlaps(o) {
		return true
	}
	// Disjoint: contiguous only when they touch at a shared endpoint with
	// complementary openness, e.g. [a,b] ∪ (b,c] or [a,b) ∪ [b,c].
	if iv.Hi == o.Lo && (iv.HiOpen != o.LoOpen || (!iv.HiOpen && !o.LoOpen)) {
		return true
	}
	if o.Hi == iv.Lo && (o.HiOpen != iv.LoOpen || (!o.HiOpen && !iv.LoOpen)) {
		return true
	}
	return false
}

// merge returns the union of two mergeable intervals.
func (iv Interval) merge(o Interval) Interval {
	lo, loOpen := iv.Lo, iv.LoOpen
	if o.Lo < lo || (o.Lo == lo && !o.LoOpen) {
		lo, loOpen = o.Lo, o.LoOpen
	}
	hi, hiOpen := iv.Hi, iv.HiOpen
	if o.Hi > hi || (o.Hi == hi && !o.HiOpen) {
		hi, hiOpen = o.Hi, o.HiOpen
	}
	return Interval{Lo: lo, Hi: hi, LoOpen: loOpen, HiOpen: hiOpen, nonEmpty: true}
}

// Intersect returns the common part of the two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Interval{}
	}
	lo, loOpen := iv.Lo, iv.LoOpen
	if o.Lo > lo || (o.Lo == lo && o.LoOpen) {
		lo, loOpen = o.Lo, o.LoOpen
	}
	hi, hiOpen := iv.Hi, iv.HiOpen
	if o.Hi < hi || (o.Hi == hi && o.HiOpen) {
		hi, hiOpen = o.Hi, o.HiOpen
	}
	if lo > hi || (lo == hi && (loOpen || hiOpen)) {
		return Interval{}
	}
	return Interval{Lo: lo, Hi: hi, LoOpen: loOpen, HiOpen: hiOpen, nonEmpty: true}
}

// Equal reports exact equality (all empty intervals are equal).
func (iv Interval) Equal(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return iv.IsEmpty() == o.IsEmpty()
	}
	return iv.Lo == o.Lo && iv.Hi == o.Hi && iv.LoOpen == o.LoOpen && iv.HiOpen == o.HiOpen
}

// String renders the interval in mathematical notation, e.g. "(0.55, 0.6]".
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	l, r := "[", "]"
	if iv.LoOpen {
		l = "("
	}
	if iv.HiOpen {
		r = ")"
	}
	return fmt.Sprintf("%s%g, %g%s", l, iv.Lo, iv.Hi, r)
}

// Set is a union of intervals kept in canonical form: sorted, disjoint and
// non-adjacent (maximal) intervals. The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a canonical set from arbitrary intervals.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Add unions iv into the set.
func (s *Set) Add(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	merged := iv
	out := s.ivs[:0]
	for _, cur := range s.ivs {
		if merged.mergeableWith(cur) {
			merged = merged.merge(cur)
		} else {
			out = append(out, cur)
		}
	}
	out = append(out, merged)
	// slices.SortFunc rather than sort.Slice: the latter boxes its closure
	// and allocates, which the zero-allocation RKNN accumulation path (one
	// Add per qualifying plateau) cannot afford.
	slices.SortFunc(out, func(a, b Interval) int {
		switch {
		case a.Lo < b.Lo:
			return -1
		case a.Lo > b.Lo:
			return 1
		case !a.LoOpen && b.LoOpen:
			return -1
		case a.LoOpen && !b.LoOpen:
			return 1
		}
		return 0
	})
	s.ivs = out
}

// Clear empties the set in place, keeping its backing capacity for reuse.
func (s *Set) Clear() { s.ivs = s.ivs[:0] }

// CopyFrom replaces s's contents with o's, reusing s's backing capacity.
// Pooled query scratch uses it to hand results to caller-owned buffers
// without aliasing scratch-owned interval storage.
func (s *Set) CopyFrom(o Set) { s.ivs = append(s.ivs[:0], o.ivs...) }

// Intervals returns the canonical intervals in ascending order. The returned
// slice must not be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// IsEmpty reports whether the set contains no points.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// Contains reports whether x lies in any member interval.
func (s Set) Contains(x float64) bool {
	// Binary search over sorted intervals.
	lo, hi := 0, len(s.ivs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := s.ivs[mid]
		switch {
		case iv.Contains(x):
			return true
		case x < iv.Lo || (x == iv.Lo && iv.LoOpen):
			hi = mid - 1
		default:
			lo = mid + 1
		}
	}
	return false
}

// Equal reports whether two sets cover exactly the same points.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if !s.ivs[i].Equal(o.ivs[i]) {
			return false
		}
	}
	return true
}

// Min returns the infimum of the set; ok is false for the empty set.
func (s Set) Min() (x float64, ok bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[0].Lo, true
}

// Max returns the supremum of the set; ok is false for the empty set.
func (s Set) Max() (x float64, ok bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[len(s.ivs)-1].Hi, true
}

// String renders the set as "∅" or "iv1 ∪ iv2 ∪ ...".
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
