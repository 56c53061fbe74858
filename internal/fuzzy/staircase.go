package fuzzy

import (
	"sort"

	"fuzzyknn/internal/geom"
)

// MBREstimator produces an enclosing approximation of M_A(α) for any α.
// BoundaryApprox (the paper's optimal conservative line, §3.2) is the
// default; StaircaseApprox realizes the paper's future-work remark that the
// boundary function could be approximated "by arbitrary function" at more
// storage cost.
type MBREstimator interface {
	EstimateMBR(alpha float64) geom.Rect
	// EstimateMBRInto is EstimateMBR writing into dst's backing arrays when
	// they have capacity (allocating fresh ones otherwise) and returning
	// the resulting rectangle, append-style. The result must be backed by
	// dst (or fresh memory), never by the estimator's own storage: callers
	// hold it in pooled scratch and pass it back as a writable dst later,
	// so an aliasing return would let one index's estimates corrupt
	// another's shared state. The result is only valid until the next call
	// with the same dst and must not be retained by search loops.
	EstimateMBRInto(alpha float64, dst geom.Rect) geom.Rect
	// SupportRect returns M_A(0), the rectangle the R-tree indexes.
	SupportRect() geom.Rect
}

// BoundaryApprox implements MBREstimator.
func (b *BoundaryApprox) SupportRect() geom.Rect { return b.Support }

var _ MBREstimator = (*BoundaryApprox)(nil)

// StaircaseApprox approximates every cut MBR by a conservative staircase
// over at most Steps membership levels: because α-cuts shrink as α grows,
// the exact MBR at the largest retained level ≤ α encloses M_A(α). With
// Steps ≥ |U_A| the estimate is exact; smaller budgets trade probes for
// memory. Storage is O(Steps · d) versus the line's O(d).
type StaircaseApprox struct {
	levels []float64   // ascending subset of U_A, first entry is the minimum level
	rects  []geom.Rect // rects[i] = exact M_A(levels[i])
}

// NewStaircaseApprox samples at most steps levels of the object's exact
// per-level MBRs (always keeping the lowest level and the kernel), choosing
// the retained levels evenly over the level index space. steps must be at
// least 2.
func NewStaircaseApprox(o *Object, steps int) *StaircaseApprox {
	if steps < 2 {
		panic("fuzzy: staircase needs at least 2 steps")
	}
	all := o.Levels()
	n := len(all)
	var picks []int
	if n <= steps {
		picks = make([]int, n)
		for i := range picks {
			picks[i] = i
		}
	} else {
		picks = make([]int, steps)
		for i := 0; i < steps; i++ {
			picks[i] = i * (n - 1) / (steps - 1)
		}
	}
	s := &StaircaseApprox{}
	prev := -1
	for _, idx := range picks {
		if idx == prev {
			continue
		}
		prev = idx
		s.levels = append(s.levels, all[idx])
		s.rects = append(s.rects, o.levelMBR(idx).Clone())
	}
	return s
}

// EstimateMBRInto implements MBREstimator by copying the precomputed
// rectangle into dst's backing arrays. Returning the stored rectangle
// directly would hand callers an aliasing, writable view of the
// estimator's shared state: hot paths store the result back into pooled
// scratch and later pass it as a writable dst to other estimators, which
// would then silently corrupt this index's rectangles.
func (s *StaircaseApprox) EstimateMBRInto(alpha float64, dst geom.Rect) geom.Rect {
	r := s.EstimateMBR(alpha)
	d := len(r.Lo)
	lo, hi := dst.Lo, dst.Hi
	if cap(lo) < d {
		lo = make(geom.Point, d)
	}
	if cap(hi) < d {
		hi = make(geom.Point, d)
	}
	lo, hi = lo[:d], hi[:d]
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	return geom.Rect{Lo: lo, Hi: hi}
}

// EstimateMBR returns the exact MBR of the cut at the largest retained
// level that is ≤ α (conservative: that cut contains A_α). For α at or
// below the minimum level the estimate is the exact support MBR.
func (s *StaircaseApprox) EstimateMBR(alpha float64) geom.Rect {
	// Find the last retained level <= alpha.
	i := sort.SearchFloat64s(s.levels, alpha)
	switch {
	case i < len(s.levels) && s.levels[i] == alpha:
		return s.rects[i]
	case i == 0:
		return s.rects[0]
	default:
		return s.rects[i-1]
	}
}

// SupportRect implements MBREstimator.
func (s *StaircaseApprox) SupportRect() geom.Rect { return s.rects[0] }

// Steps returns the number of retained levels.
func (s *StaircaseApprox) Steps() int { return len(s.levels) }

var _ MBREstimator = (*StaircaseApprox)(nil)
