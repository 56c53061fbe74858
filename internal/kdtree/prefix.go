package kdtree

import (
	"math"

	"fuzzyknn/internal/geom"
)

// PrefixTree is a Tree that also answers nearest-neighbour queries restricted
// to a prefix of its input: "nearest among the first m points". Every tree
// position carries the smallest original index found in the subtree it
// roots, so a descent skips a subtree none of whose points lies in the
// prefix. A point set whose order means something — a fuzzy object's points
// are stored in descending membership, so every α-cut is a prefix — is
// thereby indexed once for all of its prefixes and needs no incremental
// insertion (see fuzzy.ComputeProfile).
//
// The annotation is computed in a pass of its own after the build, and lives
// here rather than in Tree: hot paths that rebuild a plain Tree per search
// (fuzzy.DistEval) pay nothing for it. The zero value is an empty tree.
type PrefixTree struct {
	Tree
	minIdx []int // per tree position: the smallest idx in the subtree rooted there
}

// Rebuild reconstructs the tree over coords in place, as Tree.Rebuild does,
// then annotates it. Buffers are reused when they have capacity.
func (t *PrefixTree) Rebuild(coords []float64, dims int) {
	t.Tree.Rebuild(coords, dims)
	n := t.Len()
	if cap(t.minIdx) < n {
		t.minIdx = make([]int, n)
	}
	t.minIdx = t.minIdx[:n]
	t.annotate(0, n)
}

// annotate fills minIdx for the subtree over positions [lo, hi) and returns
// that subtree's minimum.
func (t *PrefixTree) annotate(lo, hi int) int {
	if hi <= lo {
		return math.MaxInt
	}
	mid := (lo + hi) / 2
	m := min(t.idx[mid], t.annotate(lo, mid), t.annotate(mid+1, hi))
	t.minIdx[mid] = m
	return m
}

// NearestInPrefixSq returns the index and the squared distance of the point
// nearest to q among the first m points of the Rebuild input, considering
// only points whose squared distance is strictly less than boundSq. It
// returns (-1, +Inf) when no point qualifies. Distances are squared on both
// sides so that a running minimum threaded through successive calls never
// passes through a square root (whose square need not round back).
func (t *PrefixTree) NearestInPrefixSq(q geom.Point, m int, boundSq float64) (int, float64) {
	if len(t.idx) == 0 || m <= 0 {
		return -1, math.Inf(1)
	}
	t.checkDims(q)
	bestIdx := -1
	t.searchPrefix(q, 0, len(t.idx), 0, m, &bestIdx, &boundSq)
	if bestIdx < 0 {
		return -1, math.Inf(1)
	}
	return bestIdx, boundSq
}

// searchPrefix is Tree.search over the points with idx < m.
func (t *PrefixTree) searchPrefix(q geom.Point, lo, hi, axis, m int, bestIdx *int, bestSq *float64) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	if t.minIdx[mid] >= m {
		return
	}
	p := t.coords[mid*len(q):][:len(q)]
	if i := t.idx[mid]; i < m {
		if d := distSq(q, p); d < *bestSq {
			*bestSq = d
			*bestIdx = i
		}
	}
	diff := q[axis] - p[axis]
	next := axis + 1
	if next == len(q) {
		next = 0
	}
	// The splitting plane separates all of a side's points from q, in or
	// out of the prefix, so Tree.search's pruning carries over unchanged.
	if diff < 0 {
		t.searchPrefix(q, lo, mid, next, m, bestIdx, bestSq)
		if diff*diff < *bestSq {
			t.searchPrefix(q, mid+1, hi, next, m, bestIdx, bestSq)
		}
	} else {
		t.searchPrefix(q, mid+1, hi, next, m, bestIdx, bestSq)
		if diff*diff < *bestSq {
			t.searchPrefix(q, lo, mid, next, m, bestIdx, bestSq)
		}
	}
}
