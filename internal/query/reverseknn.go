package query

import (
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/rtree"
)

// ReverseKNN answers the reverse kNN query the paper lists as future work
// (§8): every object A that would count q among its own k nearest
// neighbors at threshold α — formally, fewer than k stored objects B ≠ A
// satisfy (d_α(A,B), id_B) < (d_α(A,q), id_q).
//
// The algorithm filters with summary-only bounds before paying any IO:
//
//  1. For each leaf entry A, lb = MinDist(M_A(α)*, M_Q(α)) lower-bounds
//     d_α(A, q). Representative kernel points give an upper bound for any
//     pair: ‖rep(A) − rep(B)‖ ≥ d_α(A, B) (both points belong to every
//     α-cut). If at least k representative points lie strictly within lb
//     of rep(A), then k objects are provably closer to A than q is, and A
//     is pruned without a single probe.
//  2. Survivors are verified exactly: probe A, compute d_α(A, q), and run
//     an α-range search around A with that radius, counting strictly
//     closer objects (ties broken by id against id_q) with early exit at k.
//
// Results are ordered by (d_α(A, q), id). The query object's id only
// breaks exact distance ties.
func (ix *Index) ReverseKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	s := ix.read()
	if err := ix.validateQuery(s, q, k, alpha); err != nil {
		return nil, st, err
	}
	sc := getScratch()
	defer putScratch(sc)
	cands, err := ix.reverseCandidates(sc, s, q, k, alpha, &st)
	if err != nil {
		return nil, st, err
	}
	results := make([]Result, len(cands))
	for i, c := range cands {
		results[i] = Result{ID: c.obj.ID(), Dist: c.dist, Exact: true, Lower: c.dist, Upper: c.dist}
	}
	sortResults(results)
	st.Duration = time.Since(started)
	return results, st, nil
}

// revCandidate is one verified reverse-kNN answer within a single tree: the
// probed object, its exact distance to q, and how many objects of the SAME
// tree are strictly closer to it than q (exact, in [0, k)).
type revCandidate struct {
	obj    *fuzzy.Object
	dist   float64
	closer int
}

// reverseCandidates runs the filter+verify pipeline against one snapshot
// and returns the surviving candidates in tree order. On a single-tree
// index these are the final answers; a sharded coordinator treats them as
// a conservative candidate set (membership in the global answer requires
// that the closer-counts summed across all shards stay below k) and
// finishes the count against the other shards. All traversal state lives
// in sc; the returned candidates are freshly allocated and safe to keep.
func (ix *Index) reverseCandidates(sc *scratch, s *snapshot, q *fuzzy.Object, k int, alpha float64, st *Stats) ([]revCandidate, error) {
	mq := q.MBR(alpha)

	// Collect leaf entries and build the representative-point tree, both in
	// scratch storage.
	items := collectLeafItems(sc.items[:0], s.tree.Root(), st)
	sc.items = items
	if len(items) == 0 {
		return nil, nil
	}
	reps := sc.repCoords[:0]
	for _, it := range items {
		reps = append(reps, it.rep...)
	}
	sc.repCoords = reps
	sc.repTree.Rebuild(reps, s.dims)
	sc.dist.Reset(q, alpha)

	var cands []revCandidate
	for i, it := range items {
		sc.est = it.approx.EstimateMBRInto(alpha, sc.est)
		lb := geom.MinDist(sc.est, mq)
		// Filter: k other representatives strictly within lb of rep(A)
		// certify k objects closer than q. The strictness margin excludes
		// A's own representative (distance 0) separately.
		if lb > 0 {
			closer := 0
			sc.repTree.ForEachWithin(it.rep, lb, func(j int, d float64) bool {
				if j != i && d < lb {
					closer++
				}
				return closer < k
			})
			if closer >= k {
				continue
			}
		}
		// Verify: exact d_α(A, q), then count strictly closer objects.
		a, err := ix.getObject(it.id, st)
		if err != nil {
			return nil, err
		}
		st.DistanceEvals++
		dq := sc.dist.Dist(a)
		closer, err := ix.countCloser(sc, s, a, alpha, dq, q.ID(), k, st)
		if err != nil {
			return nil, err
		}
		if closer < k {
			cands = append(cands, revCandidate{obj: a, dist: dq, closer: closer})
		}
	}
	if err := ix.pagedErr(); err != nil {
		return nil, err
	}
	return cands, nil
}

// collectLeafItems appends every leaf item below n to dst, charging node
// accesses to st.
func collectLeafItems(dst []*leafItem, n *rtree.Node, st *Stats) []*leafItem {
	n = resolveNode(n, st)
	if len(n.Entries()) == 0 {
		return dst
	}
	st.NodeAccesses++
	for _, e := range n.Entries() {
		if n.Leaf() {
			dst = append(dst, e.Data.(*leafItem))
		} else {
			dst = collectLeafItems(dst, e.Child, st)
		}
	}
	return dst
}

// closerRun is the closure-free state of one countCloser traversal.
type closerRun struct {
	ix     *Index
	ma     geom.Rect
	aID    uint64
	alpha  float64
	radius float64
	qID    uint64
	limit  int
	st     *Stats
	sc     *scratch
	count  int
}

// countCloser counts stored objects B ≠ a with (d_α(a,B), id_B) <
// (radius, qID), stopping at limit. It prunes subtrees and entries whose
// lower bound already exceeds radius. The secondary distance evaluator is
// pinned to (a, α) so consecutive evaluations against a share one tree.
func (ix *Index) countCloser(sc *scratch, s *snapshot, a *fuzzy.Object, alpha, radius float64, qID uint64, limit int, st *Stats) (int, error) {
	sc.dist2.Reset(a, alpha)
	r := &closerRun{
		ix:     ix,
		ma:     a.MBR(alpha),
		aID:    a.ID(),
		alpha:  alpha,
		radius: radius,
		qID:    qID,
		limit:  limit,
		st:     st,
		sc:     sc,
	}
	if root := s.tree.Root(); len(root.Entries()) > 0 {
		if err := r.visit(root); err != nil {
			return 0, err
		}
	}
	if err := ix.pagedErr(); err != nil {
		return 0, err
	}
	return r.count, nil
}

func (r *closerRun) visit(n *rtree.Node) error {
	r.st.NodeAccesses++
	ents := n.Entries()
	for i := range ents {
		if r.count >= r.limit {
			return nil
		}
		if n.Leaf() {
			it := ents[i].Data.(*leafItem)
			if it.id == r.aID {
				continue
			}
			r.sc.est = it.approx.EstimateMBRInto(r.alpha, r.sc.est)
			if geom.MinDist(r.sc.est, r.ma) > r.radius {
				continue
			}
			b, err := r.ix.getObject(it.id, r.st)
			if err != nil {
				return err
			}
			r.st.DistanceEvals++
			d := r.sc.dist2.Dist(b)
			if d < r.radius || (d == r.radius && it.id < r.qID) {
				r.count++
			}
		} else if n.EntryMinDist(i, r.ma) <= r.radius {
			if err := r.visit(resolveNode(ents[i].Child, r.st)); err != nil {
				return err
			}
		}
	}
	return nil
}
