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
	sc := getScratch()
	defer putScratch(sc)
	return reverseKNN(sc, sc.pin(ix), q, k, alpha)
}

// reverseKNN is the one ReverseKNN, over the forest of the views' trees.
// Each tree first runs the filter+verify pipeline on its own objects
// (reverseTree; q alone fixes the bounds, so the trees of a forest run
// concurrently), which decides the answer on one tree and is a conservative
// filter on several: an object with ≥ k closer neighbors in its own tree
// has ≥ k in the forest. A survivor then qualifies iff its closer-counts
// summed over all trees stay below k, which the second loop completes
// against the other trees with early exit at k.
func reverseKNN(sc *scratch, views []shardView, q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	started := time.Now()
	if err := validateArgs(views, q, k, alpha); err != nil {
		return nil, Stats{}, err
	}
	sc.stats = Stats{}
	var cands []revCandidate
	var err error
	if len(views) == 1 {
		cands, err = reverseTree(sc, views[0], 0, q, k, alpha)
	} else {
		sc.revCands = sc.revCands[:0]
		err = fanOut(sc, views, &sc.revCands, func(sub *scratch, tree int) ([]revCandidate, error) {
			return reverseTree(sub, views[tree], tree, q, k, alpha)
		})
		cands = sc.revCands
	}
	if err != nil {
		return nil, sc.stats, err
	}
	results := make([]Result, 0, len(cands))
	for _, c := range cands {
		closer := c.closer
		for j := 0; j < len(views) && closer < k; j++ {
			if j == c.tree {
				continue
			}
			n, err := countCloser(sc, views[j], c.obj, alpha, c.dist, q.ID(), k-closer)
			if err != nil {
				return nil, sc.stats, err
			}
			closer += n
		}
		if closer < k {
			results = append(results, exactResult(c.obj.ID(), c.dist))
		}
	}
	sortResults(results)
	sc.stats.Duration = time.Since(started)
	return results, sc.stats, nil
}

// revCandidate is one object that passed filter+verify within its own tree:
// the probed object, its exact distance to q, the tree it lives in, and how
// many objects of that tree are strictly closer to it than q (exact, in
// [0, k)).
type revCandidate struct {
	obj    *fuzzy.Object
	dist   float64
	tree   int
	closer int
}

// reverseTree runs the filter+verify pipeline over v, the tree-th tree of
// the forest, and returns the surviving candidates in sc.revCands; all
// traversal state lives in sc and the work is charged to sc.stats.
func reverseTree(sc *scratch, v shardView, tree int, q *fuzzy.Object, k int, alpha float64) ([]revCandidate, error) {
	st := &sc.stats
	sc.revCands = sc.revCands[:0]

	// Collect the leaf entries, bounded against the pinned evaluator's
	// M_Q(α), and build the representative-point tree, both in scratch
	// storage.
	sc.dist.Reset(q, alpha)
	sc.revEntries, sc.repCoords = sc.revEntries[:0], sc.repCoords[:0]
	sc.collectLeaves(v.s.tree.Root(), alpha, sc.dist.QueryMBR())
	if len(sc.revEntries) == 0 {
		return nil, nil
	}
	dims := v.s.dims
	sc.repTree.Rebuild(sc.repCoords, dims)

	for i, it := range sc.revEntries {
		lb := it.lb
		// Filter: k other representatives strictly within lb of rep(A)
		// certify k objects closer than q. The strictness margin excludes
		// A's own representative (distance 0) separately.
		if lb > 0 {
			closer := 0
			sc.repTree.ForEachWithin(sc.repCoords[i*dims:(i+1)*dims], lb, func(j int, d float64) bool {
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
		a, err := v.ix.getObject(it.id, st)
		if err != nil {
			return nil, err
		}
		st.DistanceEvals++
		dq := sc.dist.Dist(a)
		closer, err := countCloser(sc, v, a, alpha, dq, q.ID(), k)
		if err != nil {
			return nil, err
		}
		if closer < k {
			sc.revCands = append(sc.revCands, revCandidate{obj: a, dist: dq, tree: tree, closer: closer})
		}
	}
	return sc.revCands, v.ix.pagedErr()
}

// revEntry is one leaf entry as reverse kNN's filter reads it: the object's
// id and the §3.2 lower bound of its distance to the query.
type revEntry struct {
	id uint64
	lb float64
}

// collectLeaves appends every leaf entry below n to sc.revEntries, with its
// bound to mq at alpha, and its representative point to sc.repCoords,
// charging node accesses to sc.stats.
func (sc *scratch) collectLeaves(n *rtree.Node, alpha float64, mq geom.Rect) {
	n = resolveNode(n, &sc.stats)
	if n.Len() == 0 {
		return
	}
	sc.stats.NodeAccesses++
	for i := 0; i < n.Len(); i++ {
		if !n.Leaf() {
			sc.collectLeaves(n.Child(i), alpha, mq)
			continue
		}
		box, sum := n.EntrySummary(i)
		sc.revEntries = append(sc.revEntries, revEntry{id: n.ID(i), lb: fuzzy.EstimateMinDist(box, sum, alpha, mq)})
		sc.repCoords = append(sc.repCoords, fuzzy.SummaryRep(sum, len(box)/2)...)
	}
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
	sc     *scratch
	count  int
}

// countCloser counts the objects B ≠ a of one tree with (d_α(a,B), id_B) <
// (radius, qID), stopping at limit. It prunes subtrees and entries whose
// lower bound already exceeds radius. The secondary distance evaluator is
// pinned to (a, α) so consecutive evaluations against a share one tree.
func countCloser(sc *scratch, v shardView, a *fuzzy.Object, alpha, radius float64, qID uint64, limit int) (int, error) {
	sc.dist2.Reset(a, alpha)
	r := &closerRun{
		ix:     v.ix,
		ma:     sc.dist2.QueryMBR(),
		aID:    a.ID(),
		alpha:  alpha,
		radius: radius,
		qID:    qID,
		limit:  limit,
		sc:     sc,
	}
	if root := v.s.tree.Root(); root.Len() > 0 {
		if err := r.visit(root); err != nil {
			return 0, err
		}
	}
	return r.count, v.ix.pagedErr()
}

func (r *closerRun) visit(n *rtree.Node) error {
	st := &r.sc.stats
	st.NodeAccesses++
	for i := 0; i < n.Len(); i++ {
		if r.count >= r.limit {
			return nil
		}
		if n.Leaf() {
			id := n.ID(i)
			if id == r.aID {
				continue
			}
			if box, sum := n.EntrySummary(i); fuzzy.EstimateMinDist(box, sum, r.alpha, r.ma) > r.radius {
				continue
			}
			b, err := r.ix.getObject(id, st)
			if err != nil {
				return err
			}
			st.DistanceEvals++
			d := r.sc.dist2.Dist(b)
			if d < r.radius || (d == r.radius && id < r.qID) {
				r.count++
			}
		} else if n.EntryMinDist(i, r.ma) <= r.radius {
			if err := r.visit(resolveNode(n.Child(i), st)); err != nil {
				return err
			}
		}
	}
	return nil
}
