package query

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/rtree"
)

// The paper closes by naming spatial join queries among the advanced
// queries its framework opens up (§8); its own distance evaluation is the
// closest-pair primitive of Corral et al. (cited as [9]). This file
// implements both for fuzzy objects:
//
//   - DistanceJoin: all pairs (a, b) with d_α(a, b) ≤ eps — the fuzzy
//     analogue of an ε-distance join, via synchronized R-tree traversal
//     with the §3.2 conservative MBR approximations as pruning bounds.
//   - KClosestPairs: the k pairs with smallest d_α — an incremental
//     best-first search over entry pairs.
//
// Both support self-joins (left == right), in which case each unordered
// pair is reported once with LeftID < RightID.
//
// Sharded indexes join by fan-out: every (left shard, right shard) tree
// pair runs the single-tree algorithm concurrently and the per-pair
// results are merged. Shard partitions are disjoint, so the union over
// tree pairs is exact; a self-join over n shards decomposes into n
// self-pairs plus n(n−1)/2 cross pairs, each unordered pair appearing in
// exactly one of them.

// JoinPair is one result pair of a join query.
type JoinPair struct {
	LeftID, RightID uint64
	Dist            float64
}

// sortPairs orders ps by (Dist, LeftID, RightID) in place — the canonical
// join result order.
func sortPairs(ps []JoinPair) {
	slices.SortFunc(ps, func(a, b JoinPair) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.LeftID < b.LeftID:
			return -1
		case a.LeftID > b.LeftID:
			return 1
		case a.RightID < b.RightID:
			return -1
		case a.RightID > b.RightID:
			return 1
		}
		return 0
	})
}

// treePair is one unit of join fan-out: a pair of single-tree indexes,
// each pinned to the snapshot read once at query start — so every pair a
// shard participates in sees the same population even under concurrent
// mutation. self marks a same-tree pair (dedup inside the traversal);
// normalize marks a cross-shard pair of a self-join, whose pairs must be
// ordered LeftID < RightID.
type treePair struct {
	left, right     *Index
	sl, sr          *snapshot
	self, normalize bool
}

// joinPairs decomposes a (possibly sharded) join into single-tree pairs
// over the snapshots each side pinned once (see joinSides).
func joinPairs(ls, rs []shardView, selfJoin bool) []treePair {
	var tasks []treePair
	if selfJoin {
		for i := range ls {
			tasks = append(tasks, treePair{left: ls[i].ix, right: ls[i].ix, sl: ls[i].s, sr: ls[i].s, self: true})
			for j := i + 1; j < len(ls); j++ {
				tasks = append(tasks, treePair{left: ls[i].ix, right: ls[j].ix, sl: ls[i].s, sr: ls[j].s, normalize: true})
			}
		}
		return tasks
	}
	for i := range ls {
		for j := range rs {
			tasks = append(tasks, treePair{left: ls[i].ix, right: rs[j].ix, sl: ls[i].s, sr: rs[j].s})
		}
	}
	return tasks
}

// runJoinPairs executes one join worker per tree pair concurrently and
// merges results and stats (first error wins). Worker outputs are
// normalized (self-join cross pairs swapped to LeftID < RightID) but not
// yet sorted.
func runJoinPairs(tasks []treePair, worker func(treePair) ([]JoinPair, Stats, error)) ([]JoinPair, Stats, error) {
	outs := make([][]JoinPair, len(tasks))
	stats := make([]Stats, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, tk := range tasks {
		wg.Add(1)
		go func(i int, tk treePair) {
			defer wg.Done()
			outs[i], stats[i], errs[i] = worker(tk)
		}(i, tk)
	}
	wg.Wait()
	var st Stats
	var all []JoinPair
	for i := range tasks {
		if errs[i] != nil {
			return nil, st, errs[i]
		}
		addParallel(&st, stats[i])
		if tasks[i].normalize {
			for j := range outs[i] {
				if outs[i][j].LeftID > outs[i][j].RightID {
					outs[i][j].LeftID, outs[i][j].RightID = outs[i][j].RightID, outs[i][j].LeftID
				}
			}
		}
		all = append(all, outs[i]...)
	}
	return all, st, nil
}

// DistanceJoin returns every pair (a ∈ left, b ∈ right) with
// d_α(a, b) ≤ eps, ordered by (Dist, LeftID, RightID). Objects are probed
// at most once per side per tree pair; Stats.ObjectAccesses counts probes
// on both sides. Pass the same index twice for a self-join; each unordered
// pair is then reported once.
func DistanceJoin(left, right Searcher, alpha, eps float64) ([]JoinPair, Stats, error) {
	started := time.Now()
	var st Stats
	ls, rs, selfJoin, err := joinSides(left, right, alpha)
	if err != nil {
		return nil, st, err
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, st, badArgf("query: join epsilon must be non-negative, got %v", eps)
	}
	out, st, err := runJoinPairs(joinPairs(ls, rs, selfJoin), func(tk treePair) ([]JoinPair, Stats, error) {
		return distanceJoinTrees(tk, alpha, eps)
	})
	if err != nil {
		return nil, st, err
	}
	sortPairs(out)
	st.Duration = time.Since(started)
	return out, st, nil
}

// distanceJoinTrees is the single-tree-pair ε-join worker. It runs in its
// own pooled scratch: the α-distance evaluator is pinned to the current
// left object, so a run of candidate pairs sharing a left side reuses one
// prebuilt cut tree instead of rebuilding per pair.
func distanceJoinTrees(tk treePair, alpha, eps float64) ([]JoinPair, Stats, error) {
	var st Stats
	left, right := tk.left, tk.right
	sl, sr, selfPair := tk.sl, tk.sr, tk.self
	sc := getScratch()
	defer putScratch(sc)
	// The worker re-pins the evaluator only when the left object changes; a
	// stale pin from the scratch's previous execution could alias the first
	// left object here (stable store pointers) and carry the wrong α.
	sc.dist.Invalidate()

	leftObjs := make(map[uint64]*fuzzy.Object)
	rightObjs := leftObjs
	if left != right {
		rightObjs = make(map[uint64]*fuzzy.Object)
	}
	probe := func(ix *Index, cache map[uint64]*fuzzy.Object, id uint64) (*fuzzy.Object, error) {
		if o, ok := cache[id]; ok {
			return o, nil
		}
		o, err := ix.getObject(id, &st)
		if err != nil {
			return nil, err
		}
		cache[id] = o
		return o, nil
	}

	var out []JoinPair
	var walk func(a, b *rtree.Node) error
	walk = func(a, b *rtree.Node) error {
		a, b = resolveNode(a, &st), resolveNode(b, &st)
		st.NodeAccesses++
		switch {
		case !a.Leaf() && !b.Leaf():
			for i := 0; i < a.Len(); i++ {
				for j := 0; j < b.Len(); j++ {
					if geom.MinDist(a.EntryRect(i), b.EntryRect(j)) <= eps {
						if err := walk(a.Child(i), b.Child(j)); err != nil {
							return err
						}
					}
				}
			}
		case !a.Leaf():
			for i := 0; i < a.Len(); i++ {
				if geom.MinDist(a.EntryRect(i), b.Bounds()) <= eps {
					if err := walk(a.Child(i), b); err != nil {
						return err
					}
				}
			}
		case !b.Leaf():
			for j := 0; j < b.Len(); j++ {
				if geom.MinDist(a.Bounds(), b.EntryRect(j)) <= eps {
					if err := walk(a, b.Child(j)); err != nil {
						return err
					}
				}
			}
		default:
			for i := 0; i < a.Len(); i++ {
				ia := a.ID(i)
				// a's estimate stays live across the inner loop; b's bound is
				// read off b's slab against it. MinDist is symmetric, so this
				// is MinDist(M_a(α)*, M_b(α)*) to the bit.
				boxA, sumA := a.EntrySummary(i)
				sc.est = fuzzy.EstimateInto(boxA, sumA, alpha, sc.est)
				for j := 0; j < b.Len(); j++ {
					ib := b.ID(j)
					if selfPair && ia >= ib {
						continue // each unordered pair once; no self-pairs
					}
					if box, sum := b.EntrySummary(j); fuzzy.EstimateMinDist(box, sum, alpha, sc.est) > eps {
						continue
					}
					oa, err := probe(left, leftObjs, ia)
					if err != nil {
						return err
					}
					ob, err := probe(right, rightObjs, ib)
					if err != nil {
						return err
					}
					st.DistanceEvals++
					if sc.dist.Query() != oa {
						sc.dist.Reset(oa, alpha)
					}
					if d := sc.dist.Dist(ob); d <= eps {
						out = append(out, JoinPair{LeftID: ia, RightID: ib, Dist: d})
					}
				}
			}
		}
		return nil
	}
	if sl.tree.Len() > 0 && sr.tree.Len() > 0 {
		if err := walk(sl.tree.Root(), sr.tree.Root()); err != nil {
			return nil, st, err
		}
	}
	if err := left.pagedErr(); err != nil {
		return nil, st, err
	}
	if err := right.pagedErr(); err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// joinSides validates a join's arguments and decomposes both sides into
// their single-tree shards, each side pinned once.
func joinSides(left, right Searcher, alphas ...float64) (ls, rs []shardView, selfJoin bool, err error) {
	if left == nil || right == nil {
		return nil, nil, false, badArgf("query: nil index in join")
	}
	ls, err = shardTrees(left)
	if err != nil {
		return nil, nil, false, err
	}
	rs, err = shardTrees(right)
	if err != nil {
		return nil, nil, false, err
	}
	if ld, rd := left.Dims(), right.Dims(); ld != 0 && rd != 0 && ld != rd {
		return nil, nil, false, badArgf("query: join dims %d vs %d", ld, rd)
	}
	if err := validateAlphas(alphas...); err != nil {
		return nil, nil, false, err
	}
	return ls, rs, left == right, nil
}

// shardTrees pins the single-tree indexes behind a Searcher.
func shardTrees(s Searcher) ([]shardView, error) {
	switch v := s.(type) {
	case *Index:
		return []shardView{{v, v.read()}}, nil
	case *PagedIndex:
		return []shardView{{v.Index, v.Index.read()}}, nil
	case *ShardedIndex:
		var sc scratch // only its views are used
		return v.pin(&sc), nil
	}
	return nil, fmt.Errorf("query: join over unsupported index type %T", s)
}

// pair-queue element kinds for KClosestPairs: a pair of entries, each
// either an interior node or a leaf item, or a fully evaluated object pair.
type pairSide struct {
	node *rtree.Node // non-nil for interior sides
	id   uint64      // the object of a leaf side
	rect geom.Rect
}

type pairItem struct {
	key   float64
	exact bool
	a, b  pairSide
	dist  float64 // for exact pairs
	seq   uint64  // FIFO tiebreak for unresolved entries
}

// lessThan orders the pair queue: ascending key; bounds resolve before
// exact pairs at equal keys; exact pairs at equal distance emit in
// (LeftID, RightID) order so the k-th slot is deterministic under ties;
// unresolved entries keep FIFO order (their expansion order cannot change
// the result set).
func (a pairItem) lessThan(b pairItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.exact != b.exact {
		return !a.exact
	}
	if a.exact {
		if l, r := a.a.id, b.a.id; l != r {
			return l < r
		}
		return a.b.id < b.b.id
	}
	return a.seq < b.seq
}

// pairQueue is the typed binary heap over pairItem; see typedHeap for why
// it is not container/heap.
type pairQueue struct{ typedHeap[pairItem] }

// KClosestPairs returns the k pairs (a ∈ left, b ∈ right) with the smallest
// α-distances, ordered by (Dist, LeftID, RightID) — the fuzzy-object
// version of the k closest pair query. Fewer than k pairs are returned
// when the data admits fewer (including self-joins on small sets).
func KClosestPairs(left, right Searcher, k int, alpha float64) ([]JoinPair, Stats, error) {
	started := time.Now()
	var st Stats
	ls, rs, selfJoin, err := joinSides(left, right, alpha)
	if err != nil {
		return nil, st, err
	}
	if k < 1 {
		return nil, st, badArgf("query: k must be >= 1, got %d", k)
	}
	out, st, err := runJoinPairs(joinPairs(ls, rs, selfJoin), func(tk treePair) ([]JoinPair, Stats, error) {
		return kClosestPairsTrees(tk, k, alpha)
	})
	if err != nil {
		return nil, st, err
	}
	// Each tree pair contributed its local k best; the global k best live
	// in that union.
	sortPairs(out)
	if len(out) > k {
		out = out[:k]
	}
	st.Duration = time.Since(started)
	return out, st, nil
}

// kClosestPairsTrees is the single-tree-pair k-closest-pairs worker. Like
// the ε-join it runs in a pooled scratch; the distance evaluator is pinned
// to the current left object (pairs arrive in best-first order, so runs
// sharing a left side still reuse one prebuilt cut tree).
func kClosestPairsTrees(tk treePair, k int, alpha float64) ([]JoinPair, Stats, error) {
	var st Stats
	left, right := tk.left, tk.right
	sl, sr, selfPair := tk.sl, tk.sr, tk.self
	if sl.tree.Len() == 0 || sr.tree.Len() == 0 {
		return nil, st, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.dist.Invalidate() // see distanceJoinTrees: stale pins must not survive pooling

	leftObjs := make(map[uint64]*fuzzy.Object)
	rightObjs := leftObjs
	if left != right {
		rightObjs = make(map[uint64]*fuzzy.Object)
	}
	probe := func(ix *Index, cache map[uint64]*fuzzy.Object, id uint64) (*fuzzy.Object, error) {
		if o, ok := cache[id]; ok {
			return o, nil
		}
		o, err := ix.getObject(id, &st)
		if err != nil {
			return nil, err
		}
		cache[id] = o
		return o, nil
	}

	var seq uint64
	pq := &pairQueue{}
	push := func(it pairItem) {
		it.seq = seq
		seq++
		pq.Push(it)
	}
	sideFor := func(n *rtree.Node) pairSide { return pairSide{node: n, rect: n.Bounds()} }
	push(pairItem{
		key: geom.MinDist(sl.tree.Bounds(), sr.tree.Bounds()),
		a:   sideFor(sl.tree.Root()), b: sideFor(sr.tree.Root()),
	})

	// expand enumerates an entry's children as pair sides at threshold α.
	children := func(n *rtree.Node) []pairSide {
		n = resolveNode(n, &st)
		st.NodeAccesses++
		out := make([]pairSide, 0, n.Len())
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				box, sum := n.EntrySummary(i)
				out = append(out, pairSide{id: n.ID(i), rect: fuzzy.EstimateInto(box, sum, alpha, geom.Rect{})})
			} else {
				out = append(out, pairSide{node: n.Child(i), rect: n.EntryRect(i)})
			}
		}
		return out
	}

	var results []JoinPair
	for pq.Len() > 0 && len(results) < k {
		e := pq.Pop()
		switch {
		case e.exact:
			results = append(results, JoinPair{LeftID: e.a.id, RightID: e.b.id, Dist: e.dist})

		case e.a.node == nil && e.b.node == nil:
			// Leaf-leaf: evaluate the exact α-distance.
			ia, ib := e.a.id, e.b.id
			if selfPair && ia >= ib {
				continue
			}
			oa, err := probe(left, leftObjs, ia)
			if err != nil {
				return nil, st, err
			}
			ob, err := probe(right, rightObjs, ib)
			if err != nil {
				return nil, st, err
			}
			st.DistanceEvals++
			if sc.dist.Query() != oa {
				sc.dist.Reset(oa, alpha)
			}
			d := sc.dist.Dist(ob)
			// Cross-shard pairs of a self-join are stored with the smaller
			// id on the left BEFORE entering the heap: the local top-k cut
			// truncates equal-distance pairs in heap order, which must be
			// the canonical (LeftID, RightID) order or a tie at the k-th
			// slot could keep a different pair than the single tree would.
			if tk.normalize && ia > ib {
				e.a, e.b = e.b, e.a
			}
			push(pairItem{key: d, exact: true, a: e.a, b: e.b, dist: d})

		default:
			// Expand the interior side (the larger one when both are).
			expandA := e.a.node != nil
			if e.a.node != nil && e.b.node != nil && e.b.rect.Area() > e.a.rect.Area() {
				expandA = false
			}
			if expandA {
				for _, child := range children(e.a.node) {
					push(pairItem{key: geom.MinDist(child.rect, e.b.rect), a: child, b: e.b})
				}
			} else {
				for _, child := range children(e.b.node) {
					push(pairItem{key: geom.MinDist(e.a.rect, child.rect), a: e.a, b: child})
				}
			}
		}
	}
	if err := left.pagedErr(); err != nil {
		return nil, st, err
	}
	if err := right.pagedErr(); err != nil {
		return nil, st, err
	}
	return results, st, nil
}
