package query

import (
	"math"
	"slices"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/rtree"
)

// Result is one AKNN answer. For the lazy-probe variants a result may be
// admitted purely through its distance bounds without ever reading the
// object from storage; such results have Exact == false and carry the bounds
// instead of the exact distance.
type Result struct {
	ID    uint64
	Dist  float64 // exact α-distance when Exact, else the lower bound
	Exact bool
	Lower float64 // lower bound d−α (equals Dist when Exact)
	Upper float64 // upper bound d+α (equals Dist when Exact)
}

// exactResult is the Result of a probed object: its exact α-distance is
// both of its bounds.
func exactResult(id uint64, d float64) Result {
	return Result{ID: id, Dist: d, Exact: true, Lower: d, Upper: d}
}

// sortResults orders rs by the canonical ascending (Dist, ID) result
// order. Breaking distance ties by object id (rather than heap pop order)
// makes outputs byte-identical across runs and across shard layouts.
// slices.SortFunc rather than sort.Slice keeps the hot paths allocation
// free (sort.Slice boxes its closure).
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// AKNN answers the ad-hoc kNN query (Definition 4): the k objects with the
// smallest α-distance to q, using the selected algorithm variant. Results
// are ordered by ascending (distance, id), taking the lower bound as the
// distance for non-exact results. If the index holds fewer than k objects,
// all of them are returned.
func (ix *Index) AKNN(q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error) {
	return ix.AKNNAppend(nil, q, k, alpha, algo)
}

// AKNNAppend is AKNN appending the results to dst and returning the
// extended slice. Passing a reused buffer (dst[:0] of a previous answer)
// makes the steady-state query loop allocation free: all per-query working
// state lives in pooled scratch, and the answer lands in caller-owned
// memory. dst's previous contents must no longer be referenced.
func (ix *Index) AKNNAppend(dst []Result, q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error) {
	start := time.Now()
	sc := getScratch()
	defer putScratch(sc)
	views := sc.pin(ix)
	if err := validateArgs(views, q, k, alpha); err != nil {
		return dst, Stats{}, err
	}
	sc.stats = Stats{}
	out, err := aknnInto(sc, dst, views, q, k, alpha, algo, nil, nil)
	if err != nil {
		return dst, sc.stats, err
	}
	sc.stats.Duration = time.Since(start)
	return out, sc.stats, nil
}

// gEntry is one element of the lazy-probe buffer G (§3.3): an unprobed leaf
// entry with its distance bounds.
type gEntry struct {
	lower, upper float64
	id           uint64
	tree         int32 // as pqItem.tree
}

// aknnRun is the state of one AKNN execution against the pinned snapshots
// of a forest of trees (one tree for a plain Index, one per shard for a
// ShardedIndex). All formerly closure-captured state lives on this struct —
// itself embedded in the per-query scratch — so a steady-state search
// allocates nothing: the heap, the lazy-probe buffer, the probe cache and
// the distance evaluator are all recycled across queries.
type aknnRun struct {
	views   []shardView
	q       *fuzzy.Object
	k       int
	alpha   float64
	st      *Stats
	sc      *scratch
	mq      geom.Rect
	tightLB bool // leaf keys from the §3.2 boundary MBR, not the support MBR
	lazy    bool
	ub      bool // §3.4: upper bounds from the representative point (LB-LP-UB)
	// probed caches every probed object, keyed by id. For plain AKNN it is
	// the scratch's own map; RKNN passes its refinement context's cache so
	// sub-searches share probes.
	probed map[uint64]*fuzzy.Object
	// profiles optionally reuses staircase values some earlier phase
	// already paid for (RKNN refinement): when the visited object's profile
	// is cached, its plateau value replaces the fresh closest-pair
	// computation. Store accesses and counters are charged identically
	// either way, so the paper's cost metrics are unaffected.
	profiles *fuzzy.ProfileCache
	results  []Result
	// base is the length of the caller's dst prefix: the search appends
	// after it, counts only its own emissions toward k, and sorts only its
	// own suffix.
	base   int
	buffer []gEntry
}

// emitted returns how many results this run has produced so far.
func (r *aknnRun) emitted() int { return len(r.results) - r.base }

// aknnInto is the one AKNN implementation: the paper's best-first search
// (§3, Algorithms 1–2) over the forest of the views' trees, appending
// results to dst. A forest is a tree whose root was never materialised: the
// queue starts with every non-empty root instead of one, each element
// remembers which tree it came from so its probe reads that tree's store,
// and everything else — the §3.2 lower-bound keys, the (key, kind, id) pop
// order that emits exact (distance, id) order, the stop at the k-th object
// — is untouched. The leaf entries probed are exactly those whose lower
// bound is ≤ the k-th exact distance, a property of the objects and not of
// how they are cut into trees, so ObjectAccesses and DistanceEvals of the
// non-lazy variants are the same for every partition of one population.
//
// probed, when non-nil, receives every probed object (nil selects the
// scratch's own cache); profiles, when non-nil, short-circuits distance
// evaluations whose staircase is already cached. The work is charged to
// sc.stats. The append-into-dst contract is what keeps the steady-state
// loop at zero allocations.
func aknnInto(sc *scratch, dst []Result, views []shardView, q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm,
	probed map[uint64]*fuzzy.Object, profiles *fuzzy.ProfileCache) ([]Result, error) {
	if probed == nil {
		clear(sc.probed)
		probed = sc.probed
	}
	sc.dist.Reset(q, alpha)
	r := &sc.aknn
	*r = aknnRun{
		views:    views,
		q:        q,
		k:        k,
		alpha:    alpha,
		st:       &sc.stats,
		sc:       sc,
		mq:       sc.dist.QueryMBR(),
		tightLB:  algo != Basic,
		lazy:     algo == LBLP || algo == LBLPUB,
		ub:       algo == LBLPUB,
		probed:   probed,
		profiles: profiles,
		results:  dst,
		base:     len(dst),
		buffer:   sc.buffer[:0],
	}
	sc.pq.reset()
	for i, v := range views {
		if root := v.s.tree.Root(); root.Len() > 0 {
			// Key 0 is a lower bound of anything and, unlike the tree-bounds
			// MinDist, costs no allocation. A tighter key would prune nothing:
			// hash partitions each cover the whole data space.
			sc.pq.Push(pqItem{key: 0, kind: kindNode, tree: int32(i), node: root})
		}
	}
	err := r.run()
	sc.buffer = r.buffer[:0] // keep grown capacity
	out := r.results
	r.results = nil
	if err == nil {
		err = pagedErr(views)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// probe reads one object from the store of the tree its leaf entry came
// from and evaluates its exact α-distance, charging the access and the
// evaluation to the run's stats.
func (r *aknnRun) probe(id uint64, tree int32) (float64, error) {
	obj, err := r.views[tree].ix.getObject(id, r.st)
	if err != nil {
		return 0, err
	}
	r.st.DistanceEvals++
	var d float64
	if p, ok := r.lookupProfile(obj); ok {
		d = p.Dist(r.alpha)
	} else {
		d = r.sc.dist.Dist(obj)
	}
	r.probed[id] = obj
	return d, nil
}

func (r *aknnRun) lookupProfile(obj *fuzzy.Object) (*fuzzy.Profile, bool) {
	if r.profiles == nil {
		return nil, false
	}
	return r.profiles.Lookup(obj, r.q, r.alpha)
}

// upper evaluates the upper bound of leaf n's entry i: MaxDist of the
// estimated cut MBR, for LB-LP-UB lowered by the distance from the
// representative point to the nearest point of the query's α-cut (§3.4).
// The representative is a kernel point, so it lies in every α-cut of its
// object, and d_α(A, Q) ≤ min over q ∈ Q_α of |rep − q|: Lemma 1 with the
// whole cut as the sample, read off the evaluator's k-d tree over Q_α.
func (r *aknnRun) upper(n *rtree.Node, i int) float64 {
	box, sum := n.EntrySummary(i)
	u := fuzzy.EstimateMaxDist(box, sum, r.alpha, r.mq)
	if r.ub {
		u = r.sc.dist.NearestWithin(fuzzy.SummaryRep(sum), u)
	}
	return u
}

// bufferMin returns the index of the buffered entry with the smallest
// (lower bound, id). The buffer holds at most k entries, so linear scans
// are cheap.
func (r *aknnRun) bufferMin() int {
	j := 0
	for i := 1; i < len(r.buffer); i++ {
		if r.buffer[i].lower < r.buffer[j].lower ||
			(r.buffer[i].lower == r.buffer[j].lower && r.buffer[i].id < r.buffer[j].id) {
			j = i
		}
	}
	return j
}

// probeBufferMin resolves the most promising buffered entry by probing;
// the exact object re-enters H, preserving best-first order.
func (r *aknnRun) probeBufferMin() error {
	j := r.bufferMin()
	g := r.buffer[j]
	r.buffer = append(r.buffer[:j], r.buffer[j+1:]...)
	d, err := r.probe(g.id, g.tree)
	if err != nil {
		return err
	}
	r.sc.pq.Push(pqItem{key: d, kind: kindObject, id: g.id, dist: d})
	return nil
}

// enforceInvariant probes buffered entries until the buffer fits into the
// remaining result slots (Algorithm 2's overflow: "lazy probe makes all the
// object retrieval mandatory").
func (r *aknnRun) enforceInvariant() error {
	for len(r.buffer) > r.k-r.emitted() {
		if err := r.probeBufferMin(); err != nil {
			return err
		}
	}
	return nil
}

// run executes the best-first search loop; see the original §3 algorithms.
// The lazy-probe buffer G maintains the invariant |G| ≤ k − |results| after
// every step, so every buffered entry is guaranteed a slot in the top-k
// once all other candidates are exhausted.
//
// Membership, not order, is what lets §3.3 defer a probe. When an exact
// object pops from H, everything still in H (or below it) ranks after it
// by (distance, id), so the only objects that can rank before it are the
// results already emitted and the entries buffered in G. While
// |R| + |G| < k that is fewer than k objects, and the popped object belongs
// to the top k whatever the buffered entries turn out to be. G's minimum
// is therefore probed before H is popped in exactly one case: G already
// fills the remaining k − |R| slots and its lower bound is ≤ H's top key.
// The popped object could then be pushed out by a buffered entry, and a
// tie counts: an entry whose lower bound equals the popped distance may
// turn out at that very distance with a smaller id, and rank first. Probed,
// it re-enters H and equal keys resolve through the heap's (key, kind, id)
// order. While G leaves a slot free, a tie is no reason to probe.
func (r *aknnRun) run() error {
	h := &r.sc.pq
	for r.emitted() < r.k && (h.Len() > 0 || len(r.buffer) > 0) {
		hKey := math.Inf(1)
		if h.Len() > 0 {
			hKey = h.PeekKey()
		}
		if len(r.buffer) > 0 {
			// Admission (§3.3): a buffered entry whose upper bound beats
			// every remaining lower bound in H beats everything still in H,
			// and the size invariant guarantees it a slot — add it to the
			// results without ever probing it.
			progressed := false
			for i := 0; i < len(r.buffer) && r.emitted() < r.k; {
				if r.buffer[i].upper < hKey {
					g := r.buffer[i]
					r.results = append(r.results, Result{
						ID: g.id, Dist: g.lower, Exact: false, Lower: g.lower, Upper: g.upper,
					})
					r.buffer = append(r.buffer[:i], r.buffer[i+1:]...)
					r.st.LazyAdmitted++
					progressed = true
				} else {
					i++
				}
			}
			if progressed {
				continue
			}
			if h.Len() == 0 {
				// No admissible upper bound but nothing left to compare
				// against: resolve the most promising entry by probing.
				if err := r.probeBufferMin(); err != nil {
					return err
				}
				continue
			}
			// Probe the buffer's best entry ahead of H's top only when G
			// fills every remaining slot and that entry's lower bound does
			// not exceed the top; otherwise it stays deferred.
			if lo := r.buffer[r.bufferMin()].lower; lo <= hKey && len(r.buffer) >= r.k-r.emitted() {
				if err := r.probeBufferMin(); err != nil {
					return err
				}
				continue
			}
		}
		if h.Len() == 0 {
			continue // buffer handling above will drain it
		}
		e := h.Pop()
		switch e.kind {
		case kindObject:
			// Exact distance ≤ every remaining lower bound in H, and either
			// at most |R| + |G| < k objects can rank before it or G's lower
			// bounds all exceed it: it belongs to the top k, though a
			// buffered entry may still turn out closer.
			r.results = append(r.results, exactResult(e.id, e.dist))
			if err := r.enforceInvariant(); err != nil {
				return err
			}

		case kindNode:
			r.st.NodeAccesses++
			r.expand(resolveNode(e.node, r.st), e.tree)

		case kindLeaf:
			if !r.lazy {
				d, err := r.probe(e.id, e.tree)
				if err != nil {
					return err
				}
				h.Push(pqItem{key: d, kind: kindObject, id: e.id, dist: d})
				continue
			}
			r.buffer = append(r.buffer, gEntry{lower: e.key, upper: r.upper(e.node, e.ent), id: e.id, tree: e.tree})
			r.st.LazyDeferred++
			if err := r.enforceInvariant(); err != nil {
				return err
			}
			r.st.LazyBufferPeak = max(r.st.LazyBufferPeak, len(r.buffer))
		}
	}
	// Results were appended in best-first emission order, which already
	// ascends by distance; the final sort only re-ranks equal-distance
	// neighbors by id so the output is deterministic.
	sortResults(r.results[r.base:])
	return nil
}

// expand pushes a node's children, tagged with the tree they belong to,
// scanning lower bounds off the node's flattened layouts (one contiguous
// pass, no per-entry pointer chasing). Leaf entries of the LB variants take
// the tighter §3.2 bound, computed from the summaries in the same slab.
func (r *aknnRun) expand(n *rtree.Node, tree int32) {
	if n.Leaf() {
		for i := 0; i < n.Len(); i++ {
			var key float64
			if r.tightLB {
				box, sum := n.EntrySummary(i)
				key = fuzzy.EstimateMinDist(box, sum, r.alpha, r.mq)
			} else {
				key = n.EntryMinDist(i, r.mq)
			}
			r.sc.pq.Push(pqItem{key: key, kind: kindLeaf, tree: tree, id: n.ID(i), node: n, ent: i})
		}
		return
	}
	for i := 0; i < n.Len(); i++ {
		r.sc.pq.Push(pqItem{key: n.EntryMinDist(i, r.mq), kind: kindNode, tree: tree, node: n.Child(i)})
	}
}

// LinearScanAKNN is the paper's baseline (§3.1): probe every object,
// evaluate its α-distance, keep the top k by (distance, id). It shares the
// Result/Stats contract with AKNN and is used as the correctness reference.
func (ix *Index) LinearScanAKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return scanTopK(sc, sc.pin(ix), q, k, alpha, alphaDistScore)
}

// A scanScore ranks object o against q for scanTopK, evaluating in sc and
// charging the evaluation to sc.stats.
type scanScore func(sc *scratch, q, o *fuzzy.Object, alpha float64) float64

// alphaDistScore is the linear scan's score, d_α(o, q). scanTree dropped
// the evaluator's pin, so the first object of each tree pins it to (q, α).
func alphaDistScore(sc *scratch, q, o *fuzzy.Object, alpha float64) float64 {
	if sc.dist.Query() != q {
		sc.dist.Reset(q, alpha)
	}
	sc.stats.DistanceEvals++
	return sc.dist.Dist(o)
}

// scanTopK is the one exhaustive scan, behind LinearScanAKNN and
// ExpectedDistKNN: probe every object of every tree of the forest, score
// it, keep the k best by (score, id). There is no bound to share, so the
// trees of a forest are scanned concurrently (fanOut). The scan walks the
// pinned snapshots' populations (not the live stores), so it stays
// consistent under concurrent mutation.
func scanTopK(sc *scratch, views []shardView, q *fuzzy.Object, k int, alpha float64, score scanScore) ([]Result, Stats, error) {
	started := time.Now()
	if err := validateArgs(views, q, k, alpha); err != nil {
		return nil, Stats{}, err
	}
	sc.stats = Stats{}
	var cands []idDist
	var err error
	if len(views) == 1 {
		cands, err = scanTree(sc, views[0], q, alpha, score)
	} else {
		sc.idDists = sc.idDists[:0]
		err = fanOut(sc, views, &sc.idDists, func(sub *scratch, tree int) ([]idDist, error) {
			return scanTree(sub, views[tree], q, alpha, score)
		})
		cands = sc.idDists
	}
	if err != nil {
		return nil, sc.stats, err
	}
	sortIDDists(cands)
	if len(cands) > k {
		cands = cands[:k]
	}
	results := make([]Result, len(cands))
	for i, c := range cands {
		results[i] = exactResult(c.id, c.d)
	}
	sc.stats.Duration = time.Since(started)
	return results, sc.stats, nil
}

// scanTree scores every object of one tree into sc.idDists, charging
// sc.stats.
func scanTree(sc *scratch, v shardView, q *fuzzy.Object, alpha float64, score scanScore) ([]idDist, error) {
	// A pooled evaluator may still be pinned to this very q at another α.
	sc.dist.Invalidate()
	sc.idDists = sc.idDists[:0]
	for _, id := range v.s.leafIDs(&sc.stats) {
		obj, err := v.ix.getObject(id, &sc.stats)
		if err != nil {
			return nil, err
		}
		sc.idDists = append(sc.idDists, idDist{id: id, d: score(sc, q, obj, alpha)})
	}
	return sc.idDists, v.ix.pagedErr()
}

// sortIDDists orders work pairs by ascending (distance, id).
func sortIDDists(cands []idDist) {
	slices.SortFunc(cands, func(a, b idDist) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
}

// Refine probes any non-exact results (produced by the lazy-probe variants)
// and returns the set re-sorted by exact (distance, id).
func (ix *Index) Refine(q *fuzzy.Object, alpha float64, rs []Result) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return refine(sc, sc.pin(ix), q, alpha, rs)
}

// refine is the one Refine: each non-exact result is probed in the store
// of the tree that owns its id.
func refine(sc *scratch, views []shardView, q *fuzzy.Object, alpha float64, rs []Result) ([]Result, Stats, error) {
	var st Stats
	if err := validateArgs(views, q, 1, alpha); err != nil {
		return nil, st, err
	}
	sc.dist.Reset(q, alpha)
	out := make([]Result, len(rs))
	copy(out, rs)
	for i := range out {
		if out[i].Exact {
			continue
		}
		obj, err := probe(views, out[i].ID, &st)
		if err != nil {
			return nil, st, err
		}
		st.DistanceEvals++
		out[i] = exactResult(out[i].ID, sc.dist.Dist(obj))
	}
	sortResults(out)
	return out, st, nil
}

// RangeSearch answers the α-range query: every object with
// d_α(A, q) ≤ radius, with exact distances, ordered by (distance, id). It
// is the search primitive behind RSS (Lemma 3), exposed as a query type of
// its own — the fuzzy analogue of a spatial range query.
func (ix *Index) RangeSearch(q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error) {
	return ix.RangeSearchAppend(nil, q, alpha, radius)
}

// RangeSearchAppend is RangeSearch appending the results to dst; like
// AKNNAppend it makes the steady-state loop allocation free when dst is a
// reused buffer.
func (ix *Index) RangeSearchAppend(dst []Result, q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return rangeSearchInto(sc, dst, sc.pin(ix), q, alpha, radius)
}

// rangeSearchInto is the one RangeSearch: rangeHits over the forest, the
// hits appended to dst in (distance, id) order.
func rangeSearchInto(sc *scratch, dst []Result, views []shardView, q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error) {
	started := time.Now()
	if err := validateArgs(views, q, 1, alpha); err != nil {
		return dst, Stats{}, err
	}
	if radius < 0 || math.IsNaN(radius) {
		return dst, Stats{}, badArgf("query: radius must be non-negative, got %v", radius)
	}
	sc.stats = Stats{}
	hits, err := rangeHits(sc, views, q, alpha, radius)
	if err != nil {
		return dst, sc.stats, err
	}
	base := len(dst)
	for _, h := range hits {
		dst = append(dst, exactResult(h.obj.ID(), h.dist))
	}
	sortResults(dst[base:])
	sc.stats.Duration = time.Since(started)
	return dst, sc.stats, nil
}

// rangeHit is one object a range search found: the probed payload and its
// exact α-distance to the query.
type rangeHit struct {
	obj  *fuzzy.Object
	dist float64
}

// rangeHits collects every object of the forest with d_α(A, q) ≤ radius,
// in no particular order, probing only leaf entries whose §3.2 lower bound
// passes the radius test (Lemma 3) — a set fixed by the objects and the
// radius, so ObjectAccesses and DistanceEvals are the same however the
// population is cut into trees. The radius is known before any tree is
// touched, so the trees of a forest are searched concurrently (fanOut); one
// tree is searched on the caller's goroutine, allocating nothing. The hits
// are owned by sc — valid until it is released or searched again — and the
// work is charged to sc.stats.
func rangeHits(sc *scratch, views []shardView, q *fuzzy.Object, alpha, radius float64) ([]rangeHit, error) {
	if len(views) == 1 {
		return rangeTree(sc, views[0], q, alpha, radius)
	}
	sc.hits = sc.hits[:0]
	err := fanOut(sc, views, &sc.hits, func(sub *scratch, tree int) ([]rangeHit, error) {
		return rangeTree(sub, views[tree], q, alpha, radius)
	})
	return sc.hits, err
}

// rangeRun is the closure-free state of one tree's range search; like
// aknnRun it lives in the scratch so traversal allocates nothing.
type rangeRun struct {
	ix     *Index
	alpha  float64
	radius float64
	mq     geom.Rect
	sc     *scratch
}

// rangeTree is rangeHits on one tree, into sc.hits.
func rangeTree(sc *scratch, v shardView, q *fuzzy.Object, alpha, radius float64) ([]rangeHit, error) {
	if math.IsInf(radius, 1) {
		radius = math.MaxFloat64
	}
	sc.hits = sc.hits[:0]
	sc.dist.Reset(q, alpha)
	r := &sc.rng
	*r = rangeRun{ix: v.ix, alpha: alpha, radius: radius, mq: sc.dist.QueryMBR(), sc: sc}
	if root := v.s.tree.Root(); root.Len() > 0 {
		if err := r.visit(root); err != nil {
			return nil, err
		}
	}
	return sc.hits, v.ix.pagedErr()
}

func (r *rangeRun) visit(n *rtree.Node) error {
	st := &r.sc.stats
	st.NodeAccesses++
	for i := 0; i < n.Len(); i++ {
		if n.Leaf() {
			if box, sum := n.EntrySummary(i); fuzzy.EstimateMinDist(box, sum, r.alpha, r.mq) > r.radius {
				continue
			}
			obj, err := r.ix.getObject(n.ID(i), st)
			if err != nil {
				return err
			}
			st.DistanceEvals++
			if d := r.sc.dist.Dist(obj); d <= r.radius {
				r.sc.hits = append(r.sc.hits, rangeHit{obj: obj, dist: d})
			}
		} else if n.EntryMinDist(i, r.mq) <= r.radius {
			if err := r.visit(resolveNode(n.Child(i), st)); err != nil {
				return err
			}
		}
	}
	return nil
}
