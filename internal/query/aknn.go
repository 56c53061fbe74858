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
// entry with its distance bounds. upper starts as the cheap EstimateMaxDist.
// For LB-LP-UB, from is the point of the entry's row the §3.4 descent starts
// from while that descent may still lower upper (see upper), and reach is
// the least it can return; from is nil once it has run, or if it cannot
// lower upper at all.
type gEntry struct {
	lower, upper, reach float64
	id                  uint64
	tree                int32 // as pqItem.tree
	from                geom.Point
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
	tightLB bool // leaf keys from the §3.2 estimated cut box, not the support MBR
	lazy    bool
	ub      bool // §3.4: upper bounds from a point of the cut (LB-LP-UB)
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
// — is untouched. Every probe, admission and emission is decided at a leaf
// or object top of H, and that sequence of tops is a property of the
// objects and not of how they are cut into trees, so the raw answer and
// every counter but NodeAccesses are the same for every partition of one
// population, under all four variants.
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

// upper returns buffered entry g's upper bound for an admission test against
// H's top key hKey: MaxDist of the estimated cut MBR, stored at deferral, for
// LB-LP-UB lowered once by the distance from g.from to the nearest point of
// the query's α-cut (§3.4). g.from is a point of A_α — the representative
// kernel point or a witness whose group lies in the cut
// (fuzzy.SummaryDescent) — so d_α(A, Q) ≤ min over q ∈ Q_α of |from − q|:
// Lemma 1 with the whole cut as the sample, read off the evaluator's k-d
// tree over Q_α.
//
// The descent runs only when it can admit. Every point of Q_α lies in
// M_Q(α), so no point is nearer to from than that box is, bit for bit (the
// gap argument of kdtree.Tree.ClosestSq): the descent returns at least
// reach, from's distance to M_Q(α), which buffered keeps below the cheap
// bound. While reach is at least hKey the test fails either way and the
// descent waits. An admitted entry has always had it, or had no use for it,
// so the Upper it reports is the one a descent at deferral would give.
func (r *aknnRun) upper(g *gEntry, hKey float64) float64 {
	if g.from == nil || g.reach >= hKey {
		return g.upper
	}
	g.upper = r.sc.dist.NearestWithin(g.from, g.upper)
	g.from = nil
	return g.upper
}

// buffered makes popped leaf entry e a buffered entry: its lower bound is its
// key, its upper bound the cheap EstimateMaxDist, and for LB-LP-UB it keeps
// the point of its row nearest M_Q(α) among those in A_α for upper's
// descent, when that descent can return less than the cheap bound. One
// point, so an entry still runs at most one descent.
func (r *aknnRun) buffered(e pqItem) gEntry {
	box, sum := e.node.EntrySummary(e.ent)
	g := gEntry{lower: e.key, upper: fuzzy.EstimateMaxDist(box, sum, r.alpha, r.mq), id: e.id, tree: e.tree}
	if r.ub {
		from, reach := fuzzy.SummaryDescent(sum, len(box)/2, r.alpha, r.mq)
		if g.reach = reach; reach < g.upper {
			g.from = from
		}
	}
	return g
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
// fills the remaining k − |R| slots, its lower bound is ≤ H's top key, and
// that top is a leaf entry or an object (Algorithm 2 compares G with the
// next candidate). The popped object could then be pushed out by a
// buffered entry, and a tie counts: an entry whose lower bound equals the
// popped distance may turn out at that very distance with a smaller id, and
// rank first. Probed, it re-enters H and equal keys resolve through the
// heap's (key, kind, id) order. While G leaves a slot free, a tie is no
// reason to probe. A node on top decides nothing: its pop changes neither R
// nor G, and its key lies below every leaf key under it, so every probe is
// decided at the same leaf or object top however the objects are cut into
// nodes and trees.
//
// A leaf entry of the LB variants waits in H under its cheap key and is
// refined (refineTop) when it reaches the top, before anything is decided
// there. Its refined key is a function of the object and the query alone,
// and at least its cheap key, so every entry's place in the (key, kind, id)
// order only moves back when it is refined: once the top is refined, no
// cheap entry below it can refine to a place before it, and the decisions
// see the tops they would see had every entry been refined when pushed.
func (r *aknnRun) run() error {
	h := &r.sc.pq
	for r.emitted() < r.k && (h.Len() > 0 || len(r.buffer) > 0) {
		for h.Len() > 0 && h.PeekCheap() {
			r.refineTop()
		}
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
				if r.upper(&r.buffer[i], hKey) < hKey {
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
			// Probe the buffer's best entry ahead of H's top only when the
			// top is a leaf entry or an object, G fills every remaining slot
			// and that entry's lower bound does not exceed the top;
			// otherwise it stays deferred.
			if lo := r.buffer[r.bufferMin()].lower; h.PeekKind() != kindNode && lo <= hKey && len(r.buffer) >= r.k-r.emitted() {
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
			r.buffer = append(r.buffer, r.buffered(e))
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

// refineTop re-keys H's top, a cheap leaf entry, by the §3.2 bound read
// against the query's whole α-cut (DistEval.CutKey), and sifts it down if
// the key rose; an entry whose key did not rise stays the top.
func (r *aknnRun) refineTop() {
	top := &r.sc.pq.h[0]
	top.cheap = false
	box, sum := top.node.EntrySummary(top.ent)
	if key := r.sc.dist.CutKey(box, sum, top.key); key > top.key {
		top.key = key
		r.sc.pq.siftDown(0)
	}
}

// expand pushes a node's children, tagged with the tree they belong to,
// scanning lower bounds off the node's flattened layouts (one contiguous
// pass, no per-entry pointer chasing). Leaf entries of the LB variants take
// the tighter §3.2 bound, computed from the summaries in the same slab; they
// enter cheap, under MinDist(M_A(α)*, M_Q(α)), and run refines the few that
// reach the top, so the k-d tree query runs for those alone.
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
			r.sc.pq.Push(pqItem{key: key, kind: kindLeaf, cheap: r.tightLB, tree: tree, id: n.ID(i), node: n, ent: i})
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
	hits, err := rangeHits(sc, views, q, alpha, radius, nil)
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
// in no particular order, evaluating only leaf entries whose key passes the
// radius test (Lemma 3) — a set fixed by the objects and the radius. The key
// is the LB AKNN's: the §3.2 lower bound, and for an entry that passes it
// the cut key (DistEval.CutKey). An entry whose object probed (keyed by id)
// already holds is evaluated from that payload without an access, so the
// objects read are that set less probed's, and ObjectAccesses and
// DistanceEvals are the same however the population is cut into trees.
// probed may be nil, and is only read: the trees of a forest are searched
// concurrently (fanOut), the radius being known before any tree is touched;
// one tree is searched on the caller's goroutine, allocating nothing. The
// hits are owned by sc — valid until it is released or searched again — and
// the work is charged to sc.stats.
func rangeHits(sc *scratch, views []shardView, q *fuzzy.Object, alpha, radius float64, probed map[uint64]*fuzzy.Object) ([]rangeHit, error) {
	if len(views) == 1 {
		return rangeTree(sc, views[0], q, alpha, radius, probed)
	}
	sc.hits = sc.hits[:0]
	err := fanOut(sc, views, &sc.hits, func(sub *scratch, tree int) ([]rangeHit, error) {
		return rangeTree(sub, views[tree], q, alpha, radius, probed)
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
	probed map[uint64]*fuzzy.Object // as rangeHits'
	// floor is the least floor CutKey is passed: the radius wherever
	// √(radius²) rounds back to it, so that the k-d tree query stops at the
	// first point of Q_α within the radius of the estimated cut box and
	// still passes exactly the entries whose full cut key is ≤ the radius;
	// 0 past 1e154 or below 1e-154, where the entry's own bound is passed.
	floor float64
}

// rangeTree is rangeHits on one tree, into sc.hits.
func rangeTree(sc *scratch, v shardView, q *fuzzy.Object, alpha, radius float64, probed map[uint64]*fuzzy.Object) ([]rangeHit, error) {
	if math.IsInf(radius, 1) {
		radius = math.MaxFloat64
	}
	sc.hits = sc.hits[:0]
	sc.dist.Reset(q, alpha)
	r := &sc.rng
	*r = rangeRun{ix: v.ix, alpha: alpha, radius: radius, mq: sc.dist.QueryMBR(), sc: sc, probed: probed}
	if math.Sqrt(radius*radius) == radius {
		r.floor = radius
	}
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
			box, sum := n.EntrySummary(i)
			if est := fuzzy.EstimateMinDist(box, sum, r.alpha, r.mq); est > r.radius || r.sc.dist.CutKey(box, sum, max(est, r.floor)) > r.radius {
				continue
			}
			obj, ok := r.probed[n.ID(i)]
			if !ok {
				var err error
				if obj, err = r.ix.getObject(n.ID(i), st); err != nil {
					return err
				}
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
