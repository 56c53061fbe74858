package query

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// ShardedIndex is a Searcher over N hash-partitioned shards. Each shard is
// a complete, independently mutable, snapshot-isolated Index (usually with
// its own store); ShardOf assigns every object id to exactly one shard.
// AKNN's pruning bound is global and moves as the search proceeds, so it
// runs as one search over all shards; the other families fix their bound
// before touching a shard, so each shard's work is independent and they
// fan out across the shards in parallel and merge exactly:
//
//   - AKNN: the single-tree best-first search (aknnInto) over the forest
//     of the shards' trees — one queue seeded with every shard's root, on
//     the calling goroutine. It probes exactly the objects a single tree
//     over the union would, whatever the shard count.
//   - RKNN: one cross-shard AKNN at αe fixes the pruning radius (Lemma 3),
//     per-shard α-range searches collect the global candidate set, and the
//     candidates are refined in memory through the interval.Set algebra —
//     the RSS plan (Algorithm 4/5) with the range-search phase fanned out.
//   - RangeSearch: per-shard range searches, union, one sort.
//   - ReverseKNN: per-shard filter+verify yields conservative candidates
//     (an object with ≥ k closer neighbors in its own shard can never
//     qualify globally); the shared refine completes each candidate's
//     closer-count against the remaining shards with early exit at k.
//   - ExpectedDistKNN: per-shard local top-k scans, merged.
//
// Mutations route by ShardOf and inherit the owning shard's snapshot
// isolation. There is no global snapshot: one sharded query reads each
// shard's snapshot when it starts, so a mutation concurrent with a query
// may be visible in some shards' view and not others. Each individual
// shard view is still a consistent population, and quiescent reads (no
// writer in flight) are byte-identical to a single-tree index over the
// same objects — the property the equivalence tests pin down.
type ShardedIndex struct {
	shards []*Index
}

// NewSharded assembles a sharded index over pre-built shards. Shard i must
// hold exactly the objects with ShardOf(id, len(shards)) == i — mutations
// route by that function, and the exact-merge arguments rely on the
// partition being disjoint and complete. Shards with known dimensionality
// must agree.
func NewSharded(shards []*Index) (*ShardedIndex, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("query: sharded index needs at least one shard")
	}
	dims := 0
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("query: shard %d is nil", i)
		}
		d := sh.Dims()
		if d == 0 {
			continue
		}
		if dims == 0 {
			dims = d
		} else if d != dims {
			return nil, fmt.Errorf("query: shard %d has dims %d, shard set has dims %d", i, d, dims)
		}
	}
	return &ShardedIndex{shards: shards}, nil
}

// BuildSharded partitions the store's objects across n shards by ShardOf
// and builds each shard as a filtered Index over the same reader. It is
// the single-store construction path (one file serving several trees);
// callers wanting per-shard stores build the shards themselves and use
// NewSharded.
func BuildSharded(st store.Reader, n int, opts Options) (*ShardedIndex, error) {
	if n < 1 {
		return nil, fmt.Errorf("query: shard count must be >= 1, got %d", n)
	}
	shards := make([]*Index, n)
	for i := range shards {
		i := i
		ix, err := BuildFiltered(st, opts, func(id uint64) bool { return ShardOf(id, n) == i })
		if err != nil {
			return nil, err
		}
		shards[i] = ix
	}
	return NewSharded(shards)
}

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Shard returns the i-th shard for diagnostics and tests.
func (sx *ShardedIndex) Shard(i int) *Index { return sx.shards[i] }

// shardFor returns the shard owning id.
func (sx *ShardedIndex) shardFor(id uint64) *Index {
	return sx.shards[ShardOf(id, len(sx.shards))]
}

// Len returns the total number of indexed objects.
func (sx *ShardedIndex) Len() int {
	n := 0
	for _, sh := range sx.shards {
		n += sh.Len()
	}
	return n
}

// Dims returns the index dimensionality: the first shard-known value (all
// non-empty shards agree by construction).
func (sx *ShardedIndex) Dims() int {
	for _, sh := range sx.shards {
		if d := sh.Dims(); d != 0 {
			return d
		}
	}
	return 0
}

// Stats reports per-shard physical layout.
func (sx *ShardedIndex) Stats() IndexStats {
	out := IndexStats{Dims: sx.Dims(), Shards: make([]ShardStats, len(sx.shards))}
	for i, sh := range sx.shards {
		out.Shards[i] = sh.Stats().Shards[0]
		out.Objects += out.Shards[i].Objects
	}
	return out
}

// Checkpoint implements Searcher: every shard's store checkpoints (and
// optionally compacts) in turn, sequentially — checkpoints are disk-bound,
// so staggering them bounds peak I/O while each shard's writer stays live.
// The first failing shard aborts the sweep; shards already checkpointed
// keep their new checkpoints, which is harmless (each shard's manifest is
// self-consistent on its own).
func (sx *ShardedIndex) Checkpoint(compact bool) ([]store.CheckpointInfo, error) {
	if err := sx.refuseIfDegraded(); err != nil {
		return nil, fmt.Errorf("query: checkpoint: %w", err)
	}
	infos := make([]store.CheckpointInfo, 0, len(sx.shards))
	for i, sh := range sx.shards {
		sub, err := sh.Checkpoint(compact)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		infos = append(infos, sub...)
	}
	return infos, nil
}

// CheckInvariants verifies every shard's R-tree structure and that each
// shard only holds ids it owns.
func (sx *ShardedIndex) CheckInvariants() error {
	for i, sh := range sx.shards {
		if err := sh.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for _, id := range sh.read().leafIDs(&Stats{}) {
			if ShardOf(id, len(sx.shards)) != i {
				return fmt.Errorf("shard %d holds id %d owned by shard %d", i, id, ShardOf(id, len(sx.shards)))
			}
		}
	}
	return nil
}

// shardView pins one shard to one snapshot for the duration of a query, so
// a multi-phase plan (e.g. RKNN's AKNN + range search) reads a consistent
// population per shard.
type shardView struct {
	ix *Index
	s  *snapshot
}

func (sx *ShardedIndex) views() []shardView {
	out := make([]shardView, len(sx.shards))
	for i, sh := range sx.shards {
		out[i] = shardView{ix: sh, s: sh.read()}
	}
	return out
}

// fanOut runs fn once per shard view concurrently and returns the first
// error (by shard order, for determinism).
func fanOut(views []shardView, fn func(i int, v shardView) error) error {
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, views[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AKNN answers the ad-hoc kNN query across all shards: one best-first
// search over the forest of the shards' pinned snapshots (see aknnInto).
// Results are always exact, ascending by (distance, id), regardless of the
// variant: algo only selects the leaf lower bound (support MBR for Basic,
// the §3.2 boundary MBR otherwise), and the lazy variants run as LB — a
// sharded answer is documented to be byte-identical to the refined
// single-tree answer over the same objects, which admitting unprobed
// results would break.
func (sx *ShardedIndex) AKNN(q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error) {
	started := time.Now()
	if err := validateArgs(sx.Dims(), q, k, alpha); err != nil {
		return nil, Stats{}, err
	}
	if algo < Basic || algo > LBLPUB {
		return nil, Stats{}, badArgf("query: unknown AKNN algorithm %d", int(algo))
	}
	if algo != Basic {
		algo = LB
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.stats = Stats{}
	// The answer is sized once; a k beyond the population must not size it.
	dst := make([]Result, 0, min(k, sx.Len()))
	res, err := aknnInto(sc, dst, sx.views(), q, k, alpha, algo, nil, nil, &sc.stats)
	if err != nil {
		return nil, sc.stats, err
	}
	sc.stats.Duration = time.Since(started)
	return res, sc.stats, nil
}

// LinearScanAKNN fans the exhaustive baseline out and merges the local
// top-k lists.
func (sx *ShardedIndex) LinearScanAKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	if err := validateArgs(sx.Dims(), q, k, alpha); err != nil {
		return nil, st, err
	}
	views := sx.views()
	lists := make([][]Result, len(views))
	stats := make([]Stats, len(views))
	err := fanOut(views, func(i int, v shardView) error {
		var err error
		lists[i], stats[i], err = v.ix.LinearScanAKNN(q, k, alpha)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	for _, s := range stats {
		addParallel(&st, s)
	}
	out := mergeTopK(lists, k)
	st.Duration = time.Since(started)
	return out, st, nil
}

// getObject probes the shard owning id, charging the access to st.
func (sx *ShardedIndex) getObject(id uint64, st *Stats) (*fuzzy.Object, error) {
	return sx.shardFor(id).getObject(id, st)
}

// Refine probes any non-exact results through their owning shards and
// re-sorts by exact (distance, id). Sharded AKNN answers are always exact
// already; this exists so arbitrary Result sets (e.g. relayed from a
// single-tree index) refine correctly.
func (sx *ShardedIndex) Refine(q *fuzzy.Object, alpha float64, rs []Result) ([]Result, Stats, error) {
	return refine(sx.Dims(), sx.getObject, q, alpha, rs)
}

// RangeSearch fans the α-range query out and unions the per-shard answers
// (disjoint by partition), ascending by (distance, id).
func (sx *ShardedIndex) RangeSearch(q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	if err := validateArgs(sx.Dims(), q, 1, alpha); err != nil {
		return nil, st, err
	}
	if radius < 0 || math.IsNaN(radius) {
		return nil, st, badArgf("query: radius must be non-negative, got %v", radius)
	}
	views := sx.views()
	lists := make([][]Result, len(views))
	stats := make([]Stats, len(views))
	err := fanOut(views, func(i int, v shardView) error {
		// Each fan-out goroutine runs in its own pooled scratch; the
		// scratch-owned result maps are drained into the coordinator's
		// slice before release.
		sc := getScratch()
		defer putScratch(sc)
		_, dists, err := v.ix.rangeSearch(sc, v.s, q, alpha, radius, true, &stats[i])
		if err != nil {
			return err
		}
		for id, d := range dists {
			lists[i] = append(lists[i], Result{ID: id, Dist: d, Exact: true, Lower: d, Upper: d})
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	var out []Result
	for i := range lists {
		addParallel(&st, stats[i])
		out = append(out, lists[i]...)
	}
	sortResults(out)
	st.Duration = time.Since(started)
	return out, st, nil
}

// RKNN answers the range kNN query across all shards with the RSS plan
// (Algorithms 4/5 of the paper, the range-search phase parallelized):
//
//  1. One cross-shard AKNN at αe fixes the global pruning radius — the
//     k-th nearest distance at the range's top (Lemma 3).
//  2. Every shard runs one α-range search at αs with that radius in
//     parallel; the union is the exact global candidate set (any object
//     ever in a kNN set within [αs, αe] is within the radius at αs).
//  3. Candidates are refined in memory: distance profiles are built once
//     from the objects the range searches already probed (no further IO),
//     and the per-object qualifying ranges accumulate through the
//     interval.Set algebra — critical-probability hopping for Naive/Basic/
//     RSS, Lemma 4 safe ranges for RSSICR.
//
// All variants return byte-identical ranges (the same equivalence the
// paper proves for the single-tree variants); they differ only in
// refinement cost. Results ascend by object id.
func (sx *ShardedIndex) RKNN(q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	started := time.Now()
	var st Stats
	if err := validateArgs(sx.Dims(), q, k, alphaStart, alphaEnd); err != nil {
		return nil, st, err
	}
	if alphaStart > alphaEnd {
		return nil, st, badArgf("query: alphaStart %v > alphaEnd %v", alphaStart, alphaEnd)
	}
	if algo < Naive || algo > RSSICR {
		return nil, st, badArgf("query: unknown RKNN algorithm %d", int(algo))
	}
	views := sx.views()
	// The coordinator's scratch: phase 1 searches in it, phase 3 refines in it.
	sc := getScratch()
	defer putScratch(sc)

	// Phase 1: global pruning radius from one cross-shard AKNN at αe.
	st.AKNNCalls++
	resE, err := aknnInto(sc, sc.sub[:0], views, q, k, alphaEnd, LB, nil, nil, &st)
	if err != nil {
		return nil, st, err
	}
	if len(resE) == 0 {
		st.Duration = time.Since(started)
		return nil, st, nil // empty index
	}
	radius := math.Inf(1)
	if len(resE) >= k {
		radius = resE[len(resE)-1].Dist
	}
	sc.sub = resE[:0] // keep grown capacity

	// Phase 2: parallel per-shard range searches at αs. Each goroutine runs
	// in its own pooled scratch and copies the scratch-owned result map out
	// before releasing it.
	objMaps := make([]map[uint64]*fuzzy.Object, len(views))
	stats := make([]Stats, len(views))
	err = fanOut(views, func(i int, v shardView) error {
		sc := getScratch()
		defer putScratch(sc)
		objs, _, err := v.ix.rangeSearch(sc, v.s, q, alphaStart, radius, true, &stats[i])
		if err != nil {
			return err
		}
		m := make(map[uint64]*fuzzy.Object, len(objs))
		for id, o := range objs {
			m[id] = o
		}
		objMaps[i] = m
		return nil
	})
	if err != nil {
		return nil, st, err
	}

	// Phase 3: shared in-memory refinement over the candidate union.
	ctx := newRKNNCtx(sc, q, k, alphaStart, alphaEnd, &st)
	// Candidates are pre-probed below; the fetch only runs if refinement
	// ever touches a non-candidate id, which would be a logic error — route
	// to the owning shard rather than crash.
	ctx.fetch = sx.getObject
	cands := sc.cands[:0]
	for i := range objMaps {
		addParallel(&st, stats[i])
		for id, o := range objMaps[i] {
			ctx.probed[id] = o
			cands = append(cands, id)
		}
	}
	st.Candidates = len(cands)
	slices.Sort(cands)
	sc.cands = cands
	for _, id := range cands {
		if _, err := ctx.profile(id); err != nil {
			return nil, st, err
		}
	}
	if algo == RSSICR {
		err = ctx.refineICR(cands)
	} else {
		err = ctx.refineBasic(cands)
	}
	if err != nil {
		return nil, st, err
	}
	st.Duration = time.Since(started)
	return ctx.appendResults(nil), st, nil
}

// ReverseKNN fans the filter+verify pipeline out per shard, then finishes
// each surviving candidate's closer-count against the remaining shards.
// Per-shard verification is a conservative filter: an object with ≥ k
// closer neighbors in its own shard has ≥ k globally and is pruned without
// cross-shard work; a survivor qualifies iff its closer-counts summed over
// all shards stay below k, which the shared refine checks with early exit.
// Results ascend by (distance to q, id).
func (sx *ShardedIndex) ReverseKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	if err := validateArgs(sx.Dims(), q, k, alpha); err != nil {
		return nil, st, err
	}
	views := sx.views()
	cands := make([][]revCandidate, len(views))
	stats := make([]Stats, len(views))
	err := fanOut(views, func(i int, v shardView) error {
		sc := getScratch()
		defer putScratch(sc)
		var err error
		cands[i], err = v.ix.reverseCandidates(sc, v.s, q, k, alpha, &stats[i])
		return err
	})
	if err != nil {
		return nil, st, err
	}
	for i := range stats {
		addParallel(&st, stats[i])
	}
	sc := getScratch()
	defer putScratch(sc)
	var results []Result
	for i, shardCands := range cands {
		for _, c := range shardCands {
			total := c.closer
			for j, v := range views {
				if j == i || total >= k {
					continue
				}
				n, err := v.ix.countCloser(sc, v.s, c.obj, alpha, c.dist, q.ID(), k-total, &st)
				if err != nil {
					return nil, st, err
				}
				total += n
			}
			if total < k {
				results = append(results, Result{ID: c.obj.ID(), Dist: c.dist, Exact: true, Lower: c.dist, Upper: c.dist})
			}
		}
	}
	sortResults(results)
	st.Duration = time.Since(started)
	return results, st, nil
}

// mergeTopK merges per-shard result lists (each already sorted by
// (distance, id)) into the global top k. Used by the fan-out paths whose
// shard answers are complete local top-k lists (linear scan, expected
// distance): the global top k is contained in the union of local top k's.
func mergeTopK(lists [][]Result, k int) []Result {
	var all []Result
	for _, l := range lists {
		all = append(all, l...)
	}
	sortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// ExpectedDistKNN fans the full-profile scan out per shard and merges the
// exact local top-k lists.
func (sx *ShardedIndex) ExpectedDistKNN(q *fuzzy.Object, k int) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	if err := validateArgs(sx.Dims(), q, k, 1); err != nil {
		return nil, st, err
	}
	views := sx.views()
	lists := make([][]Result, len(views))
	stats := make([]Stats, len(views))
	err := fanOut(views, func(i int, v shardView) error {
		var err error
		lists[i], err = v.ix.expectedDistTopK(v.s, q, k, &stats[i])
		return err
	})
	if err != nil {
		return nil, st, err
	}
	for i := range stats {
		addParallel(&st, stats[i])
	}
	out := mergeTopK(lists, k)
	st.Duration = time.Since(started)
	return out, st, nil
}
