package query

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// ShardedIndex is a Searcher over N hash-partitioned shards. Each shard is
// a complete, independently mutable, snapshot-isolated Index (usually with
// its own store); ShardOf assigns every object id to exactly one shard.
//
// It has no query algorithms of its own. Every read family is one function
// over a forest of pinned tree snapshots, and a query method here pins the
// forest (pin) and calls that function, exactly as the Index method does
// with its one tree:
//
//   - AKNN (aknnInto): the pruning bound is global and moves as the search
//     proceeds, so it is one best-first search over all the trees — one
//     queue seeded with every shard's root, on the calling goroutine.
//   - RangeSearch (rangeSearchInto over rangeHits): the radius is fixed
//     before any tree is touched, so the trees are searched concurrently
//     (fanOut) and the hits sorted once.
//   - RKNN (rknnInto): the four §4 algorithms as named. Their AKNN
//     sub-searches are the forest AKNN, RSS's range phase is rangeHits (the
//     only part that fans out), Naive reads every tree's population, and
//     refinement is in-memory work on the calling goroutine.
//   - ReverseKNN (reverseKNN): per-tree filter+verify fans out and yields
//     conservative candidates (an object with ≥ k closer neighbors in its
//     own shard can never qualify globally); each candidate's closer-count
//     is then completed against the other trees with early exit at k.
//   - LinearScanAKNN, ExpectedDistKNN (scanTopK): the trees are scanned
//     concurrently, the scores gathered and cut at k.
//   - Refine (refine): each non-exact result is probed in its owning shard.
//
// Which leaf entries a bound lets through is a property of the objects and
// the bound, not of how the objects are cut into trees, so AKNN, RKNN and
// RangeSearch probe exactly the objects a single tree over the union would,
// whatever the shard count (only tree-node and page counts differ).
//
// Mutations route by ShardOf; ApplyBatch commits every touched shard and
// then publishes one forest, the array of all shards' snapshots, with one
// atomic swap. A sharded read pins the forest with one load, so it sees
// either none of a batch or all of it, across shards as within one: every
// answer is the answer over a population some commit produced. Quiescent
// reads (no writer in flight) are byte-identical to a single-tree index
// over the same objects — the property the equivalence tests pin down.
type ShardedIndex struct {
	shards []*Index

	// forest is every shard's snapshot as the last published batch left
	// them; never mutated once stored.
	forest atomic.Pointer[[]*snapshot]
	// publishMu orders the swaps of batches over disjoint shards, each of
	// which builds its forest from the previous one.
	publishMu sync.Mutex
}

// NewSharded assembles a sharded index over pre-built shards. Shard i must
// hold exactly the objects with ShardOf(id, len(shards)) == i — mutations
// and probes by id route by that function, and the forest algorithms rely
// on the partition being disjoint and complete. Shards with known dimensionality
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
	sx := &ShardedIndex{shards: shards}
	forest := make([]*snapshot, len(shards))
	for i, sh := range shards {
		forest[i] = sh.read()
	}
	sx.forest.Store(&forest)
	return sx, nil
}

// publish swaps in a forest of the touched shards' current snapshots and
// the previous forest's others. The touched shards' writer locks must be
// held, so what they hold now is what their batch committed.
func (sx *ShardedIndex) publish(touched []int) {
	sx.publishMu.Lock()
	defer sx.publishMu.Unlock()
	next := append([]*snapshot(nil), *sx.forest.Load()...)
	for _, sh := range touched {
		next[sh] = sx.shards[sh].read()
	}
	sx.forest.Store(&next)
}

// pin is scratch.pin over the forest: one load pins every shard's snapshot,
// all as one published batch left them.
func (sx *ShardedIndex) pin(sc *scratch) []shardView {
	sc.views = sc.views[:0]
	for i, s := range *sx.forest.Load() {
		sc.views = append(sc.views, shardView{ix: sx.shards[i], s: s})
	}
	return sc.views
}

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return len(sx.shards) }

// Shard returns the i-th shard for diagnostics and tests.
func (sx *ShardedIndex) Shard(i int) *Index { return sx.shards[i] }

// Len returns the total number of indexed objects.
func (sx *ShardedIndex) Len() int {
	n := 0
	for _, s := range *sx.forest.Load() {
		n += s.tree.Len()
	}
	return n
}

// Dims returns the index dimensionality: the first shard-known value (all
// non-empty shards agree by construction).
func (sx *ShardedIndex) Dims() int {
	for _, s := range *sx.forest.Load() {
		if s.dims != 0 {
			return s.dims
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
		for _, id := range (*sx.forest.Load())[i].leafIDs(&Stats{}) {
			if ShardOf(id, len(sx.shards)) != i {
				return fmt.Errorf("shard %d holds id %d owned by shard %d", i, id, ShardOf(id, len(sx.shards)))
			}
		}
	}
	return nil
}

// shardView is one tree of the forest a query searches, pinned to the
// snapshot read when the query started (see scratch.pin and
// ShardedIndex.pin).
type shardView struct {
	ix *Index
	s  *snapshot
}

// probe reads id from the store of the tree that owns it, charging the
// access to st.
func probe(views []shardView, id uint64, st *Stats) (*fuzzy.Object, error) {
	return views[ShardOf(id, len(views))].ix.getObject(id, st)
}

// pagedErr surfaces the first tree's sticky page-cache failure, if any: a
// failed page resolves to an empty node, which must come back as an error
// and not as a silently short answer.
func pagedErr(views []shardView) error {
	for _, v := range views {
		if err := v.ix.pagedErr(); err != nil {
			return err
		}
	}
	return nil
}

// fanOut is how a query family runs the part of its plan whose bound is
// fixed before any tree is touched — a range search's radius, a scan —
// over a forest of several trees: work runs once per tree concurrently,
// each call in a pooled scratch of its own, charging sub.stats and
// returning a slice sub owns. The slices are gathered into *out and the
// stats into sc.stats before their scratch goes back (in completion order,
// which no caller can observe: every family sorts what it gathers). The
// first error by tree order wins, for determinism. A one-tree forest never
// comes here: its caller runs work on its own goroutine in its own scratch.
func fanOut[T any](sc *scratch, views []shardView, out *[]T, work func(sub *scratch, tree int) ([]T, error)) error {
	errs := make([]error, len(views))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := getScratch()
			defer putScratch(sub)
			sub.stats = Stats{}
			part, err := work(sub, i)
			errs[i] = err
			mu.Lock()
			defer mu.Unlock()
			addParallel(&sc.stats, sub.stats)
			*out = append(*out, part...)
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
// search over the pinned forest (see aknnInto), every variant as named.
// Every §3.3 decision is taken at a leaf or object top, which does not
// depend on how the objects are cut into trees, so a sharded answer —
// unprobed results (Exact == false) and their bounds included — is
// byte-identical to the single tree's over the same objects, at the same
// cost but for node visits.
func (sx *ShardedIndex) AKNN(q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error) {
	started := time.Now()
	sc := getScratch()
	defer putScratch(sc)
	views := sx.pin(sc)
	if err := validateArgs(views, q, k, alpha); err != nil {
		return nil, Stats{}, err
	}
	if algo < Basic || algo > LBLPUB {
		return nil, Stats{}, badArgf("query: unknown AKNN algorithm %d", int(algo))
	}
	sc.stats = Stats{}
	// The answer is sized once; a k beyond the population must not size it.
	dst := make([]Result, 0, min(k, sx.Len()))
	res, err := aknnInto(sc, dst, views, q, k, alpha, algo, nil, nil)
	if err != nil {
		return nil, sc.stats, err
	}
	sc.stats.Duration = time.Since(started)
	return res, sc.stats, nil
}

// The other read families are the single-tree functions over the pinned
// forest, exactly as on a plain Index.

// LinearScanAKNN implements Searcher; see scanTopK.
func (sx *ShardedIndex) LinearScanAKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return scanTopK(sc, sx.pin(sc), q, k, alpha, alphaDistScore)
}

// ExpectedDistKNN implements Searcher; see scanTopK.
func (sx *ShardedIndex) ExpectedDistKNN(q *fuzzy.Object, k int) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return scanTopK(sc, sx.pin(sc), q, k, 1, expectedDistScore)
}

// Refine implements Searcher: non-exact results (e.g. a lazy answer relayed
// from a single-tree index) are probed through their owning shards; see
// refine.
func (sx *ShardedIndex) Refine(q *fuzzy.Object, alpha float64, rs []Result) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return refine(sc, sx.pin(sc), q, alpha, rs)
}

// RangeSearch implements Searcher; see rangeSearchInto.
func (sx *ShardedIndex) RangeSearch(q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return rangeSearchInto(sc, nil, sx.pin(sc), q, alpha, radius)
}

// RKNN implements Searcher: all four §4 algorithms run as named, whatever
// the shard count; see rknnInto.
func (sx *ShardedIndex) RKNN(q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return rknnInto(sc, nil, sx.pin(sc), q, k, alphaStart, alphaEnd, algo)
}

// ReverseKNN implements Searcher; see reverseKNN.
func (sx *ShardedIndex) ReverseKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return reverseKNN(sc, sx.pin(sc), q, k, alpha)
}
