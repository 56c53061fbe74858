// Package fuzzyknn is a library for k-nearest-neighbor search over fuzzy
// objects — point clouds whose members carry membership probabilities — as
// introduced by Zheng, Fung and Zhou, "K-Nearest Neighbor Search for Fuzzy
// Objects", SIGMOD 2010.
//
// A fuzzy object A is a finite set of weighted points ⟨a, µ(a)⟩ with
// µ ∈ (0, 1] and a non-empty kernel (µ = 1). Its α-cut A_α keeps the points
// with µ ≥ α, and the α-distance between two objects is the closest-pair
// distance of their α-cuts. Two query types are supported:
//
//   - AKNN(q, k, α): the k objects with smallest α-distance to q, at one
//     user-chosen confidence threshold α.
//   - RKNN(q, k, [αs, αe]): every object belonging to some kNN set within
//     the threshold range, together with its exact qualifying range.
//
// Basic usage:
//
//	objs := ...                                  // []*fuzzyknn.Object
//	idx, err := fuzzyknn.NewIndex(objs, nil)     // in-memory index
//	res, stats, err := idx.AKNN(q, 10, 0.5, fuzzyknn.LBLPUB)
//
// Datasets can also be persisted with SaveObjects and served from disk via
// OpenIndex, in which case the Stats.ObjectAccesses metric counts real
// storage probes, matching the cost model of the paper.
package fuzzyknn

import (
	"fmt"
	"io"
	"strings"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/interval"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// Point is a point in d-dimensional Euclidean space.
type Point = geom.Point

// WeightedPoint is a point with its membership probability µ ∈ (0, 1].
type WeightedPoint = fuzzy.WeightedPoint

// Object is an immutable fuzzy object. Construct with NewObject.
type Object = fuzzy.Object

// Interval is a range of probability thresholds with open/closed endpoints.
type Interval = interval.Interval

// IntervalSet is a canonical union of intervals — the type of qualifying
// ranges returned by RKNN.
type IntervalSet = interval.Set

// Result is one AKNN answer; see the Exact field for lazy-probe semantics.
type Result = query.Result

// RangedResult is one RKNN answer with its qualifying range.
type RangedResult = query.RangedResult

// Stats reports the cost of a query (object accesses, node accesses,
// distance evaluations, wall time, ...).
type Stats = query.Stats

// ErrInvalidQuery tags argument-validation failures of the query entry
// points (bad k, alpha out of range, nil or mismatched query object, ...).
// Test with errors.Is to tell client mistakes from execution failures.
var ErrInvalidQuery = query.ErrInvalidArgument

// ErrNotFound is returned by Object for unknown object ids and by Delete
// for ids that are not live.
var ErrNotFound = store.ErrNotFound

// ErrReadOnly is returned by Insert/Delete on indexes whose store has no
// write side (e.g. one opened from an immutable store file with OpenIndex).
var ErrReadOnly = store.ErrReadOnly

// ErrDuplicate is returned by Insert when the object id is already live.
var ErrDuplicate = store.ErrDuplicate

// ErrCheckpointUnsupported is returned by Checkpoint on indexes whose
// store has no durable log (in-memory NewIndex, immutable OpenIndex).
var ErrCheckpointUnsupported = store.ErrUnsupported

// ErrDegraded tags writes refused by an index whose backing store
// fail-stopped after a storage fault (a failed fsync or a write whose
// durability cannot be trusted). The condition is sticky: it never clears
// in place — recovery is reopening the index on healthy storage, which
// replays exactly the acknowledged prefix. Reads keep serving the last
// published snapshot throughout; see Index.Degraded.
var ErrDegraded = store.ErrFailed

// DegradedState describes a degraded index: why it fail-stopped and when.
type DegradedState = query.DegradedState

// CheckpointInfo describes one shard store's durable checkpoint state: the
// snapshot generation and size, and how much log the next open must replay
// on top of it.
type CheckpointInfo = store.CheckpointInfo

// BatchError rejects an entire ApplyBatch call: validation found the
// listed item errors and nothing was applied (all-or-nothing). Retrieve it
// with errors.As to learn every offending item's position.
type BatchError = query.BatchError

// BatchItemError locates one offending item of a rejected batch.
type BatchItemError = query.BatchItemError

// BatchOp tells which half of a batch a BatchItemError's position indexes.
type BatchOp = query.BatchOp

// BatchOp values.
const (
	BatchInsertOp = query.OpInsert
	BatchDeleteOp = query.OpDelete
)

// FsyncPolicy selects when a log-backed index fsyncs; see the Fsync*
// constants and Config.Fsync.
type FsyncPolicy = store.SyncPolicy

// Fsync policies for log-backed indexes, trading durability of
// acknowledged writes for throughput (never integrity — a crash always
// leaves a log that reopens cleanly; the policy only bounds how much
// acknowledged tail can be lost). Every mutation is a group commit — an
// Insert or Delete is a group of one — so there are two policies:
//
//   - FsyncAlways: fsync every commit before it is acknowledged. The
//     default, and the strongest guarantee.
//   - FsyncOff: never fsync; the OS flushes at its leisure.
//
// FsyncBatch is the legacy spelling of FsyncAlways: it used to skip the
// fsync of single-record appends, a write path that no longer exists.
const (
	FsyncAlways = store.SyncAlways
	FsyncBatch  = store.SyncBatch
	FsyncOff    = store.SyncOff
)

// ParseFsyncPolicy resolves the CLI names of the fsync policies:
// always | off (case-insensitive; empty selects FsyncAlways, and "batch" is
// accepted as a legacy synonym of "always").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "always", "batch":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("fuzzyknn: unknown fsync policy %q (want always | off)", s)
}

// ParseAKNNAlgorithm resolves the CLI/HTTP names of the AKNN variants:
// basic | lb | lb-lp | lb-lp-ub (case-insensitive; empty selects LBLPUB).
func ParseAKNNAlgorithm(s string) (AKNNAlgorithm, error) {
	switch strings.ToLower(s) {
	case "basic":
		return Basic, nil
	case "lb":
		return LB, nil
	case "lb-lp", "lblp":
		return LBLP, nil
	case "", "lb-lp-ub", "lblpub":
		return LBLPUB, nil
	}
	return 0, fmt.Errorf("fuzzyknn: unknown AKNN algorithm %q (want basic | lb | lb-lp | lb-lp-ub)", s)
}

// ParseRKNNAlgorithm resolves the CLI/HTTP names of the RKNN variants:
// naive | basic | rss | rss-icr (case-insensitive; empty selects RSSICR).
func ParseRKNNAlgorithm(s string) (RKNNAlgorithm, error) {
	switch strings.ToLower(s) {
	case "naive":
		return Naive, nil
	case "basic":
		return BasicRKNN, nil
	case "rss":
		return RSS, nil
	case "", "rss-icr", "rssicr":
		return RSSICR, nil
	}
	return 0, fmt.Errorf("fuzzyknn: unknown RKNN algorithm %q (want naive | basic | rss | rss-icr)", s)
}

// AKNNAlgorithm selects the AKNN search variant.
type AKNNAlgorithm = query.AKNNAlgorithm

// AKNN variants in the paper's order: the baseline best-first search, the
// improved lower bound, lazy probing, and the improved upper bound.
const (
	Basic  = query.Basic
	LB     = query.LB
	LBLP   = query.LBLP
	LBLPUB = query.LBLPUB
)

// RKNNAlgorithm selects the RKNN search variant.
type RKNNAlgorithm = query.RKNNAlgorithm

// RKNN variants in the paper's order.
const (
	Naive     = query.Naive
	BasicRKNN = query.BasicRKNN
	RSS       = query.RSS
	RSSICR    = query.RSSICR
)

// NewObject validates and builds a fuzzy object from weighted points:
// memberships in (0, 1], at least one µ = 1 point, consistent dimensions,
// finite coordinates.
func NewObject(id uint64, points []WeightedPoint) (*Object, error) {
	return fuzzy.New(id, points)
}

// AlphaDistance computes d_α(a, b), the closest-pair distance between the
// two α-cuts.
func AlphaDistance(a, b *Object, alpha float64) float64 {
	return fuzzy.AlphaDist(a, b, alpha)
}

// Profile is the full step function α ↦ d_α(A, Q) for one object pair.
type Profile = fuzzy.Profile

// DistanceProfile computes the complete distance profile between two
// objects in one incremental pass.
func DistanceProfile(a, q *Object) *Profile {
	return fuzzy.ComputeProfile(a, q)
}

// Config tunes index construction. The zero value (or a nil pointer) picks
// sensible defaults.
type Config struct {
	// NodeMin / NodeMax are R-tree node capacities (defaults 25/64). Kept
	// because the paged and sharded suites need multi-level trees over small
	// fixtures and a page file's manifest records the pair.
	NodeMin, NodeMax int
	// CacheSize, when positive, interposes an LRU object cache of that many
	// objects between the index and storage. Accesses are still counted
	// before the cache, preserving the paper's cost accounting.
	CacheSize int
	// Incremental builds the R-tree by repeated insertion instead of STR
	// bulk loading. Kept as the equivalence suites' second tree shape: every
	// answer is checked on both.
	Incremental bool
	// Shards, when at least 2, hash-partitions the objects across that many
	// independent R-trees behind a coordinator that answers as a single tree
	// over the same objects does: the same results, byte for byte, once a
	// lazy AKNN answer is refined (LBLP and LBLPUB may admit unprobed
	// results on any layout). AKNN runs as one best-first search over all
	// the trees; the other families fan out in parallel and merge.
	// Mutations route to the owning shard by id hash. With OpenLogIndex
	// each shard appends to its own log file ("<path>.shard<i>-of-<n>"), so
	// an index must be reopened with the same shard count it was created
	// with. 0 or 1 selects the single-tree layout.
	Shards int
	// Fsync selects the durability policy of a log-backed index
	// (OpenLogIndex only): whether the log fsyncs a commit before
	// acknowledging it. The zero value is FsyncAlways; FsyncOff leaves the
	// flush to the OS. See the Fsync* constants for the exact tradeoff.
	Fsync FsyncPolicy
}

func (c *Config) orDefault() Config {
	if c == nil {
		return Config{}
	}
	return *c
}

// Index answers AKNN and RKNN queries over a set of fuzzy objects. The set
// is mutable: Insert and Delete add and retire objects while queries are in
// flight, with snapshot isolation — every query runs against the exact
// object population that was live when it started. In-memory indexes
// (NewIndex) and log-backed indexes (OpenLogIndex) accept mutations;
// indexes over immutable store files (OpenIndex, OpenPagedIndex) are
// read-only.
//
// With Config.Shards > 1 the objects are hash-partitioned across that many
// independent R-trees behind the same API; see Config.Shards.
type Index struct {
	// inner is the one tree itself or the coordinator over the shards'
	// trees; EnableReplication wraps it in the recording searcher. forest
	// stays the unwrapped value: a join is a read over the trees themselves.
	inner       query.Searcher
	forest      query.Searcher
	shards      []shard      // in shard order; one entry for a single tree
	lrus        []*store.LRU // object caches, one per distinct backing reader
	closers     []io.Closer  // backing files and page files
	replicating bool         // EnableReplication ran
}

// shard is one tree and the two ends of the reader stack beneath it.
type shard struct {
	index    *query.Index
	counting *store.Counting // what the tree reads: counts accesses, above any LRU
	base     store.Reader    // the backing store, beneath counter and LRU
}

// shardSpec describes one shard's backing to assemble.
type shardSpec struct {
	reader   store.Reader      // backing store; shards may share one
	keep     func(uint64) bool // the ids of a shared reader to index (nil = all)
	pagePath string            // when set, serve the tree from this page file instead of building it
	expect   int               // the population the page file must record
}

// assemble is the one way an Index is put together; every constructor only
// describes its shards' backing and hands over the files it opened (which
// assemble closes on failure). Per shard the reader stack is backing reader
// → LRU → access counter, with one LRU per distinct backing reader: shards
// sharing a store file share one cache of the whole Config.CacheSize,
// shards with private stores split it evenly. The tree is built over the
// counter (restricted to the ids keep admits) or opened from a page file
// behind a block cache of pageCacheBytes split across shards.
func assemble(specs []shardSpec, files []io.Closer, c Config, pageCacheBytes int64) (*Index, error) {
	n := len(specs)
	ix := &Index{shards: make([]shard, n), closers: files}
	opts := query.Options{
		MinEntries:  c.NodeMin,
		MaxEntries:  c.NodeMax,
		Incremental: c.Incremental,
	}
	caches := make(map[store.Reader]*store.LRU, n) // one entry per distinct backing reader
	for _, sp := range specs {
		caches[sp.reader] = nil
	}
	trees := make([]*query.Index, n)
	for i, sp := range specs {
		top := sp.reader
		if c.CacheSize > 0 {
			if caches[sp.reader] == nil {
				caches[sp.reader] = store.NewLRU(sp.reader, (c.CacheSize+len(caches)-1)/len(caches))
				ix.lrus = append(ix.lrus, caches[sp.reader])
			}
			top = caches[sp.reader]
		}
		counting := store.NewCounting(top)
		var err error
		if sp.pagePath != "" {
			var p *query.PagedIndex
			if p, err = query.OpenPagedIndex(counting, sp.pagePath, pageCacheBytes/int64(n), sp.expect, opts); err == nil {
				ix.closers = append(ix.closers, p)
				trees[i] = p.Index
			}
		} else {
			trees[i], err = query.BuildFiltered(counting, opts, sp.keep)
		}
		if err != nil {
			ix.Close()
			return nil, shardErr(i, n, err)
		}
		counting.Reset() // exclude index construction from query accounting
		ix.shards[i] = shard{index: trees[i], counting: counting, base: sp.reader}
	}
	if n == 1 {
		// The bare tree, not a coordinator of one: a coordinator over one
		// tree would answer the same and only add a hop.
		ix.inner, ix.forest = trees[0], trees[0]
		return ix, nil
	}
	sx, err := query.NewSharded(trees)
	if err != nil {
		ix.Close()
		return nil, fmt.Errorf("fuzzyknn: %w", err)
	}
	ix.inner, ix.forest = sx, sx
	return ix, nil
}

// shardCount normalizes Config.Shards (0 and 1 are both the single-tree
// layout).
func shardCount(c Config) int {
	if c.Shards > 1 {
		return c.Shards
	}
	return 1
}

// shardPath names shard i's file (log or page file) of an n-shard index;
// a single tree uses path itself. The shard count is baked into the name so
// a reopen with a different Shards value finds no files (or fresh empty
// logs) instead of silently serving a wrong partition.
func shardPath(path string, i, n int) string {
	if n == 1 {
		return path
	}
	return fmt.Sprintf("%s.shard%d-of-%d", path, i, n)
}

// shardErr tags err with the package and, on a sharded index, the shard.
func shardErr(i, n int, err error) error {
	if n == 1 {
		return fmt.Errorf("fuzzyknn: %w", err)
	}
	return fmt.Errorf("fuzzyknn: shard %d: %w", i, err)
}

// NewIndex builds an in-memory index over the given objects: one MemStore
// and tree, or — with cfg.Shards > 1 — one MemStore and tree per shard.
func NewIndex(objs []*Object, cfg *Config) (*Index, error) {
	c := cfg.orDefault()
	n := shardCount(c)
	parts := make([][]*Object, n)
	for _, o := range objs {
		if o == nil {
			return nil, fmt.Errorf("fuzzyknn: %w: nil object", ErrInvalidQuery)
		}
		s := query.ShardOf(o.ID(), n)
		parts[s] = append(parts[s], o)
	}
	specs := make([]shardSpec, n)
	for i := range specs {
		ms, err := store.NewMemStore(parts[i])
		if err != nil {
			return nil, fmt.Errorf("fuzzyknn: %w", err)
		}
		specs[i].reader = ms
	}
	return assemble(specs, nil, c, 0)
}

// SaveObjects persists objects into a single store file that OpenIndex can
// serve queries from. All objects must share the given dimensionality.
func SaveObjects(path string, dims int, objs []*Object) error {
	return store.WriteAll(path, dims, objs)
}

// OpenIndex opens a store file written by SaveObjects and builds an index
// over it. Object probes during queries read from disk (optionally through
// an LRU cache, see Config.CacheSize). The resulting index is read-only
// (Insert/Delete fail with ErrReadOnly); use OpenLogIndex for a mutable
// on-disk index. With cfg.Shards > 1 the single store file serves several
// trees: each shard indexes its hash partition of the stored objects and
// counts its own accesses, while probes share one file handle (and one
// cache). Close the index when done.
func OpenIndex(path string, cfg *Config) (*Index, error) {
	c := cfg.orDefault()
	ds, err := store.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fuzzyknn: %w", err)
	}
	n := shardCount(c)
	specs := make([]shardSpec, n)
	for i := range specs {
		specs[i].reader = ds
		if n > 1 {
			specs[i].keep = func(id uint64) bool { return query.ShardOf(id, n) == i }
		}
	}
	return assemble(specs, []io.Closer{ds}, c, 0)
}

// OpenLogIndex opens (or creates) a mutable on-disk index backed by an
// append-only log store: every Insert appends a durable put record, every
// Delete a tombstone, and reopening replays the log — a file cut short by a
// crash mid-append recovers by discarding the partial tail. For a new file,
// dims fixes the dimensionality and must be >= 1; for an existing file it
// must be 0 or match. With cfg.Shards > 1 every shard owns its own log
// ("<path>.shard<i>-of-<n>"), so shards replay, append and fsync
// independently; reopen with the same shard count. Close the index when
// done.
func OpenLogIndex(path string, dims int, cfg *Config) (*Index, error) {
	c := cfg.orDefault()
	n := shardCount(c)
	specs := make([]shardSpec, n)
	var files []io.Closer
	for i := range specs {
		ls, err := store.OpenLogPolicy(shardPath(path, i, n), dims, c.Fsync)
		if err != nil {
			closeAll(files)
			return nil, shardErr(i, n, err)
		}
		specs[i].reader = ls
		files = append(files, ls)
	}
	return assemble(specs, files, c, 0)
}

// Close releases the underlying store files, if any. The index must not be
// used afterwards. Closing an in-memory index is a no-op.
func (ix *Index) Close() error { return closeAll(ix.closers) }

// closeAll closes every file and returns the first failure.
func closeAll(files []io.Closer) error {
	var first error
	for _, c := range files {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Insert adds an object to the index and its store: an ApplyBatch of one
// item, returning that item's own error. The object becomes visible to
// queries that start after Insert returns; queries already in flight
// complete against the population they started with (snapshot isolation). It fails with ErrInvalidQuery for nil or dimensionally
// mismatched objects, ErrDuplicate for a live id collision, and
// ErrReadOnly when the underlying store cannot be written (OpenIndex).
func (ix *Index) Insert(obj *Object) error {
	_, err := query.Insert(ix.inner, obj)
	return err
}

// Delete retires the object with the given id (an ApplyBatch of one item,
// like Insert). Queries already in flight still see it (and can still probe
// its payload — deletes are logical tombstones in the store); queries
// started after Delete returns do not.
// It fails with ErrNotFound for ids that are not live and ErrReadOnly on
// read-only indexes. Locating the object costs one object access (counted
// in TotalObjectAccesses; BatchDelete responses carry it as Stats).
func (ix *Index) Delete(id uint64) error {
	_, err := query.Delete(ix.inner, id)
	return err
}

// ApplyBatch group-commits a batch of mutations — inserts, then deletes —
// as one index transition: per shard one writer-lock acquisition, one
// copy-on-write tree clone and (log-backed) ONE write and ONE fsync for the
// whole batch, then one snapshot publish. Queries observe either none of
// the batch or all of it, across shards too, and bulk ingest through ApplyBatch is
// an order of magnitude faster than an Insert loop on a log-backed index.
//
// The batch must be self-consistent: each id appears at most once across
// inserts and deletes together, insert ids must not be live, delete ids
// must be live, dimensionalities must agree. Any violation rejects the
// whole batch with a *BatchError listing every offending item — and
// nothing is applied. Locate probes for deletes are counted in
// TotalObjectAccesses like any store access.
func (ix *Index) ApplyBatch(inserts []*Object, deletes []uint64) error {
	_, err := ix.inner.ApplyBatch(inserts, deletes)
	return err
}

// Checkpoint cuts a durable checkpoint of every shard's log store: a
// snapshot of the live set, plus a fresh log holding only the records
// written since the cut. After a checkpoint, OpenLogIndex restores the
// index by loading the snapshot (bulk-rebuilding each shard's R-tree in one
// STR pass) and replaying only that log — so restart cost is proportional
// to live data, not to total write history. The index stays fully live
// during the call: queries and mutations proceed concurrently, and
// mutations landing mid-checkpoint are simply part of the log the next
// open replays. Returns one CheckpointInfo per shard, in
// shard order. Fails with ErrCheckpointUnsupported on in-memory (NewIndex)
// and immutable (OpenIndex) indexes.
func (ix *Index) Checkpoint() ([]CheckpointInfo, error) {
	return ix.inner.Checkpoint()
}

// Degraded reports the index's sticky degraded state, or nil while it is
// healthy. A degraded index answers every query from the last published
// snapshot but refuses Insert/Delete/ApplyBatch/Checkpoint with errors
// wrapping ErrDegraded.
func (ix *Index) Degraded() *DegradedState { return ix.inner.Degraded() }

// StorageFaults counts store operations refused by fail-stopped storage:
// the triggering fault plus every rejected retry.
func (ix *Index) StorageFaults() int64 { return ix.inner.StorageFaults() }

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.inner.Len() }

// Dims returns the dimensionality of the indexed objects.
func (ix *Index) Dims() int { return ix.inner.Dims() }

// TotalObjectAccesses returns the cumulative number of object probes since
// the index was built (all queries combined, summed across shards).
func (ix *Index) TotalObjectAccesses() int64 {
	var n int64
	for _, sh := range ix.shards {
		n += sh.counting.Count()
	}
	return n
}

// NumShards returns the number of shards (1 for a single-tree index).
func (ix *Index) NumShards() int { return len(ix.shards) }

// ShardInfo describes one shard for diagnostics: its live object count,
// dimensionality, R-tree height and cumulative object accesses.
type ShardInfo struct {
	Objects        int
	Dims           int
	TreeHeight     int
	ObjectAccesses int64
	// Checkpoint is the shard store's checkpoint state; nil when the store
	// cannot checkpoint (in-memory or immutable stores).
	Checkpoint *CheckpointInfo
	// PageCache is the shard's block-cache counters; nil for fully
	// resident (non-paged) shards.
	PageCache *CacheStats
}

// ShardInfo reports per-shard physical state, in shard order (one entry
// for a single-tree index).
func (ix *Index) ShardInfo() []ShardInfo {
	out := make([]ShardInfo, len(ix.shards))
	for i, sh := range ix.shards {
		s := sh.index.Stats().Shards[0]
		out[i] = ShardInfo{
			Objects:        s.Objects,
			Dims:           s.Dims,
			TreeHeight:     s.TreeHeight,
			ObjectAccesses: sh.counting.Count(),
			Checkpoint:     s.Checkpoint,
			PageCache:      s.PageCache,
		}
	}
	return out
}

// AKNN answers the ad-hoc kNN query: the k objects with smallest α-distance
// to q. Results come ordered by ascending distance. With the lazy-probe
// variants (LBLP, LBLPUB) some results may carry distance bounds instead of
// exact distances; use Refine to resolve them.
func (ix *Index) AKNN(q *Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error) {
	return ix.inner.AKNN(q, k, alpha, algo)
}

// LinearScanAKNN is the exhaustive baseline; useful for verification.
func (ix *Index) LinearScanAKNN(q *Object, k int, alpha float64) ([]Result, Stats, error) {
	return ix.inner.LinearScanAKNN(q, k, alpha)
}

// Refine probes any non-exact results and re-sorts by exact distance.
func (ix *Index) Refine(q *Object, alpha float64, rs []Result) ([]Result, Stats, error) {
	return ix.inner.Refine(q, alpha, rs)
}

// RKNN answers the range kNN query over [alphaStart, alphaEnd]: every
// object that is a kNN member somewhere in the range, with its exact
// qualifying range. Results come ordered by object id.
func (ix *Index) RKNN(q *Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	return ix.inner.RKNN(q, k, alphaStart, alphaEnd, algo)
}

// RangeSearch answers the α-range query: every object whose α-distance to q
// is at most radius, with exact distances, ordered by (distance, id).
func (ix *Index) RangeSearch(q *Object, alpha, radius float64) ([]Result, Stats, error) {
	return ix.inner.RangeSearch(q, alpha, radius)
}

// ExpectedDistance returns the integrated distance ∫₀¹ d_α(a, b) dα — the
// classical fuzzy-set metric the paper contrasts with its α-distance
// (§2.1). Provided as an extension for single-number summaries.
func ExpectedDistance(a, b *Object) float64 {
	return fuzzy.ExpectedDist(a, b)
}

// JoinPair is one result of a join query between two indexes.
type JoinPair = query.JoinPair

// DistanceJoin returns every pair (a ∈ left, b ∈ right) with
// d_α(a, b) ≤ eps, ordered by (distance, ids) — the fuzzy ε-distance join
// the paper names as future work (§8). Pass the same index twice for a
// self-join; each unordered pair is then reported once.
func DistanceJoin(left, right *Index, alpha, eps float64) ([]JoinPair, Stats, error) {
	return query.DistanceJoin(left.forest, right.forest, alpha, eps)
}

// KClosestPairs returns the k pairs with the smallest α-distances between
// two indexes, ascending — the fuzzy k-closest-pairs query.
func KClosestPairs(left, right *Index, k int, alpha float64) ([]JoinPair, Stats, error) {
	return query.KClosestPairs(left.forest, right.forest, k, alpha)
}

// ReverseKNN returns every object that would count q among its own k
// nearest neighbors at threshold α — the reverse kNN query the paper names
// as future work (§8). Results are ordered by (distance to q, id).
func (ix *Index) ReverseKNN(q *Object, k int, alpha float64) ([]Result, Stats, error) {
	return ix.inner.ReverseKNN(q, k, alpha)
}

// ExpectedDistKNN ranks objects by the integrated distance ∫₀¹ d_α dα
// instead of a single-threshold α-distance — the classical semantics the
// paper contrasts with its queries (§2.1). Result Dist fields carry the
// expected distance. This baseline scans every object.
func (ix *Index) ExpectedDistKNN(q *Object, k int) ([]Result, Stats, error) {
	return ix.inner.ExpectedDistKNN(q, k)
}

// Object fetches a stored object by id (counted as an access, charged to
// the owning shard).
func (ix *Index) Object(id uint64) (*Object, error) {
	return ix.shards[query.ShardOf(id, len(ix.shards))].counting.Get(id)
}
