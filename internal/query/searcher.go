package query

import (
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/store"
)

// Searcher is the query contract the engine, server and public API program
// against. Two implementations exist:
//
//   - *Index: one R-tree over one object store, the paper's single-tree
//     design with snapshot-isolated mutations.
//   - *ShardedIndex: N hash-partitioned *Index shards behind a coordinator
//     that answers what a single tree over their union would, byte for
//     byte.
//
// All methods must be safe for concurrent use. Query methods run against a
// consistent snapshot per shard (see Index for the isolation contract);
// mutations serialize per shard.
type Searcher interface {
	// AKNN answers the ad-hoc kNN query (Definition 4) with the selected
	// algorithm variant; results ascend by (distance, id). Lazy-probe
	// variants may return non-exact results, the same ones on every
	// layout.
	AKNN(q *fuzzy.Object, k int, alpha float64, algo AKNNAlgorithm) ([]Result, Stats, error)
	// LinearScanAKNN is the exhaustive correctness baseline (§3.1).
	LinearScanAKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error)
	// Refine probes any non-exact results and re-sorts by exact
	// (distance, id).
	Refine(q *fuzzy.Object, alpha float64, rs []Result) ([]Result, Stats, error)
	// RKNN answers the range kNN query over [alphaStart, alphaEnd]
	// (Definition 5); results ascend by object id with exact qualifying
	// ranges.
	RKNN(q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error)
	// RangeSearch returns every object with d_α(A, q) ≤ radius, exact,
	// ascending by (distance, id).
	RangeSearch(q *fuzzy.Object, alpha, radius float64) ([]Result, Stats, error)
	// ReverseKNN returns every object that counts q among its own k nearest
	// neighbors at threshold α, ascending by (distance to q, id).
	ReverseKNN(q *fuzzy.Object, k int, alpha float64) ([]Result, Stats, error)
	// ExpectedDistKNN ranks by the integrated distance ∫₀¹ d_α dα (§2.1).
	ExpectedDistKNN(q *fuzzy.Object, k int) ([]Result, Stats, error)
	// ApplyBatch is the one way a mutation moves (the Insert and Delete
	// functions are a group of one through it): it group-commits inserts
	// and deletes as one index transition per shard (one writer-lock
	// acquisition, one tree clone, one snapshot publish, one store fsync),
	// all-or-nothing on validation failure (*BatchError). The stats slice
	// has one entry per item, inserts first.
	ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) ([]Stats, error)
	// Checkpoint cuts a durable checkpoint of every shard's store and
	// returns per-shard results in shard order. The writer stays live throughout
	// (the store's three-phase protocol, not the index write lock, provides
	// consistency). Indexes over stores without a durable log fail with
	// store.ErrUnsupported.
	Checkpoint() ([]store.CheckpointInfo, error)
	// Degraded reports the sticky degraded state entered when the backing
	// store fail-stops after a storage fault (nil = healthy). A degraded
	// index keeps answering every query from the last published snapshot;
	// mutations and checkpoints fail with errors wrapping store.ErrFailed.
	Degraded() *DegradedState
	// StorageFaults counts store operations refused by fail-stopped
	// storage (the triggering fault plus every rejected retry).
	StorageFaults() int64
	// Len returns the number of indexed objects.
	Len() int
	// Dims returns the dimensionality (0 until known).
	Dims() int
	// Stats describes the index's physical layout for diagnostics: one
	// ShardStats per shard (a single entry for a plain Index).
	Stats() IndexStats
}

// Compile-time checks that both index kinds satisfy the contract.
var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*ShardedIndex)(nil)
)

// ShardStats describes one shard's physical state.
type ShardStats struct {
	// Objects is the shard's live object count.
	Objects int
	// Dims is the shard's dimensionality (0 while the shard is empty and
	// has never seen an object).
	Dims int
	// TreeHeight is the shard R-tree's height (0 when empty).
	TreeHeight int
	// TreeMaxEntries is the shard R-tree's node capacity.
	TreeMaxEntries int
	// Checkpoint is the shard store's checkpoint state; nil when the store
	// cannot checkpoint (in-memory or immutable stores).
	Checkpoint *store.CheckpointInfo
	// PageCache is the shard's block-cache state; nil for fully in-memory
	// shards.
	PageCache *pager.CacheStats
}

// IndexStats describes an index's physical layout.
type IndexStats struct {
	// Objects is the total live object count across shards.
	Objects int
	// Dims is the index dimensionality (0 until known).
	Dims int
	// Shards has one entry per shard, in shard order. A plain Index reports
	// itself as shard 0 of 1.
	Shards []ShardStats
}

// ShardOf maps an object id to its owning shard among n. Ids are hashed
// (splitmix64 finalizer) so that sequential or clustered id assignments
// still spread uniformly across shards; every layer that routes by id —
// inserts, deletes, store probes — must use this one function.
func ShardOf(id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	x := id + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
