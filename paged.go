package fuzzyknn

import (
	"fmt"
	"io"

	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// ErrPagedMismatch reports a page file that does not describe the store it
// was opened against (different dimensionality or object count).
var ErrPagedMismatch = query.ErrPagedMismatch

// CacheStats reports block-cache activity: how many node loads were served
// from resident frames, how many had to read a page from disk, and how much
// of the configured budget is resident. A sharded index reports the sum
// over its shards' caches.
type CacheStats = pager.CacheStats

// SavePaged serializes the index's R-tree(s) into paged on-disk form at
// path: fixed-size CRC-protected pages plus a manifest (path+".manifest")
// binding the file generation, root page and object count, written with the
// temp+fsync+rename discipline. A sharded index writes one page file per
// shard ("<path>.shard<i>-of-<n>", like OpenLogIndex's logs), so it must be
// reopened with the same shard count. The page file pairs with the object
// store — serve both with OpenPagedIndex.
func (ix *Index) SavePaged(path string) error {
	n := len(ix.shards)
	for i, sh := range ix.shards {
		if err := sh.index.SavePaged(shardPath(path, i, n)); err != nil {
			return shardErr(i, n, err)
		}
	}
	return nil
}

// OpenPagedIndex serves queries from a page file written by SavePaged
// without rebuilding (or fully loading) the R-tree: only each shard's root
// page stays resident, and traversals fault pages in through a block cache
// of cacheMB MiB total (split evenly across shards; <= 0 selects 64 MiB).
// Answers are byte-identical to the in-memory index the pages were saved
// from — the cache changes I/O, never results or the paper's cost
// accounting. storePath is the object store (SaveObjects) the page file was
// built over; object probes read it directly, optionally through an LRU
// (Config.CacheSize) — the block cache holds index pages, the LRU holds
// object payloads, and the two never double-count.
//
// With cfg.Shards > 1 the page files are "<pagePath>.shard<i>-of-<n>"; the
// shard count must match SavePaged's. The index is read-only (Insert,
// Delete and ApplyBatch fail with ErrReadOnly). Close the index when done.
func OpenPagedIndex(storePath, pagePath string, cacheMB int, cfg *Config) (*Index, error) {
	c := cfg.orDefault()
	if cacheMB <= 0 {
		cacheMB = 64
	}
	ds, err := store.Open(storePath)
	if err != nil {
		return nil, fmt.Errorf("fuzzyknn: %w", err)
	}
	// Each shard's manifest records its partition's population; size the
	// expectation from the shared store's id space.
	n := shardCount(c)
	specs := make([]shardSpec, n)
	for i := range specs {
		specs[i] = shardSpec{reader: ds, pagePath: shardPath(pagePath, i, n)}
	}
	for _, id := range ds.IDs() {
		specs[query.ShardOf(id, n)].expect++
	}
	return assemble(specs, []io.Closer{ds}, c, int64(cacheMB)<<20)
}

// PageCacheStats returns the block cache's counters, summed across shards;
// ok is false for fully in-memory (non-paged) indexes.
func (ix *Index) PageCacheStats() (CacheStats, bool) {
	var sum CacheStats
	paged := false
	for _, sh := range ix.shards {
		if cs, ok := sh.index.CacheStats(); ok {
			paged = true
			sum.Hits += cs.Hits
			sum.Misses += cs.Misses
			sum.Evictions += cs.Evictions
			sum.ResidentBytes += cs.ResidentBytes
			sum.CapacityBytes += cs.CapacityBytes
		}
	}
	return sum, paged
}

// ObjectCacheStats returns the object LRU's hit/miss counters (summed when
// shards hold private caches); ok is false when Config.CacheSize was 0.
func (ix *Index) ObjectCacheStats() (hits, misses int64, ok bool) {
	for _, l := range ix.lrus {
		h, m := l.Stats()
		hits += h
		misses += m
	}
	return hits, misses, len(ix.lrus) > 0
}
