package fuzzyknn

import (
	"io"

	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// OpenPagedTiny is OpenPagedIndex with a block cache of three pages per
// shard, so that a history's small trees still evict mid-query.
func OpenPagedTiny(storePath, pagePath string, cfg Config) (*Index, error) {
	ds, err := store.Open(storePath)
	if err != nil {
		return nil, err
	}
	n := shardCount(cfg)
	specs := make([]shardSpec, n)
	for i := range specs {
		specs[i] = shardSpec{reader: ds, pagePath: shardPath(pagePath, i, n)}
	}
	for _, id := range ds.IDs() {
		specs[query.ShardOf(id, n)].expect++
	}
	return assemble(specs, []io.Closer{ds}, cfg, int64(n)*3*pager.PageAlign)
}

// CheckInvariants checks every tree of ix and, on a sharded index, that
// every id sits in the shard that owns it.
func CheckInvariants(ix *Index) error {
	return ix.forest.(interface{ CheckInvariants() error }).CheckInvariants()
}
