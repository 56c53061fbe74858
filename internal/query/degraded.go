package query

import (
	"errors"
	"time"

	"fuzzyknn/internal/store"
)

// DegradedState describes a sticky degraded index: the backing store
// fail-stopped after a storage fault (store.ErrFailed — a failed fsync or
// write whose durability cannot be trusted), so every write is refused
// while reads keep serving the last published snapshot. The state never
// clears in place, for the same reason the store never retries a failed
// fsync: recovery is a reopen onto healthy storage, which replays exactly
// the acknowledged prefix.
type DegradedState struct {
	// Reason is the first fail-stop error observed (Cause.Error()).
	Reason string
	// Since is when the index entered degraded mode.
	Since time.Time
	// Cause is the first fail-stop error; it wraps store.ErrFailed.
	Cause error
}

// noteStoreErr routes every store-side mutation/checkpoint error through
// one place: a fail-stop flips the index into sticky degraded mode (first
// observation wins) and counts the refusal. It returns err unchanged so
// call sites can wrap it inline.
func (ix *Index) noteStoreErr(err error) error {
	if err != nil && errors.Is(err, store.ErrFailed) {
		ix.storageFaults.Add(1)
		ix.degraded.CompareAndSwap(nil, &DegradedState{Reason: err.Error(), Since: time.Now(), Cause: err})
	}
	return err
}

// refuseIfDegraded returns the shard's sticky fail-stop error (counting
// the refusal) when it is degraded. A single index's write path doesn't
// need it — the poisoned store refuses on its own — but a sharded
// coordinator must gate writes to its healthy shards too, or a degraded
// index would keep accepting the subset of writes that happen to hash
// elsewhere.
func (ix *Index) refuseIfDegraded() error {
	if d := ix.degraded.Load(); d != nil {
		ix.storageFaults.Add(1)
		return d.Cause
	}
	return nil
}

// refuseIfDegraded returns the first degraded shard's fail-stop error, or
// nil when every shard is healthy.
func (sx *ShardedIndex) refuseIfDegraded() error {
	for _, sh := range sx.shards {
		if err := sh.refuseIfDegraded(); err != nil {
			return err
		}
	}
	return nil
}

// Degraded implements Searcher.
func (ix *Index) Degraded() *DegradedState { return ix.degraded.Load() }

// StorageFaults implements Searcher.
func (ix *Index) StorageFaults() int64 { return ix.storageFaults.Load() }

// Degraded implements Searcher: the coordinator is degraded as soon as any
// shard is (writes routed to that shard fail; a partial write surface is
// not worth advertising as healthy). The earliest-degraded shard's state
// is returned for a stable reason across calls.
func (sx *ShardedIndex) Degraded() *DegradedState {
	var first *DegradedState
	for _, sh := range sx.shards {
		if d := sh.Degraded(); d != nil && (first == nil || d.Since.Before(first.Since)) {
			first = d
		}
	}
	return first
}

// StorageFaults implements Searcher: the sum across shards.
func (sx *ShardedIndex) StorageFaults() int64 {
	var n int64
	for _, sh := range sx.shards {
		n += sh.StorageFaults()
	}
	return n
}
