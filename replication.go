package fuzzyknn

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/replica"
)

// ReplicationConfig tunes a leader's replication feed. The zero value (or
// a nil pointer) picks the defaults.
type ReplicationConfig struct {
	// RetainFrames bounds how many committed frames the leader keeps in
	// memory for followers to tail (default 4096). A follower that falls
	// behind the window re-bootstraps from a snapshot instead.
	RetainFrames int
	// RetainBytes bounds the retained window in encoded bytes (default
	// 64 MiB). Whichever bound trips first trims the window.
	RetainBytes int64
}

// Replication is an index's leader-side replication state: the frame log
// followers tail and the snapshot cut they bootstrap from. Obtain one with
// Index.EnableReplication and hand it to the server
// (server.Options.Replication) to expose the feed over HTTP.
type Replication struct {
	ix  *Index
	rec *recordingSearcher

	snapshots atomic.Int64
}

// EnableReplication makes the index a replication leader: every committed
// mutation — an ApplyBatch group, of which a single Insert or Delete is one
// of size one, whether issued directly or through an Engine — is also
// appended to an in-memory frame log that followers tail. Call it before NewEngine and before sharing the
// index across goroutines; enabling twice is an error. The generation
// token is minted from the wall clock, so a restarted leader presents a
// new generation and followers detect the divergence.
//
// The query hot path is untouched: only the mutation entry point passes
// through the recording wrapper.
func (ix *Index) EnableReplication(cfg *ReplicationConfig) (*Replication, error) {
	if ix.replicating {
		return nil, fmt.Errorf("fuzzyknn: replication already enabled")
	}
	var c ReplicationConfig
	if cfg != nil {
		c = *cfg
	}
	gen := uint64(time.Now().UnixNano())
	rec := &recordingSearcher{
		Searcher: ix.inner,
		log:      replica.NewLog(gen, c.RetainFrames, c.RetainBytes),
	}
	ix.inner, ix.replicating = rec, true
	return &Replication{ix: ix, rec: rec}, nil
}

// Generation returns the leader incarnation token (minted at
// EnableReplication time).
func (r *Replication) Generation() uint64 { return r.rec.log.Generation() }

// LastSeq returns the sequence of the most recently committed frame (0
// before the first replicated mutation).
func (r *Replication) LastSeq() uint64 { return r.rec.log.LastSeq() }

// OldestSeq returns the oldest retained frame sequence.
func (r *Replication) OldestSeq() uint64 { return r.rec.log.OldestSeq() }

// FramesRetained returns the current retained-window size in frames.
func (r *Replication) FramesRetained() int { return r.rec.log.FramesRetained() }

// Snapshots returns how many bootstrap snapshots have been cut.
func (r *Replication) Snapshots() int64 { return r.snapshots.Load() }

// FramesSince returns retained encoded frames with sequence >= from
// (bounded by maxBytes) and the latest committed sequence, blocking while
// the caller is caught up until a frame arrives or ctx is done. It fails
// with replication truncation when from is outside the retained window;
// the server maps that to 410 Gone.
func (r *Replication) FramesSince(ctx context.Context, from uint64, maxBytes int) ([][]byte, uint64, error) {
	return r.rec.log.FramesSince(ctx, from, maxBytes)
}

// Snapshot cuts a consistent bootstrap snapshot: every live object (sorted
// by id) encoded together with the generation and the frame sequence the
// snapshot is valid at. The cut holds the replication write lock, so
// mutations stall for its duration — acceptable for bootstrap-sized
// indexes; larger deployments bootstrap rarely and tail cheaply. Snapshot
// reads bypass the access counters and the object cache: cutting a snapshot
// is not a query. A degraded leader refuses with an error wrapping
// ErrDegraded: after a sharded commit-phase failure the shards whose stores
// committed have published their part of a batch no frame records, so a
// snapshot would name a population no frame sequence leads to.
func (r *Replication) Snapshot() ([]byte, error) {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	if d := r.ix.Degraded(); d != nil {
		return nil, fmt.Errorf("fuzzyknn: snapshot of a degraded leader: %w", d.Cause)
	}
	objs, err := r.ix.liveObjectsUncounted()
	if err != nil {
		return nil, err
	}
	enc := replica.EncodeSnapshot(r.rec.log.Generation(), r.rec.log.LastSeq(), r.ix.Dims(), objs)
	r.snapshots.Add(1)
	return enc, nil
}

// recordingSearcher wraps the index's Searcher so every committed mutation
// also lands in the replication frame log, in commit order. Query methods
// pass straight through the embedded interface. The mutex serializes
// commits with each other and with snapshot cuts so frame order always
// equals commit order.
type recordingSearcher struct {
	query.Searcher
	mu  sync.Mutex
	log *replica.Log
}

func (r *recordingSearcher) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) ([]query.Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.Searcher.ApplyBatch(inserts, deletes)
	if err != nil {
		// A *BatchError applied nothing; a commit-phase error is an I/O
		// fault the operator must resolve — either way no frame.
		return st, err
	}
	if len(inserts)+len(deletes) > 0 {
		r.log.Append(inserts, deletes)
	}
	return st, nil
}

// liveObjectsUncounted collects every live object sorted by id, reading
// each shard's backing store beneath its access counter and object cache:
// the scan is not a query, so it neither inflates the paper's object-access
// metric nor evicts the cache's hot set. Shard id lists can overlap
// (OpenIndex shards share one store), so ids are deduplicated first.
func (ix *Index) liveObjectsUncounted() ([]*fuzzy.Object, error) {
	n := len(ix.shards)
	seen := make(map[uint64]struct{})
	var ids []uint64
	for _, sh := range ix.shards {
		for _, id := range sh.base.IDs() {
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	objs := make([]*fuzzy.Object, len(ids))
	for i, id := range ids {
		o, err := ix.shards[query.ShardOf(id, n)].base.Get(id)
		if err != nil {
			return nil, fmt.Errorf("fuzzyknn: snapshot read id %d: %w", id, err)
		}
		objs[i] = o
	}
	return objs, nil
}

// FollowerConfig tunes a Follower. The zero value (or a nil pointer) picks
// the defaults. A follower long-polls /replication/log for up to 20 s a
// request, asking for at most 4 MiB of frames each time.
type FollowerConfig struct {
	// Client issues the HTTP requests (default: a client with no global
	// timeout; per-request contexts bound each call).
	Client *http.Client
	// Logf receives bootstrap/reconnect log lines; nil discards.
	Logf func(format string, args ...any)
}

// ReplicaStats is a point-in-time view of a follower's replication state.
type ReplicaStats = replica.Stats

// Follower tails a leader's replication feed into this index: bootstrap
// from the leader snapshot, then one ApplyBatch — one snapshot publish per
// shard — per committed leader frame, so follower reads are
// snapshot-isolated and byte-identical to the leader at the same applied
// sequence. Drive it with Run (retries and re-bootstraps forever) or Sync
// (one converge-and-return pass). See Index.NewFollower.
type Follower struct {
	f *replica.Follower
}

// NewFollower builds a follower that feeds this index from the leader's
// base URL. The index is typically freshly created and empty
// (NewIndex(nil, ...)); a warm index is also fine — the bootstrap applies
// only the difference between its live set and the leader snapshot. The
// index must be mutable, and nothing else should mutate it while the
// follower runs: the leader's frame sequence is the only write source a
// replica can stay byte-identical under.
func (ix *Index) NewFollower(leaderURL string, cfg *FollowerConfig) (*Follower, error) {
	var c FollowerConfig
	if cfg != nil {
		c = *cfg
	}
	objs, err := ix.liveObjectsUncounted()
	if err != nil {
		return nil, err
	}
	initial := make(map[uint64]uint32, len(objs))
	for _, o := range objs {
		initial[o.ID()] = replica.ObjectCRC(o)
	}
	f, err := replica.NewFollower(leaderURL, searcherApplier{ix.inner}, initial, &replica.Options{
		Client: c.Client,
		Logf:   c.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzzyknn: %w", err)
	}
	return &Follower{f: f}, nil
}

// searcherApplier adapts a query.Searcher to the replica apply contract.
type searcherApplier struct{ s query.Searcher }

func (a searcherApplier) ApplyBatch(ins []*fuzzy.Object, dels []uint64) error {
	_, err := a.s.ApplyBatch(ins, dels)
	return err
}

// Run drives the follower until ctx ends: bootstrap (with retry/backoff),
// long-poll tail, re-bootstrap on truncation or leader generation change.
func (f *Follower) Run(ctx context.Context) error { return f.f.Run(ctx) }

// Sync bootstraps if necessary and applies frames until the follower has
// caught up with the leader's committed sequence, then returns.
func (f *Follower) Sync(ctx context.Context) error { return f.f.Sync(ctx) }

// SyncTo is Sync but stops once the applied sequence reaches seq.
func (f *Follower) SyncTo(ctx context.Context, seq uint64) error { return f.f.SyncTo(ctx, seq) }

// Stats reports the follower's replication position and lifetime counters.
func (f *Follower) Stats() ReplicaStats { return f.f.Stats() }

// Leader returns the leader base URL.
func (f *Follower) Leader() string { return f.f.Leader() }
