package query

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/store"
)

// BatchOp names the half of a batch an item error belongs to.
type BatchOp int

// Batch item operations.
const (
	OpInsert BatchOp = iota
	OpDelete
)

// String names the operation.
func (op BatchOp) String() string {
	if op == OpDelete {
		return "delete"
	}
	return "insert"
}

// BatchItemError locates one offending item of a rejected batch: Pos
// indexes into the inserts slice (OpInsert) or the deletes slice (OpDelete)
// of the ApplyBatch call that failed.
type BatchItemError struct {
	Op  BatchOp
	Pos int
	Err error
}

// Error implements error.
func (e *BatchItemError) Error() string {
	return fmt.Sprintf("%s %d: %v", e.Op, e.Pos, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *BatchItemError) Unwrap() error { return e.Err }

// BatchError rejects a whole batch: validation found the listed item
// errors (all of them, not just the first) and NOTHING was applied — the
// all-or-nothing contract means the caller may correct the offending items
// and resubmit, or fall back to item-by-item application to get per-item
// verdicts. Items are ordered inserts-before-deletes, ascending positions.
type BatchError struct {
	Items []BatchItemError
}

// Error implements error.
func (e *BatchError) Error() string {
	if len(e.Items) == 1 {
		return fmt.Sprintf("query: batch rejected: %s", e.Items[0].Error())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query: batch rejected: %d invalid items:", len(e.Items))
	for i := range e.Items {
		b.WriteString(" [")
		b.WriteString(e.Items[i].Error())
		b.WriteString("]")
	}
	return b.String()
}

// Unwrap exposes every item error to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Items))
	for i := range e.Items {
		out[i] = &e.Items[i]
	}
	return out
}

// sortItems orders the collected item errors canonically.
func (e *BatchError) sortItems() {
	slices.SortFunc(e.Items, func(a, b BatchItemError) int {
		if a.Op != b.Op {
			return int(a.Op) - int(b.Op)
		}
		return a.Pos - b.Pos
	})
}

// ApplyBatch applies a group of mutations — inserts, then deletes — as ONE
// index transition: the whole batch is validated first, applied under a
// single writeMu acquisition with a single copy-on-write tree clone, the
// store commits it as one group (one write and one fsync for a log-backed
// store), and a single snapshot publish makes every item visible at once.
// Queries therefore observe either none of the batch or all of it.
//
// The batch must be self-consistent: an id may appear at most once across
// inserts and deletes together, insert ids must not be live, delete ids
// must be live, dimensionalities must agree. On any violation NOTHING is
// applied and the returned error is a *BatchError listing every offending
// item position.
//
// The returned Stats has one entry per item (inserts first, then deletes)
// and is valid even on failure: locating a delete's rectangle costs one
// store probe, and those accesses really happened during validation, so
// callers aggregating per-request statistics stay consistent with the
// store's raw access counter.
func (ix *Index) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) ([]Stats, error) {
	started := time.Now()
	stats := make([]Stats, len(inserts)+len(deletes))
	if len(inserts)+len(deletes) == 0 {
		return stats, nil
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	prep, errs := ix.prepareBatch(inserts, deletes,
		identityPositions(len(inserts)), identityPositions(len(deletes)), stats, len(inserts))
	if len(errs) > 0 {
		be := &BatchError{Items: errs}
		be.sortItems()
		return stats, be
	}
	if err := prep.commit(); err != nil {
		return stats, err
	}
	spreadDuration(stats, time.Since(started))
	return stats, nil
}

// Insert adds obj to s as a group of one: the only way a mutation moves is
// Searcher.ApplyBatch, and a single insert is that with one item. The object
// is visible to queries that start after Insert returns; queries already in
// flight complete against their snapshot. A refused item comes back as its
// own error, not a *BatchError: ErrInvalidArgument for a nil or
// dimensionally mismatched object, store.ErrDuplicate when the id is live,
// store.ErrReadOnly when the index or its store has no write side. The
// Stats is the item's (an insert probes nothing; Duration is the commit's).
func Insert(s Searcher, obj *fuzzy.Object) (Stats, error) {
	return applyOne(s.ApplyBatch([]*fuzzy.Object{obj}, nil))
}

// Delete retires id from s as a group of one (see Insert): the index entry
// goes and the store tombstones the object, whose payload stays readable
// for in-flight snapshot queries. It fails with store.ErrNotFound for an id
// that is not live. Locating the object's rectangle costs one store probe,
// reported in the Stats whether or not the delete succeeds, so callers
// aggregating per-request statistics stay consistent with the store's raw
// access counter.
func Delete(s Searcher, id uint64) (Stats, error) {
	return applyOne(s.ApplyBatch(nil, []uint64{id}))
}

// applyOne reduces a one-item ApplyBatch to the item's own outcome. A
// refusal that did no work at all (a degraded index) carries no stats.
func applyOne(stats []Stats, err error) (Stats, error) {
	var st Stats
	if len(stats) == 1 {
		st = stats[0]
	}
	var be *BatchError
	if errors.As(err, &be) && len(be.Items) == 1 {
		err = fmt.Errorf("query: %s: %w", be.Items[0].Op, be.Items[0].Err)
	}
	return st, err
}

// identityPositions maps a local batch slice onto itself (the unsharded
// case; a sharded coordinator passes the global positions instead).
func identityPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// spreadDuration spreads one wall-clock measurement evenly across the
// per-item stats, so summing them reproduces the batch's cost without
// inflating any single item.
func spreadDuration(stats []Stats, d time.Duration) {
	if len(stats) == 0 {
		return
	}
	per := d / time.Duration(len(stats))
	for i := range stats {
		stats[i].Duration = per
	}
}

// batchPrep is a validated, uncommitted batch: the successor tree is fully
// built (deletes applied, inserts applied) but unpublished, and the store
// is untouched. Committing is the only remaining step that mutates shared
// state. The owning Index's writeMu must be held from prepare through
// commit (or through abandonment — dropping a prep is free).
type batchPrep struct {
	ix      *Index
	store   store.Mutator
	tree    *rtree.Tree
	dims    int
	inserts []*fuzzy.Object
	deletes []uint64
	insPos  []int // local insert index → caller position (for error mapping)
	delPos  []int
}

// prepareBatch validates the whole batch against the current snapshot and
// builds the successor tree; writeMu must be held. insPos/delPos map the
// local slices onto the caller's per-operation positions (used in item
// errors); the per-item stats slice is combined — item i of inserts
// charges stats[insPos[i]], delete j charges stats[delStatsBase +
// delPos[j]] — so a sharded coordinator passes global positions and a
// plain batch passes identities. A non-empty error list means the batch
// must not be committed; the snapshot is untouched either way.
func (ix *Index) prepareBatch(inserts []*fuzzy.Object, deletes []uint64, insPos, delPos []int, stats []Stats, delStatsBase int) (*batchPrep, []BatchItemError) {
	s := ix.read()
	var errs []BatchItemError
	insErr := func(i int, err error) { errs = append(errs, BatchItemError{Op: OpInsert, Pos: insPos[i], Err: err}) }
	delErr := func(j int, err error) { errs = append(errs, BatchItemError{Op: OpDelete, Pos: delPos[j], Err: err}) }

	// A paged tree's shape is bound to its page file, whatever the store
	// behind it could take; checked here, where the plain and the sharded
	// coordinator both pass.
	var readOnly error
	mutator, isMutable := store.As[store.Mutator](ix.store)
	if lru, ok := mutator.(*store.LRU); ok {
		// An object cache forwards writes, to a store that may have no
		// write side.
		_, isMutable = store.As[store.Mutator](lru.Unwrap())
	}
	switch {
	case ix.pageCache != nil:
		readOnly = fmt.Errorf("%w: paged index is read-only", store.ErrReadOnly)
	case !isMutable:
		readOnly = fmt.Errorf("%w: store %T has no write side", store.ErrReadOnly, ix.store)
	}
	if readOnly != nil {
		for i := range inserts {
			insErr(i, readOnly)
		}
		for j := range deletes {
			delErr(j, readOnly)
		}
		return nil, errs
	}

	liveness, hasLiveness := store.As[store.LivenessChecker](ix.store)
	live := func(id uint64) (bool, bool) {
		if !hasLiveness {
			return false, false
		}
		return liveness.Live(id)
	}

	dims := s.dims
	seen := make(map[uint64]int, len(inserts)+len(deletes))
	for i, o := range inserts {
		switch {
		case o == nil:
			insErr(i, badArgf("nil object"))
			continue
		case dims != 0 && o.Dims() != dims:
			insErr(i, badArgf("object dims %d, index dims %d", o.Dims(), dims))
			continue
		}
		if dims == 0 {
			dims = o.Dims()
		}
		if _, dup := seen[o.ID()]; dup {
			insErr(i, fmt.Errorf("%w: %d (repeated in batch)", store.ErrDuplicate, o.ID()))
			continue
		}
		seen[o.ID()] = i
		if isLive, known := live(o.ID()); known && isLive {
			insErr(i, fmt.Errorf("%w: %d", store.ErrDuplicate, o.ID()))
		}
	}

	tree := s.tree.Clone()
	for j, id := range deletes {
		if _, dup := seen[id]; dup {
			delErr(j, badArgf("id %d already appears in the batch", id))
			continue
		}
		seen[id] = j
		if isLive, known := live(id); known && !isLive {
			delErr(j, fmt.Errorf("%w: id %d", store.ErrNotFound, id))
			continue
		}
		// Locate the object's rectangle (one store probe, charged to this
		// item) and carve it out of the clone; a miss in the tree means the
		// id is not indexed — tombstoned payloads still Get, so the tree is
		// the liveness authority here.
		obj, err := ix.getObject(id, &stats[delStatsBase+delPos[j]])
		if err != nil {
			delErr(j, err)
			continue
		}
		if !tree.Delete(obj.SupportMBR(), func(d any) bool { return d.(uint64) == id }) {
			delErr(j, fmt.Errorf("%w: id %d not in index", store.ErrNotFound, id))
		}
	}
	if len(errs) > 0 {
		return nil, errs
	}

	// Summaries are per-object pure CPU — the expensive part of ingest —
	// so compute them across GOMAXPROCS workers before the tree work.
	items := make([]rtree.BulkItem, len(inserts))
	parallelFor(len(inserts), func(i int) {
		items[i] = leafEntry(inserts[i])
	})
	bulk := (*rtree.Tree)(nil)
	if len(deletes) == 0 {
		bulk = ix.bulkRebuild(tree, items)
	}
	if bulk != nil {
		tree = bulk
	} else {
		for _, it := range items {
			tree.Insert(it.Rect, it.Data, it.Summary...)
		}
	}
	return &batchPrep{
		ix:      ix,
		store:   mutator,
		tree:    tree,
		dims:    dims,
		inserts: inserts,
		deletes: deletes,
		insPos:  insPos,
		delPos:  delPos,
	}, nil
}

// bulkRebuild is the batch ingest fast path: when a pure-insert batch is
// large relative to the tree it lands in (the bulk-ingest regime — the
// paper's §5 setting of building an index over a whole dataset before
// measuring accesses), b incremental inserts with their Guttman splits
// cost far more than rebuilding the whole tree with the STR bulk loader.
// Rebuild when the existing population is at most bulkRebuildFactor times
// the batch; past that, incremental insertion's O(b·log n) wins. Returns
// nil when the incremental path should be used — Incremental-option trees
// (the ablation that pins incremental insertion) always take it, and the
// caller routes deleting batches to it before asking. The rebuilt tree
// holds exactly the same leaf entries, so
// answers are unchanged; only the node layout differs (STR-packed instead
// of split-grown), which the cross-path equivalence tests pin down.
func (ix *Index) bulkRebuild(tree *rtree.Tree, items []rtree.BulkItem) *rtree.Tree {
	const bulkRebuildFactor = 4
	if len(items) == 0 || ix.opts.Incremental || tree.Len() > bulkRebuildFactor*len(items) {
		return nil
	}
	all := make([]rtree.BulkItem, 0, tree.Len()+len(items))
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		n = n.Resolve()
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				_, sum := n.EntrySummary(i)
				all = append(all, rtree.BulkItem{Rect: n.EntryRect(i), Data: n.ID(i), Summary: sum})
			} else {
				walk(n.Child(i))
			}
		}
	}
	walk(tree.Root())
	all = append(all, items...)
	return rtree.BulkLoad(all, ix.opts.MinEntries, ix.opts.MaxEntries)
}

// commit lands the prepared batch: one store group commit (one write and
// one fsync for a log store), then one snapshot publish. writeMu must still
// be held. A store-side rejection (e.g. a duplicate the index could not see
// because the store lacks a liveness probe) comes back as a *BatchError with
// the offending position and nothing published; an I/O failure comes back
// verbatim — the snapshot is not published then either, so the index never
// diverges from what the store accepted.
func (p *batchPrep) commit() error {
	err := p.ix.noteStoreErr(p.store.ApplyBatch(p.inserts, p.deletes))
	var ie *store.ItemError
	switch {
	case err == nil:
		p.ix.snap.Store(&snapshot{tree: p.tree, dims: p.dims})
		return nil
	case errors.As(err, &ie):
		item := BatchItemError{Op: OpInsert, Pos: p.insPos[ie.Pos], Err: ie.Err}
		if ie.Delete {
			item = BatchItemError{Op: OpDelete, Pos: p.delPos[ie.Pos], Err: ie.Err}
		}
		return &BatchError{Items: []BatchItemError{item}}
	}
	return fmt.Errorf("query: batch commit: %w", err)
}

// parallelFor runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n)
// workers, returning when all calls have finished. fn must be safe to run
// concurrently for distinct i.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ApplyBatch applies a group of mutations across the shards: the batch is
// partitioned by ShardOf, every owning shard's writer lock is taken (in
// shard order), all sub-batches are validated and prepared in parallel, and
// only if every shard accepts does each commit — in parallel, one group
// commit per shard. A validation failure anywhere aborts the whole batch
// with nothing applied on any shard, mirroring the single-tree
// all-or-nothing contract. Once every touched shard has committed, one
// forest swap (publish) makes the whole batch visible to sharded reads at
// once.
//
// Stats and error positions refer to the caller's slices, exactly like
// Index.ApplyBatch.
func (sx *ShardedIndex) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) ([]Stats, error) {
	started := time.Now()
	stats := make([]Stats, len(inserts)+len(deletes))
	if len(inserts)+len(deletes) == 0 {
		return stats, nil
	}
	if err := sx.refuseIfDegraded(); err != nil {
		return nil, fmt.Errorf("query: batch: %w", err)
	}

	// Cross-shard structural validation: nil objects and a batch-wide
	// dimensionality (per-shard checks could not see a mismatch that lands
	// on two different shards of an empty index). Offending items are kept
	// out of the partition but validation still proceeds shard by shard, so
	// one rejection reports every invalid item, not just the first class
	// found.
	var errs []BatchItemError
	dims := sx.Dims()
	skip := make(map[int]bool)
	for i, o := range inserts {
		if o == nil {
			errs = append(errs, BatchItemError{Op: OpInsert, Pos: i, Err: badArgf("nil object")})
			skip[i] = true
			continue
		}
		if dims == 0 {
			dims = o.Dims()
		} else if o.Dims() != dims {
			errs = append(errs, BatchItemError{Op: OpInsert, Pos: i, Err: badArgf("object dims %d, batch/index dims %d", o.Dims(), dims)})
			skip[i] = true
		}
	}

	n := len(sx.shards)
	insBy := make([][]*fuzzy.Object, n)
	insPos := make([][]int, n)
	for i, o := range inserts {
		if skip[i] {
			continue
		}
		sh := ShardOf(o.ID(), n)
		insBy[sh] = append(insBy[sh], o)
		insPos[sh] = append(insPos[sh], i)
	}
	delBy := make([][]uint64, n)
	delPos := make([][]int, n)
	for j, id := range deletes {
		sh := ShardOf(id, n)
		delBy[sh] = append(delBy[sh], id)
		delPos[sh] = append(delPos[sh], j)
	}

	// Two-phase group commit: hold every participating shard's writer lock
	// across prepare AND commit so no shard publishes before all shards
	// have validated.
	touched := make([]int, 0, n)
	for sh := 0; sh < n; sh++ {
		if len(insBy[sh])+len(delBy[sh]) > 0 {
			touched = append(touched, sh)
		}
	}
	for _, sh := range touched {
		sx.shards[sh].writeMu.Lock()
	}
	defer func() {
		for _, sh := range touched {
			sx.shards[sh].writeMu.Unlock()
		}
	}()

	preps := make([]*batchPrep, len(touched))
	itemErrs := make([][]BatchItemError, len(touched))
	var wg sync.WaitGroup
	for ti, sh := range touched {
		wg.Add(1)
		go func(ti, sh int) {
			defer wg.Done()
			preps[ti], itemErrs[ti] = sx.shards[sh].prepareBatch(
				insBy[sh], delBy[sh], insPos[sh], delPos[sh], stats, len(inserts))
		}(ti, sh)
	}
	wg.Wait()
	for _, es := range itemErrs {
		errs = append(errs, es...)
	}
	if len(errs) > 0 {
		be := &BatchError{Items: errs}
		be.sortItems()
		return stats, be
	}

	commitErrs := make([]error, len(touched))
	for ti := range touched {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			commitErrs[ti] = preps[ti].commit()
		}(ti)
	}
	wg.Wait()
	sx.publish(touched)
	for _, err := range commitErrs {
		if err != nil {
			// A commit-phase failure is of the I/O class (validation passed
			// everywhere); the shards whose stores committed have published
			// their sub-batches, as the store holds them. It is reported
			// verbatim so the caller does not retry item-by-item on top of a
			// half-landed group.
			return stats, err
		}
	}
	spreadDuration(stats, time.Since(started))
	return stats, nil
}
