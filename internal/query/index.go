// Package query implements the paper's query processing algorithms:
//
// AKNN (§3) — ad-hoc k-nearest-neighbor search at a single probability
// threshold α, in four variants of increasing sophistication:
//
//	Basic    best-first R-tree search, support-MBR MinDist lower bounds
//	LB       improved lower bound via conservative boundary-line MBRs (§3.2)
//	LBLP     LB plus lazy probing with a bounded buffer (§3.3)
//	LBLPUB   LBLP plus the representative-point upper bound (§3.4)
//
// RKNN (§4) — range kNN over a probability interval [αs, αe], returning
// qualifying ranges:
//
//	Naive      one AKNN per membership level in the range (reference)
//	BasicRKNN  critical-probability hopping (Algorithm 3)
//	RSS        reduced search space via one AKNN + one range search (Alg. 4)
//	RSSICR     RSS plus improved candidate refinement / safe ranges (Alg. 5)
//
// The Index pairs an in-memory R-tree of per-object summaries with an object
// store; algorithms traverse the tree and charge one "object access" per
// store probe, the paper's headline cost metric.
//
// Each read family is written once, as a function over a forest of pinned
// tree snapshots ([]shardView): aknnInto, rknnInto, rangeSearchInto,
// reverseKNN, scanTopK (the linear scan and ExpectedDistKNN) and refine. An
// Index is the one-tree forest and a ShardedIndex the forest of its shards'
// trees; their query methods take a scratch, pin the trees and call the
// function, so a new family is one function plus a method on each.
package query

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/store"
)

// AKNNAlgorithm selects an AKNN search variant.
type AKNNAlgorithm int

// AKNN variants, in the paper's order.
const (
	Basic AKNNAlgorithm = iota
	LB
	LBLP
	LBLPUB
)

// String returns the paper's name for the algorithm.
func (a AKNNAlgorithm) String() string {
	switch a {
	case Basic:
		return "Basic AKNN"
	case LB:
		return "LB"
	case LBLP:
		return "LB-LP"
	case LBLPUB:
		return "LB-LP-UB"
	}
	return fmt.Sprintf("AKNNAlgorithm(%d)", int(a))
}

// RKNNAlgorithm selects an RKNN search variant.
type RKNNAlgorithm int

// RKNN variants, in the paper's order.
const (
	Naive RKNNAlgorithm = iota
	BasicRKNN
	RSS
	RSSICR
)

// String returns the paper's name for the algorithm.
func (a RKNNAlgorithm) String() string {
	switch a {
	case Naive:
		return "Naive RKNN"
	case BasicRKNN:
		return "Basic RKNN"
	case RSS:
		return "RSS"
	case RSSICR:
		return "RSS-ICR"
	}
	return fmt.Sprintf("RKNNAlgorithm(%d)", int(a))
}

// Stats instruments one query execution.
//
// NodeAccesses counts logical tree-node visits and is identical for
// in-memory and paged execution of the same query over the same tree.
// PageReads/PageCacheHits count the physical page faults behind those
// visits on a paged index (both zero in-memory): a visit of a non-resident
// node is one PageRead, a visit served by the block cache is one
// PageCacheHit. Cache activity never inflates ObjectAccesses — that remains
// purely the paper's store-probe metric.
//
// The Lazy counters show the lazy-probe variants' work on a single tree:
// leaf entries deferred into the §3.3 buffer G, results admitted unprobed
// on their upper bound (§3.3, sharpened by §3.4's sample for LB-LP-UB), and
// G's high-water mark between steps (at most k). Add sums the first two and
// keeps the larger peak.
type Stats struct {
	ObjectAccesses int           // store probes — the paper's primary metric
	NodeAccesses   int           // R-tree nodes visited
	DistanceEvals  int           // exact α-distance computations
	ProfilesBuilt  int           // staircases requested by RKNN refinement and expected-distance scoring
	ProfilePoints  int           // points those staircases cover: both objects' cuts at each one's floor
	AKNNCalls      int           // AKNN sub-searches issued (RKNN)
	Candidates     int           // RKNN candidate set size after pruning
	Pieces         int           // RKNN refinement iterations (plateaus)
	PageReads      int           // index pages fetched from disk (block-cache misses)
	PageCacheHits  int           // index page visits served by the block cache
	LazyDeferred   int           // leaf entries that entered the §3.3 buffer G
	LazyAdmitted   int           // results emitted unprobed on their upper bound
	LazyBufferPeak int           // G's high-water mark
	Duration       time.Duration // wall time of the public call
}

// addParallel accumulates a concurrently executed sub-query's stats into
// st, excluding Duration: work that overlapped in time must not inflate
// the coordinator's wall clock, which the caller stamps once at the end.
func addParallel(st *Stats, o Stats) {
	o.Duration = 0
	st.Add(o)
}

// Add accumulates o into s (Duration included).
func (s *Stats) Add(o Stats) {
	s.ObjectAccesses += o.ObjectAccesses
	s.NodeAccesses += o.NodeAccesses
	s.DistanceEvals += o.DistanceEvals
	s.ProfilesBuilt += o.ProfilesBuilt
	s.ProfilePoints += o.ProfilePoints
	s.AKNNCalls += o.AKNNCalls
	s.Candidates += o.Candidates
	s.Pieces += o.Pieces
	s.PageReads += o.PageReads
	s.PageCacheHits += o.PageCacheHits
	s.LazyDeferred += o.LazyDeferred
	s.LazyAdmitted += o.LazyAdmitted
	s.LazyBufferPeak = max(s.LazyBufferPeak, o.LazyBufferPeak)
	s.Duration += o.Duration
}

// Options configures index construction. Both knobs are kept for a caller
// that needs a second value: the node capacities because the paged and
// sharded suites need multi-level trees over small fixtures and the page
// manifest records them, Incremental because the equivalence oracles
// compare every answer on both tree shapes.
type Options struct {
	// MinEntries/MaxEntries are R-tree node capacities (0 = defaults).
	MinEntries, MaxEntries int
	// Incremental builds the tree by repeated insertion instead of STR
	// bulk loading (ablation option; bulk loading is the default).
	Incremental bool
}

// leafEntry is o's leaf entry: its id beside what §3 keeps in memory — the
// support MBR, kernel MBR, L_opt lines, representative point and witness
// groups — which the tree copies into a leaf row (see fuzzy.Summarize).
func leafEntry(o *fuzzy.Object) rtree.BulkItem {
	support, sum := fuzzy.Summarize(o)
	return rtree.BulkItem{Rect: support, Data: o.ID(), Summary: sum}
}

// Index is a search index over a fuzzy object store. It is mutable:
// ApplyBatch adds and retires objects while queries keep running.
//
// # Snapshot isolation
//
// Every query entry point atomically loads the current snapshot — an
// immutable R-tree root plus the index dimensionality — and runs entirely
// against it. Writers serialize among themselves, build a copy-on-write
// successor tree (sharing all untouched nodes) and publish it atomically,
// so an in-flight AKNN/RKNN/range query always sees the exact object
// population that was live when it started, never a half-applied mutation.
// Stores retain deleted payloads (see store.Mutator), which keeps the
// snapshot's probes resolvable even after the object was retired.
type Index struct {
	store store.Reader
	opts  Options

	// pageCache is the block cache serving the tree's pages when the index
	// is paged (OpenPagedIndex); nil for fully in-memory indexes. Paged
	// indexes are read-only: their tree shape is bound to the page file.
	pageCache *pager.Cache

	// writeMu serializes ApplyBatch; readers never take it.
	writeMu sync.Mutex
	snap    atomic.Pointer[snapshot]

	// degraded is set (sticky, first fault wins) when the store
	// fail-stops; storageFaults counts every store op refused for that
	// reason. See degraded.go.
	degraded      atomic.Pointer[DegradedState]
	storageFaults atomic.Int64
}

// snapshot is one immutable, consistent view of the index. The tree is
// never mutated after publication (writers clone-and-replace instead).
type snapshot struct {
	tree *rtree.Tree
	dims int
}

// read returns the current snapshot; all reads of one query must go through
// a single read() result to stay consistent.
func (ix *Index) read() *snapshot { return ix.snap.Load() }

// leafIDs returns the ids of every object in the snapshot, ascending. It is
// the snapshot-consistent replacement for store.Reader.IDs. Page faults on
// paged trees are charged to st.
func (s *snapshot) leafIDs(st *Stats) []uint64 {
	out := make([]uint64, 0, s.tree.Len())
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		n = resolveNode(n, st)
		for i := 0; i < n.Len(); i++ {
			if n.Leaf() {
				out = append(out, n.ID(i))
			} else {
				walk(n.Child(i))
			}
		}
	}
	walk(s.tree.Root())
	slices.Sort(out)
	return out
}

// newIndex assembles an Index around a freshly built tree.
func newIndex(tree *rtree.Tree, st store.Reader, opts Options) *Index {
	ix := &Index{store: st, opts: opts}
	ix.snap.Store(&snapshot{tree: tree, dims: st.Dims()})
	return ix
}

// Build scans the store once, computes each object's summary and assembles
// the R-tree (STR bulk load by default).
func Build(st store.Reader, opts Options) (*Index, error) {
	return BuildFiltered(st, opts, nil)
}

// BuildFiltered is Build restricted to the store's ids for which keep
// returns true (nil keeps everything). It is how one shard of a
// hash-partitioned index is built over a store shared by all shards: each
// shard keeps exactly the ids ShardOf assigns to it.
//
// Object decoding and summary computation (the boundary approximation and
// representative point) dominate build time and are embarrassingly
// parallel, so they run across GOMAXPROCS workers; the item order — and
// therefore the resulting tree, whether STR bulk-loaded or incrementally
// inserted — is identical to a serial build.
func BuildFiltered(st store.Reader, opts Options, keep func(uint64) bool) (*Index, error) {
	var ids []uint64
	for _, id := range st.IDs() {
		if keep == nil || keep(id) {
			ids = append(ids, id)
		}
	}
	items := make([]rtree.BulkItem, len(ids))
	errs := make([]error, len(ids))
	parallelFor(len(ids), func(i int) {
		obj, err := st.Get(ids[i])
		if err != nil {
			errs[i] = err
			return
		}
		items[i] = leafEntry(obj)
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("query: building index: %w", err)
		}
	}
	var tree *rtree.Tree
	if opts.Incremental {
		tree = rtree.New(opts.MinEntries, opts.MaxEntries)
		for _, it := range items {
			tree.Insert(it.Rect, it.Data, it.Summary...)
		}
	} else {
		tree = rtree.BulkLoad(items, opts.MinEntries, opts.MaxEntries)
	}
	return newIndex(tree, st, opts), nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.read().tree.Len() }

// Dims returns the dimensionality of indexed objects (0 until the first
// object is known).
func (ix *Index) Dims() int { return ix.read().dims }

// Store exposes the underlying reader (e.g. to fetch result objects).
func (ix *Index) Store() store.Reader { return ix.store }

// Bounds returns the minimum bounding rectangle of the current snapshot's
// objects (the zero Rect when empty).
func (ix *Index) Bounds() geom.Rect { return ix.read().tree.Bounds() }

// CheckInvariants verifies the current snapshot's R-tree structure (entry
// counts, MBR containment, uniform leaf depth); see rtree.CheckInvariants.
// On a paged index the walk faults in every page, so it doubles as a full
// integrity scan of the page file.
func (ix *Index) CheckInvariants() error {
	err := ix.read().tree.CheckInvariants()
	if perr := ix.pagedErr(); perr != nil {
		// A page that failed its CRC degrades to an empty frame, so the
		// walk's structural complaint (stale MBRs, missing entries) is only
		// a symptom — surface the root cause instead.
		return perr
	}
	return err
}

// Stats reports the index's physical layout: a plain Index is one shard.
func (ix *Index) Stats() IndexStats {
	s := ix.read()
	sh := ShardStats{
		Objects:        s.tree.Len(),
		Dims:           s.dims,
		TreeHeight:     s.tree.Height(),
		TreeMaxEntries: s.tree.MaxEntries(),
	}
	if cp, ok := store.As[store.Checkpointer](ix.store); ok {
		if info, can := cp.CheckpointInfo(); can {
			sh.Checkpoint = &info
		}
	}
	if cs, ok := ix.CacheStats(); ok {
		sh.PageCache = &cs
	}
	return IndexStats{Objects: sh.Objects, Dims: sh.Dims, Shards: []ShardStats{sh}}
}

// Checkpoint implements Searcher: it forwards to the store's checkpoint
// side (store.ErrUnsupported when there is none). The index write lock is
// NOT held — the store's own
// three-phase protocol keeps the snapshot consistent while the writer
// stays live, which is the whole point of checkpointing online.
func (ix *Index) Checkpoint() ([]store.CheckpointInfo, error) {
	cp, ok := store.As[store.Checkpointer](ix.store)
	if !ok {
		return nil, fmt.Errorf("query: checkpoint: %w: store %T cannot checkpoint", store.ErrUnsupported, ix.store)
	}
	info, err := cp.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("query: checkpoint: %w", ix.noteStoreErr(err))
	}
	return []store.CheckpointInfo{info}, nil
}

// treeForTest exposes the live snapshot's tree to in-package tests. The
// tree is shared, not a copy: callers must treat it as read-only — mutating
// it would corrupt the published snapshot under concurrent readers. (The
// old exported Tree() accessor was removed for exactly that reason.)
func (ix *Index) treeForTest() *rtree.Tree { return ix.read().tree }

// ErrInvalidArgument tags argument-validation failures of the public query
// entry points, letting callers (e.g. an HTTP layer) separate client
// mistakes from execution failures with errors.Is.
var ErrInvalidArgument = errors.New("query: invalid argument")

// invalidArgError carries a specific message while matching
// ErrInvalidArgument under errors.Is.
type invalidArgError struct{ msg string }

func (e *invalidArgError) Error() string { return e.msg }

func (e *invalidArgError) Is(target error) bool { return target == ErrInvalidArgument }

// badArgf builds an argument-validation error.
func badArgf(format string, args ...any) error {
	return &invalidArgError{msg: fmt.Sprintf(format, args...)}
}

// validateArgs checks the arguments shared by all query families against
// the forest the query is about to search. The dims check keys off the
// pinned snapshots' dimensionality, not their population: an index that was
// ever told its dimensionality (a typed but empty store, or a
// populated-then-drained dynamic index) rejects mismatched query objects
// consistently. Trees with known dimensionality agree by construction, so
// the first known value speaks for the forest.
func validateArgs(views []shardView, q *fuzzy.Object, k int, alphas ...float64) error {
	if q == nil {
		return badArgf("query: nil query object")
	}
	for _, v := range views {
		if v.s.dims != 0 {
			if q.Dims() != v.s.dims {
				return badArgf("query: query dims %d, index dims %d", q.Dims(), v.s.dims)
			}
			break
		}
	}
	if k < 1 {
		return badArgf("query: k must be >= 1, got %d", k)
	}
	return validateAlphas(alphas...)
}

// validateAlphas checks probability thresholds: each must lie in (0, 1].
func validateAlphas(alphas ...float64) error {
	for _, a := range alphas {
		if !(a > 0 && a <= 1) {
			return badArgf("query: alpha must be in (0, 1], got %v", a)
		}
	}
	return nil
}

// getObject probes the store, charging the access to st.
func (ix *Index) getObject(id uint64, st *Stats) (*fuzzy.Object, error) {
	st.ObjectAccesses++
	return ix.store.Get(id)
}
