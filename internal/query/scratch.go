package query

import (
	"sync"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/interval"
	"fuzzyknn/internal/kdtree"
)

// scratch is the reusable per-query working state of the search algorithms:
// the best-first heap, the lazy-probe buffer, candidate and distance work
// arrays, probe caches, the α-distance evaluator and the RKNN refinement
// maps. Every public query entry point acquires one scratch from a
// sync.Pool, runs entirely inside it and releases it on return, so a
// steady-state query (after buffers have grown to the workload's high-water
// mark) performs no heap allocations in its hot loop. The engine's worker
// pool and the sharded coordinator's fan-out inherit the reuse for free:
// sequential queries on one goroutine keep getting the same warm scratch
// back, and concurrent queries each hold their own.
//
// # Invariants
//
//   - A scratch is owned by exactly one query execution at a time; nothing
//     reachable from it may outlive the release. Results handed to callers
//     are therefore always copied (or appended into caller-owned buffers by
//     the *Append entry points) before putScratch.
//   - Maps are cleared at the start of the path that uses them, not at
//     release, so unrelated query kinds do not pay for each other's state.
//   - The dist/dist2 evaluators and the profile cache clear their memo on
//     Reset/query change; entries never carry across executions keyed by
//     object id (ids may be recycled by churn — see fuzzy.DistEval).
type scratch struct {
	// stats is the per-query counter block. Entry points accumulate into
	// it and return a copy: a stack-local Stats whose address flows into
	// the run state would escape and cost one heap allocation per query.
	stats Stats

	// views is the forest the query searches, as pin left it.
	views []shardView

	// Best-first search (AKNN over one tree or a forest of shard trees).
	pq     bestFirstQueue
	buffer []gEntry
	sub    []Result // results of sub-searches (RKNN's inner AKNN)
	probed map[uint64]*fuzzy.Object

	// Distance evaluation.
	dist     fuzzy.DistEval // pinned to (query, α) of the active search
	dist2    fuzzy.DistEval // secondary pin (reverse-kNN closer counts)
	profiles fuzzy.ProfileCache

	// The join's held §3.2 estimate (the slab bounds write none).
	est geom.Rect

	// Range search.
	rng  rangeRun
	hits []rangeHit

	// AKNN run state (kept here so the run struct itself is not allocated).
	aknn aknnRun

	// RKNN refinement.
	rctx         rknnCtx
	rknnProbed   map[uint64]*fuzzy.Object
	rknnProfiles map[uint64]*fuzzy.Profile
	rknnAcc      map[uint64]*interval.Set
	safeUntil    map[uint64]float64
	inCPrime     map[uint64]bool
	sets         []*interval.Set
	setN         int
	cands        []uint64
	members      []uint64
	fresh        []uint64
	ids          []uint64
	f64s         []float64
	idDists      []idDist

	// Reverse kNN.
	revCands   []revCandidate
	revEntries []revEntry
	repCoords  []float64 // the representatives, flat, as repTree takes them
	repTree    kdtree.Tree
}

// idDist is a (object id, distance) work pair for top-k selections.
type idDist struct {
	id uint64
	d  float64
}

var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch {
	return &scratch{
		probed:       make(map[uint64]*fuzzy.Object, 64),
		rknnProbed:   make(map[uint64]*fuzzy.Object, 64),
		rknnProfiles: make(map[uint64]*fuzzy.Profile, 64),
		rknnAcc:      make(map[uint64]*interval.Set, 64),
		safeUntil:    make(map[uint64]float64, 16),
		inCPrime:     make(map[uint64]bool, 16),
	}
}

// pin reads every tree's current snapshot once, for the duration of one
// query: a multi-phase plan (RKNN's AKNN, then its range search) sees one
// consistent population per tree. The forest is backed by the scratch, so
// pinning allocates nothing; a plain Index is the one-tree forest.
func (sc *scratch) pin(trees ...*Index) []shardView {
	sc.views = sc.views[:0]
	for _, ix := range trees {
		sc.views = append(sc.views, shardView{ix: ix, s: ix.read()})
	}
	return sc.views
}

// getScratch takes a warm scratch from the pool.
func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns sc to the pool. The caller must not retain anything
// reachable from it.
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// takeSet hands out a cleared interval set from the scratch arena, growing
// the arena only while it is colder than the workload's high-water mark.
// resetSets rewinds the arena for the next query.
func (sc *scratch) takeSet() *interval.Set {
	if sc.setN < len(sc.sets) {
		s := sc.sets[sc.setN]
		s.Clear()
		sc.setN++
		return s
	}
	s := &interval.Set{}
	sc.sets = append(sc.sets, s)
	sc.setN++
	return s
}

func (sc *scratch) resetSets() { sc.setN = 0 }
