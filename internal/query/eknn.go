package query

import (
	"time"

	"fuzzyknn/internal/fuzzy"
)

// ExpectedDistKNN ranks objects by the classical integrated fuzzy-set
// distance E(A, Q) = ∫₀¹ d_α dα instead of a single-threshold α-distance —
// the alternative the paper discusses and rejects in §2.1 ("a fuzzy object
// with low probability region may never be regarded as the nearest neighbor
// even it is very close to the query object"). It is provided as a baseline
// so applications can compare the two semantics; there is no index
// acceleration (the expected distance needs the full profile of every
// object, so the scan probes everything).
func (ix *Index) ExpectedDistKNN(q *fuzzy.Object, k int) ([]Result, Stats, error) {
	started := time.Now()
	var st Stats
	s := ix.read()
	if err := ix.validateQuery(s, q, k, 1); err != nil {
		return nil, st, err
	}
	out, err := ix.expectedDistTopK(s, q, k, &st)
	if err != nil {
		return nil, st, err
	}
	st.Duration = time.Since(started)
	return out, st, nil
}

// expectedDistTopK scans one snapshot's population and returns its local
// top k by (expected distance, id). Because the per-tree ranking is exact,
// a sharded coordinator can merge the shard-local top-k lists into the
// global answer without further probes.
func (ix *Index) expectedDistTopK(s *snapshot, q *fuzzy.Object, k int, st *Stats) ([]Result, error) {
	sc := getScratch()
	defer putScratch(sc)
	cands := sc.idDists[:0]
	for _, id := range s.leafIDs(st) {
		obj, err := ix.getObject(id, st)
		if err != nil {
			return nil, err
		}
		st.ProfilesBuilt++
		// The scratch's profile cache memoizes the staircase — and its
		// integral — per (object, query), so repeats of the same query
		// never recompute an integral they already paid for.
		e := sc.profiles.ExpectedDist(obj, q)
		cands = append(cands, idDist{id: id, d: e})
	}
	sortIDDists(cands)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.id, Dist: c.d, Exact: true, Lower: c.d, Upper: c.d}
	}
	sc.idDists = cands[:0]
	if err := ix.pagedErr(); err != nil {
		return nil, err
	}
	return out, nil
}
