package query

import "fuzzyknn/internal/fuzzy"

// ExpectedDistKNN ranks objects by the classical integrated fuzzy-set
// distance E(A, Q) = ∫₀¹ d_α dα instead of a single-threshold α-distance —
// the alternative the paper discusses and rejects in §2.1 ("a fuzzy object
// with low probability region may never be regarded as the nearest neighbor
// even it is very close to the query object"). It is provided as a baseline
// so applications can compare the two semantics; there is no index
// acceleration (the expected distance needs the full profile of every
// object, so the scan probes everything).
func (ix *Index) ExpectedDistKNN(q *fuzzy.Object, k int) ([]Result, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return scanTopK(sc, sc.pin(ix), q, k, 1, expectedDistScore)
}

// expectedDistScore is ExpectedDistKNN's score for scanTopK (α unused).
// The scratch's profile cache memoizes the staircase — and its integral —
// per (object, query), so repeats of the same query never recompute an
// integral they already paid for.
func expectedDistScore(sc *scratch, q, o *fuzzy.Object, _ float64) float64 {
	sc.stats.ProfilesBuilt++
	sc.stats.ProfilePoints += o.Len() + q.Len()
	return sc.profiles.ExpectedDist(o, q)
}
