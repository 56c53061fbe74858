package query

import (
	"math"
	"slices"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/interval"
)

// RangedResult is one RKNN answer: the object belongs to the kNN set at
// every α in Qualifying (Definition 5's ⟨A, I_A⟩ with I_A a union of
// intervals in general).
type RangedResult struct {
	ID         uint64
	Qualifying interval.Set
}

// RKNN answers the range kNN query over [alphaStart, alphaEnd] with the
// selected algorithm. Results are ordered by ascending object id.
//
// All variants return exactly the same qualifying ranges; they differ in
// cost. Distance ties are broken by smaller object id, making the kNN set —
// and therefore the output — deterministic.
//
// The paper advances between probability thresholds with "α ← α* + ε". This
// implementation steps onto the next representable float64 instead: since
// every α-distance is a step function changing only at membership levels,
// evaluating just above α* is exact and no ε tuning is needed.
func (ix *Index) RKNN(q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	return ix.RKNNAppend(nil, q, k, alphaStart, alphaEnd, algo)
}

// RKNNAppend is RKNN appending results to dst and returning the extended
// slice. Reusing a previous answer's buffer (dst[:0]) lets the steady-state
// loop run without allocations: each reused element's Qualifying set keeps
// its backing storage and is overwritten in place, so dst's previous
// contents — including those interval sets — must no longer be referenced.
func (ix *Index) RKNNAppend(dst []RangedResult, q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	sc := getScratch()
	defer putScratch(sc)
	return rknnInto(sc, dst, sc.pin(ix), q, k, alphaStart, alphaEnd, algo)
}

// rknnInto is the one RKNN: the four §4 algorithms over the forest of the
// views' trees, the results appended to dst. Every driver is built from
// parts that already search a forest — the AKNN sub-searches are aknnInto,
// RSS's range phase is rangeHits, Naive reads every tree's population — so
// each runs as the paper states it whatever the number of trees, and its
// object accesses, sub-searches, candidates and refinement pieces are those
// of one tree over the union.
func rknnInto(sc *scratch, dst []RangedResult, views []shardView, q *fuzzy.Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([]RangedResult, Stats, error) {
	started := time.Now()
	if err := validateArgs(views, q, k, alphaStart, alphaEnd); err != nil {
		return dst, Stats{}, err
	}
	if alphaStart > alphaEnd {
		return dst, Stats{}, badArgf("query: alphaStart %v > alphaEnd %v", alphaStart, alphaEnd)
	}
	sc.stats = Stats{}
	ctx := newRKNNCtx(sc, views, q, k, alphaStart, alphaEnd)
	var err error
	switch algo {
	case Naive:
		err = ctx.naive()
	case BasicRKNN:
		err = ctx.basic()
	case RSS:
		err = ctx.rss(false)
	case RSSICR:
		err = ctx.rss(true)
	default:
		return dst, Stats{}, badArgf("query: unknown RKNN algorithm %d", int(algo))
	}
	if err == nil {
		err = pagedErr(views)
	}
	if err != nil {
		return dst, sc.stats, err
	}
	sc.stats.Duration = time.Since(started)
	return ctx.appendResults(dst), sc.stats, nil
}

// rknnCtx carries one RKNN execution: the forest every sub-search runs
// against — one pinned snapshot per tree, so all phases of the plan see one
// population — caches of probed objects and distance profiles, and the
// per-object qualifying-range accumulator, all backed by the pooled
// scratch, so a steady-state RKNN on one tree allocates nothing.
type rknnCtx struct {
	views    []shardView
	q        *fuzzy.Object
	k        int
	as, ae   float64
	st       *Stats
	sc       *scratch
	probed   map[uint64]*fuzzy.Object
	profiles map[uint64]*fuzzy.Profile
	acc      map[uint64]*interval.Set
}

// newRKNNCtx assembles a context over sc's cleared refinement state. The
// context itself lives in the scratch, so building one allocates nothing.
func newRKNNCtx(sc *scratch, views []shardView, q *fuzzy.Object, k int, as, ae float64) *rknnCtx {
	clear(sc.rknnProbed)
	clear(sc.rknnProfiles)
	clear(sc.rknnAcc)
	sc.resetSets()
	sc.rctx = rknnCtx{
		views: views, q: q, k: k, as: as, ae: ae, st: &sc.stats, sc: sc,
		probed:   sc.rknnProbed,
		profiles: sc.rknnProfiles,
		acc:      sc.rknnAcc,
	}
	return &sc.rctx
}

func (c *rknnCtx) object(id uint64) (*fuzzy.Object, error) {
	if o, ok := c.probed[id]; ok {
		return o, nil
	}
	o, err := probe(c.views, id, c.st)
	if err != nil {
		return nil, err
	}
	c.probed[id] = o
	return o, nil
}

// profile returns the (object, query) distance profile from the window's
// floor αs, building it at most once per payload: the per-query map serves
// repeat lookups by id, and the scratch's cross-query cache (keyed by object
// pointer) serves repeats of the same query so the staircase is never
// recomputed once paid for. Refinement reads a staircase only at α ≥ αs —
// topK and kPlus1Dist at the current representative, NextCritical and
// safeRangeEnd from it, the AKNN sub-searches at it or at αe — so the
// levels below αs are never swept.
func (c *rknnCtx) profile(id uint64) (*fuzzy.Profile, error) {
	if p, ok := c.profiles[id]; ok {
		return p, nil
	}
	o, err := c.object(id)
	if err != nil {
		return nil, err
	}
	c.st.ProfilesBuilt++
	c.st.ProfilePoints += o.CutSize(c.as) + c.q.CutSize(c.as)
	p := c.sc.profiles.Profile(o, c.q, c.as)
	c.profiles[id] = p
	return p, nil
}

func (c *rknnCtx) add(id uint64, iv interval.Interval) {
	s, ok := c.acc[id]
	if !ok {
		s = c.sc.takeSet()
		c.acc[id] = s
	}
	s.Add(iv)
}

// appendResults copies the accumulated qualifying ranges into dst in
// ascending id order. Reused dst elements keep their Qualifying backing
// (CopyFrom overwrites in place), so nothing handed to the caller aliases
// scratch-owned interval storage.
func (c *rknnCtx) appendResults(dst []RangedResult) []RangedResult {
	ids := c.sc.ids[:0]
	for id := range c.acc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c.sc.ids = ids
	for _, id := range ids {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1] // revive a dead element, reusing its backing
		} else {
			dst = append(dst, RangedResult{})
		}
		el := &dst[len(dst)-1]
		el.ID = id
		el.Qualifying.CopyFrom(*c.acc[id])
	}
	return dst
}

// justAbove returns the smallest float64 strictly greater than x — the exact
// realization of the paper's α* + ε.
func justAbove(x float64) float64 { return math.Nextafter(x, 2) }

// subAKNN runs an AKNN sub-search with the LB variant (exact distances, no
// unprobed results), sharing the context's probe cache and reusing any
// staircase values refinement has already paid for. The returned slice is
// scratch-owned and valid until the next subAKNN call.
func (c *rknnCtx) subAKNN(alpha float64) ([]Result, error) {
	c.st.AKNNCalls++
	res, err := aknnInto(c.sc, c.sc.sub[:0], c.views, c.q, c.k, alpha, LB, c.probed, &c.sc.profiles)
	if err != nil {
		return nil, err
	}
	c.sc.sub = res
	return res, nil
}

// basic implements Algorithm 3: evaluate the kNN set, extend each member to
// its next critical probability (Lemma 2), hop to the smallest one, repeat.
func (c *rknnCtx) basic() error {
	alphaRep := c.as
	start, startOpen := c.as, false
	for {
		c.st.Pieces++
		results, err := c.subAKNN(alphaRep)
		if err != nil {
			return err
		}
		if len(results) == 0 {
			return nil // empty index
		}
		alphaStar := math.Inf(1)
		for _, r := range results {
			prof, err := c.profile(r.ID)
			if err != nil {
				return err
			}
			beta := prof.NextCritical(alphaRep)
			c.add(r.ID, interval.Make(start, math.Min(beta, c.ae), startOpen, false))
			if beta < alphaStar {
				alphaStar = beta
			}
		}
		if alphaStar >= c.ae {
			return nil
		}
		start, startOpen = alphaStar, true
		alphaRep = justAbove(alphaStar)
	}
}

// naive implements the strawman: one AKNN per plateau of the global
// membership-level set U_D (plus the query's own levels) inside the range.
func (c *rknnCtx) naive() error {
	// Collect the global level universe; the naive method pays for reading
	// every object (of the snapshots, so the result is churn-consistent).
	var levels []float64
	for _, v := range c.views {
		for _, id := range v.s.leafIDs(c.st) {
			o, err := c.object(id)
			if err != nil {
				return err
			}
			levels = o.AppendLevels(levels)
		}
	}
	levels = c.q.AppendLevels(levels)
	slices.Sort(levels)
	levels = dedupeInWindow(levels, c.as, c.ae)

	for _, p := range makePieces(c.as, c.ae, levels) {
		c.st.Pieces++
		results, err := c.subAKNN(p.rep)
		if err != nil {
			return err
		}
		for _, r := range results {
			c.add(r.ID, p.iv)
		}
	}
	return nil
}

// piece is one plateau of the queried range: the kNN set is constant on iv
// and can be evaluated at rep ∈ iv.
type piece struct {
	iv  interval.Interval
	rep float64
}

// makePieces splits [as, ae] at the given ascending, deduplicated levels
// (all within [as, ae]). Distances are constant between consecutive levels,
// so each returned piece carries one kNN set.
func makePieces(as, ae float64, levels []float64) []piece {
	if len(levels) == 0 {
		return []piece{{iv: interval.Closed(as, ae), rep: ae}}
	}
	var ps []piece
	ps = append(ps, piece{iv: interval.Closed(as, levels[0]), rep: levels[0]})
	for i := 1; i < len(levels); i++ {
		ps = append(ps, piece{iv: interval.OpenClosed(levels[i-1], levels[i]), rep: levels[i]})
	}
	if last := levels[len(levels)-1]; last < ae {
		ps = append(ps, piece{iv: interval.OpenClosed(last, ae), rep: ae})
	}
	return ps
}

func dedupeInWindow(sorted []float64, lo, hi float64) []float64 {
	out := sorted[:0]
	for _, v := range sorted {
		if v < lo || v > hi {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// rss implements Algorithms 4 and 5: one AKNN at αe yields the pruning
// radius (Lemma 3); one range search at αs yields the candidate set,
// reading only the objects that AKNN did not (each of those passes the
// radius, as d_αs ≤ d_αe); the candidates are refined in memory — by critical-probability hopping (RSS)
// or with Lemma 4 safe ranges (RSS-ICR).
func (c *rknnCtx) rss(improvedRefinement bool) error {
	resE, err := c.subAKNN(c.ae)
	if err != nil {
		return err
	}
	if len(resE) == 0 {
		return nil // empty index
	}
	radius := math.Inf(1)
	if len(resE) >= c.k {
		radius = resE[len(resE)-1].Dist
	}
	hits, err := rangeHits(c.sc, c.views, c.q, c.as, radius, c.probed)
	if err != nil {
		return err
	}
	c.st.Candidates = len(hits)
	cands := c.sc.cands[:0]
	for _, h := range hits {
		c.probed[h.obj.ID()] = h.obj
		cands = append(cands, h.obj.ID())
	}
	slices.Sort(cands)
	c.sc.cands = cands
	// Profiles for every candidate: pure CPU, no further object access.
	for _, id := range cands {
		if _, err := c.profile(id); err != nil {
			return err
		}
	}
	if improvedRefinement {
		return c.refineICR(cands)
	}
	return c.refineBasic(cands)
}

// refineBasic refines candidates with the basic method (Algorithm 3's loop
// over the in-memory candidate set): every critical probability of every
// current member is visited.
func (c *rknnCtx) refineBasic(cands []uint64) error {
	if len(cands) == 0 {
		return nil
	}
	alphaRep := c.as
	start, startOpen := c.as, false
	for {
		c.st.Pieces++
		members := c.topK(c.sc.members[:0], cands, alphaRep, c.k, nil)
		c.sc.members = members
		alphaStar := math.Inf(1)
		for _, id := range members {
			prof := c.profiles[id]
			beta := prof.NextCritical(alphaRep)
			c.add(id, interval.Make(start, math.Min(beta, c.ae), startOpen, false))
			if beta < alphaStar {
				alphaStar = beta
			}
		}
		if alphaStar >= c.ae {
			return nil
		}
		start, startOpen = alphaStar, true
		alphaRep = justAbove(alphaStar)
	}
}

// refineICR refines candidates with Lemma 4: each fresh member receives a
// safe range reaching as far as its distance stays below the (k+1)-th
// nearest-neighbor distance, and whole runs of critical probabilities are
// skipped by hopping to the smallest safe-range end among the members.
func (c *rknnCtx) refineICR(cands []uint64) error {
	if len(cands) == 0 {
		return nil
	}
	clear(c.sc.safeUntil)
	safeUntil := c.sc.safeUntil
	alphaRep := c.as
	start, startOpen := c.as, false
	for {
		c.st.Pieces++
		// C′: members whose safe range still covers the current plateau.
		clear(c.sc.inCPrime)
		inCPrime := c.sc.inCPrime
		members := c.sc.members[:0]
		for id, su := range safeUntil {
			if su >= alphaRep {
				inCPrime[id] = true
				members = append(members, id)
			}
		}
		fresh := c.topK(c.sc.fresh[:0], cands, alphaRep, c.k-len(members), inCPrime)
		c.sc.fresh = fresh
		members = append(members, fresh...)
		c.sc.members = members

		dk1 := c.kPlus1Dist(cands, alphaRep)
		for _, id := range fresh {
			su := safeRangeEnd(c.profiles[id], alphaRep, dk1)
			safeUntil[id] = su
			c.add(id, interval.Make(start, math.Min(su, c.ae), startOpen, false))
		}
		alphaStar := math.Inf(1)
		for _, id := range members {
			if su := safeUntil[id]; su < alphaStar {
				alphaStar = su
			}
		}
		if alphaStar >= c.ae {
			return nil
		}
		start, startOpen = alphaStar, true
		alphaRep = justAbove(alphaStar)
	}
}

// topK ranks candidates (minus excluded ones) by (d_α, id) and appends the
// best n ids to dst.
func (c *rknnCtx) topK(dst []uint64, cands []uint64, alpha float64, n int, exclude map[uint64]bool) []uint64 {
	if n <= 0 {
		return dst
	}
	pool := c.sc.idDists[:0]
	for _, id := range cands {
		if exclude[id] {
			continue
		}
		pool = append(pool, idDist{id: id, d: c.profiles[id].Dist(alpha)})
	}
	sortIDDists(pool)
	if len(pool) > n {
		pool = pool[:n]
	}
	for _, p := range pool {
		dst = append(dst, p.id)
	}
	c.sc.idDists = pool[:0]
	return dst
}

// kPlus1Dist returns the (k+1)-th smallest candidate distance at alpha, or
// +Inf when at most k candidates exist (then every member is safe forever).
func (c *rknnCtx) kPlus1Dist(cands []uint64, alpha float64) float64 {
	if len(cands) <= c.k {
		return math.Inf(1)
	}
	ds := c.sc.f64s[:0]
	for _, id := range cands {
		ds = append(ds, c.profiles[id].Dist(alpha))
	}
	slices.Sort(ds)
	c.sc.f64s = ds
	return ds[c.k]
}

// safeRangeEnd returns the largest membership level through which the
// profile's distance stays strictly below dk1 (Lemma 4). It is never less
// than the right end of alpha's own plateau: on that plateau the member's
// distance is constant while every other object's can only grow, so
// membership in the kNN set is retained regardless of dk1 (ties included).
func safeRangeEnd(prof *fuzzy.Profile, alpha, dk1 float64) float64 {
	j, _ := slices.BinarySearch(prof.Levels, alpha)
	end := prof.Levels[j]
	for j++; j < len(prof.Levels) && prof.Dists[j] < dk1; j++ {
		end = prof.Levels[j]
	}
	return end
}
