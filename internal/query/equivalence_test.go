package query

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// This file is the query layer's model check. A model of the live objects
// and a set of layouts — single trees built by STR or by insertion,
// coordinators of 2 to 7 shards, paged trees behind a tiny block cache —
// take the same mutations, one ApplyBatch or one call per object, and every
// read family on every layout is held to a scan of the model: AKNN (lazy
// answers after Refine, also relayed from the first layout) and the linear
// scan to the (distance, id) scan, range search to d ≤ r, reverse kNN and
// expected-distance kNN to brute force, all four RKNN algorithms to Naive
// over a fresh index of the model. FuzzConformance in the root package
// holds every public deployment shape to the same answers and to the cost
// and page-cache contracts; the tests here reach what it does not draw.

// layout is one index under check.
type layout struct {
	name  string
	s     Searcher
	perOp bool // mutations land as single Insert and Delete calls, not one ApplyBatch
}

// modelCheck mutates its layouts in lockstep with a map of the live
// objects and checks them against it.
type modelCheck struct {
	t       *testing.T
	rng     *rand.Rand
	model   map[uint64]*fuzzy.Object
	next    uint64 // the next unused id
	layouts []layout
}

// newModelCheck starts a check over layouts that already hold objs.
func newModelCheck(t *testing.T, seed uint64, objs []*fuzzy.Object, layouts ...layout) *modelCheck {
	m := &modelCheck{t: t, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b9)), model: make(map[uint64]*fuzzy.Object), next: 1, layouts: layouts}
	for _, o := range objs {
		m.model[o.ID()] = o
		m.next = max(m.next, o.ID()+1)
	}
	m.checkPopulation("initial population")
	return m
}

// objects lists the model in id order.
func (m *modelCheck) objects() []*fuzzy.Object {
	objs := make([]*fuzzy.Object, 0, len(m.model))
	for _, o := range m.model {
		objs = append(objs, o)
	}
	slices.SortFunc(objs, func(a, b *fuzzy.Object) int { return cmp.Compare(a.ID(), b.ID()) })
	return objs
}

// fresh draws n objects under unused ids; memberships in eighths force ties.
func (m *modelCheck) fresh(n int) []*fuzzy.Object {
	objs := makeObjectsWithBase(m.rng, m.next-1, n, 10, 12, 8)
	m.next += uint64(n)
	return objs
}

// apply lands one mutation on every layout — as one ApplyBatch, or as its
// inserts then its deletes one call at a time — and on the model.
func (m *modelCheck) apply(inserts []*fuzzy.Object, deletes []uint64) {
	m.t.Helper()
	for _, l := range m.layouts {
		if l.perOp {
			for _, o := range inserts {
				if _, err := Insert(l.s, o); err != nil {
					m.t.Fatalf("%s: insert %d: %v", l.name, o.ID(), err)
				}
			}
			for _, id := range deletes {
				if _, err := Delete(l.s, id); err != nil {
					m.t.Fatalf("%s: delete %d: %v", l.name, id, err)
				}
			}
			continue
		}
		stats, err := l.s.ApplyBatch(inserts, deletes)
		if err != nil {
			m.t.Fatalf("%s: batch of %d inserts, %d deletes: %v", l.name, len(inserts), len(deletes), err)
		}
		if len(stats) != len(inserts)+len(deletes) {
			m.t.Fatalf("%s: batch returned %d stats for %d items", l.name, len(stats), len(inserts)+len(deletes))
		}
		for j := range deletes {
			if got := stats[len(inserts)+j].ObjectAccesses; got != 1 {
				m.t.Fatalf("%s: delete item %d charged %d object accesses, want 1 (the locate probe)", l.name, j, got)
			}
		}
	}
	for _, o := range inserts {
		m.model[o.ID()] = o
	}
	for _, id := range deletes {
		delete(m.model, id)
	}
	m.checkPopulation(fmt.Sprintf("after %d inserts, %d deletes", len(inserts), len(deletes)))
}

// checkPopulation asserts every layout holds the model's population in
// sound trees, each id in the shard that owns it.
func (m *modelCheck) checkPopulation(at string) {
	m.t.Helper()
	for _, l := range m.layouts {
		if err := l.s.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
			m.t.Fatalf("%s: %s: %v", at, l.name, err)
		}
		sum := 0
		for _, sh := range l.s.Stats().Shards {
			sum += sh.Objects
		}
		if l.s.Len() != len(m.model) || sum != len(m.model) {
			m.t.Fatalf("%s: %s holds %d objects (%d by shard), the model %d", at, l.name, l.s.Len(), sum, len(m.model))
		}
	}
}

// victims picks n distinct live ids.
func (m *modelCheck) victims(n int) []uint64 {
	objs := m.objects()
	var ids []uint64
	for _, i := range m.rng.Perm(len(objs))[:min(n, len(objs))] {
		ids = append(ids, objs[i].ID())
	}
	return ids
}

// churn applies ops single-object mutations, biased toward inserts.
func (m *modelCheck) churn(ops int) {
	for range ops {
		if len(m.model) == 0 || m.rng.Float64() < 0.52 {
			m.apply(m.fresh(1), nil)
		} else {
			m.apply(nil, m.victims(1))
		}
	}
}

// churnBatches applies batches of up to 20 inserts and up to 12 deletes.
func (m *modelCheck) churnBatches(batches int) {
	for range batches {
		m.apply(m.fresh(1+m.rng.IntN(20)), m.victims(m.rng.IntN(13)))
	}
}

// drainTo deletes objects, at most 40 at a time, until n remain.
func (m *modelCheck) drainTo(n int) {
	for len(m.model) > n {
		m.apply(nil, m.victims(min(40, len(m.model)-n)))
	}
}

// check runs queries random queries through every read family on every
// layout.
func (m *modelCheck) check(label string, queries int) {
	m.t.Helper()
	m.checkPopulation(label)
	objs := m.objects()
	ref := buildIndex(m.t, objs, Options{})
	pair := pairDists(objs, 0.6)
	// do runs one read on every layout; want is what the scan answers.
	do := func(fam, want string, f func(s Searcher) (string, error)) {
		m.t.Helper()
		for _, l := range m.layouts {
			got, err := f(l.s)
			if err != nil {
				m.t.Fatalf("%s: %s: %s: %v", label, l.name, fam, err)
			}
			if got != want {
				m.t.Fatalf("%s: %s: %s answers\n %s\nwant\n %s", label, l.name, fam, got, want)
			}
		}
	}
	for qi := range queries {
		q := makeQuery(m.rng, 12, 12, 8)
		for _, k := range []int{1, 4} {
			for _, alpha := range []float64{0.3, 0.75} {
				scan := fmt.Sprint(scanKNN(objs, k, func(o *fuzzy.Object) float64 { return fuzzy.AlphaDist(o, q, alpha) }))
				at := fmt.Sprintf("q%d/k=%d/α=%v/", qi, k, alpha)
				do(at+"linear", scan, func(s Searcher) (string, error) {
					rs, _, err := s.LinearScanAKNN(q, k, alpha)
					return fmt.Sprint(rs), err
				})
				for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					do(at+"aknn/"+algo.String(), scan, func(s Searcher) (string, error) {
						rs, _, err := s.AKNN(q, k, alpha, algo)
						if err == nil {
							rs, _, err = s.Refine(q, alpha, rs)
						}
						return fmt.Sprint(rs), err
					})
				}
				// The first layout's lazy answer refines to the scan's
				// through every layout over the same population.
				lazy, _, err := m.layouts[0].s.AKNN(q, k, alpha, LBLPUB)
				if err != nil {
					m.t.Fatal(err)
				}
				do(at+"relayed", scan, func(s Searcher) (string, error) {
					rs, _, err := s.Refine(q, alpha, lazy)
					return fmt.Sprint(rs), err
				})
			}
			at := fmt.Sprintf("q%d/k=%d/", qi, k)
			for _, w := range [][2]float64{{0.2, 0.85}, {0.5, 0.5}} {
				naive, _, err := ref.RKNN(q, k, w[0], w[1], Naive)
				if err != nil {
					m.t.Fatal(err)
				}
				for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
					do(fmt.Sprintf("%srknn[%v,%v]/%v", at, w[0], w[1], algo), showRanged(naive), func(s Searcher) (string, error) {
						rs, _, err := s.RKNN(q, k, w[0], w[1], algo)
						return showRanged(rs), err
					})
				}
			}
			do(at+"reverse", fmt.Sprint(reverseScan(objs, pair, q, k, 0.6)), func(s Searcher) (string, error) {
				rs, _, err := s.ReverseKNN(q, k, 0.6)
				return fmt.Sprint(rs), err
			})
			do(at+"eknn", fmt.Sprint(scanKNN(objs, k, func(o *fuzzy.Object) float64 { return fuzzy.ExpectedDist(o, q) })), func(s Searcher) (string, error) {
				rs, _, err := s.ExpectedDistKNN(q, k)
				return fmt.Sprint(rs), err
			})
		}
		for _, radius := range []float64{0, 2.5, 8} {
			var in []Result
			for _, r := range scanKNN(objs, len(objs), func(o *fuzzy.Object) float64 { return fuzzy.AlphaDist(o, q, 0.5) }) {
				if r.Dist <= radius {
					in = append(in, r)
				}
			}
			do(fmt.Sprintf("q%d/range/r=%v", qi, radius), fmt.Sprint(in), func(s Searcher) (string, error) {
				rs, _, err := s.RangeSearch(q, 0.5, radius)
				return fmt.Sprint(rs), err
			})
		}
	}
}

// scanKNN ranks objs by dist, then id, and keeps the first k as exact
// results.
func scanKNN(objs []*fuzzy.Object, k int, dist func(*fuzzy.Object) float64) []Result {
	rs := make([]Result, len(objs))
	for i, o := range objs {
		d := dist(o)
		rs[i] = Result{ID: o.ID(), Dist: d, Exact: true, Lower: d, Upper: d}
	}
	slices.SortFunc(rs, func(a, b Result) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID)) })
	return rs[:min(k, len(rs))]
}

// pairDists is the matrix of the objects' α-distances.
func pairDists(objs []*fuzzy.Object, alpha float64) [][]float64 {
	pair := make([][]float64, len(objs))
	for i, a := range objs {
		pair[i] = make([]float64, len(objs))
		for j := range i {
			pair[i][j] = fuzzy.AlphaDist(a, objs[j], alpha)
			pair[j][i] = pair[i][j]
		}
	}
	return pair
}

// reverseScan keeps every A with fewer than k objects B ≠ A for which
// (d_α(A, B), id_B) < (d_α(A, q), id_q), in (distance to q, id) order.
func reverseScan(objs []*fuzzy.Object, pair [][]float64, q *fuzzy.Object, k int, alpha float64) []Result {
	var in []*fuzzy.Object
	for i, a := range objs {
		da, closer := fuzzy.AlphaDist(a, q, alpha), 0
		for j, b := range objs {
			if d := pair[i][j]; j != i && (d < da || d == da && b.ID() < q.ID()) {
				closer++
			}
		}
		if closer < k {
			in = append(in, a)
		}
	}
	return scanKNN(in, len(in), func(o *fuzzy.Object) float64 { return fuzzy.AlphaDist(o, q, alpha) })
}

// pairsOf lists the pairs a join of the objects with themselves can
// answer, in (distance, left, right) order: each unordered pair once, left
// id first, for a self-join; every ordered pair, an object with itself
// included, for a join of two layouts.
func pairsOf(objs []*fuzzy.Object, pair [][]float64, self bool) []JoinPair {
	var ps []JoinPair
	for i, a := range objs {
		for j, b := range objs {
			if !self || a.ID() < b.ID() {
				ps = append(ps, JoinPair{LeftID: a.ID(), RightID: b.ID(), Dist: pair[i][j]})
			}
		}
	}
	slices.SortFunc(ps, func(x, y JoinPair) int {
		return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.LeftID, y.LeftID), cmp.Compare(x.RightID, y.RightID))
	})
	return ps
}

// showRanged prints RKNN results as ids and qualifying ranges.
func showRanged(rs []RangedResult) string {
	s := "["
	for _, r := range rs {
		s += fmt.Sprintf(" %d:%s", r.ID, r.Qualifying.String())
	}
	return s + " ]"
}

// joins holds DistanceJoin and KClosestPairs to brute force: a self-join
// on every layout, and a join of every ordered pair of different layouts.
func (m *modelCheck) joins(label string) {
	m.t.Helper()
	const alpha, eps = 0.5, 3
	objs := m.objects()
	pair := pairDists(objs, alpha)
	for _, l := range m.layouts {
		for _, r := range m.layouts {
			all := pairsOf(objs, pair, l.s == r.s)
			n := 0
			for n < len(all) && all[n].Dist <= eps {
				n++
			}
			got, _, err := DistanceJoin(l.s, r.s, alpha, eps)
			want := all[:n]
			for _, k := range []int{1, 5, 17} {
				if err == nil && slices.Equal(got, want) {
					got, _, err = KClosestPairs(l.s, r.s, k, alpha)
					want = all[:min(k, len(all))]
				}
			}
			if err != nil || !slices.Equal(got, want) {
				m.t.Fatalf("%s: a join of %s and %s answers %v, %v\nwant\n %v", label, l.name, r.name, got, err, want)
			}
		}
	}
}

// TestCrossVariantEquivalenceUnderChurn: on single trees of both build
// modes, every variant answers what the scan does on a fresh index, after
// a 500-op churn, and drained to five objects.
func TestCrossVariantEquivalenceUnderChurn(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		objs := makeObjects(rand.New(rand.NewPCG(seed, 1)), 50, 10, 12, 8)
		m := newModelCheck(t, seed, objs,
			layout{name: "str", s: buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})},
			layout{name: "incremental", s: buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6, Incremental: true}), perOp: true},
		)
		m.check("fresh", 2)
		m.churn(500)
		m.check("churned", 2)
		m.drainTo(5)
		m.check("drained", 1)
	}
}

// TestEquivalenceOnEmptyAndTinyIndexes covers the edges: one object and
// none, reached by deletion, on single and sharded layouts.
func TestEquivalenceOnEmptyAndTinyIndexes(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(99, 1)), 3, 10, 12, 8)
	opts := Options{MinEntries: 2, MaxEntries: 6}
	m := newModelCheck(t, 99, objs,
		layout{name: "single", s: buildIndex(t, objs, opts), perOp: true},
		layout{name: "sharded4", s: buildShardedOver(t, objs, 4, opts)},
	)
	m.drainTo(1)
	m.check("one object", 1)
	m.drainTo(0)
	m.check("empty", 1)
}

// TestShardedEquivalenceUnderChurn: 2 and 7 shards (FuzzConformance draws
// 4) answer what one tree and the scan do on fresh, churned (500 mirrored
// ops), drained and emptied populations.
func TestShardedEquivalenceUnderChurn(t *testing.T) {
	for _, shards := range []int{2, 7} {
		for _, seed := range []uint64{3, 8} {
			objs := makeObjects(rand.New(rand.NewPCG(seed, 2)), 60, 10, 12, 8)
			opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: seed%2 == 1}
			m := newModelCheck(t, seed, objs,
				layout{name: "single", s: buildIndex(t, objs, opts), perOp: true},
				layout{name: fmt.Sprintf("sharded%d", shards), s: buildShardedOver(t, objs, shards, opts), perOp: true},
			)
			m.check("fresh", 2)
			m.churn(500)
			m.check("churned", 2)
			m.drainTo(4)
			m.check("drained", 1)
			m.drainTo(0)
			m.check("empty", 1)
		}
	}
}

// TestShardedJoinsMatchSingle pins the join fan-out: every pairing of a
// single tree and coordinators of 3 and 4 shards joins to the brute-force
// pairs.
func TestShardedJoinsMatchSingle(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(77, 2)), 30, 10, 10, 8)
	opts := Options{MinEntries: 2, MaxEntries: 5}
	m := newModelCheck(t, 77, objs,
		layout{name: "single", s: buildIndex(t, objs, opts)},
		layout{name: "sharded3", s: buildShardedOver(t, objs, 3, opts)},
		layout{name: "sharded4", s: buildShardedOver(t, objs, 4, opts)},
	)
	m.joins("joins")
}

// TestPagedEquivalence: a paged tree behind a three-page cache answers
// every family like the scan, at 1 and 4 shards. (FuzzConformance holds
// its raw answers and costs to the tree it was saved from.)
func TestPagedEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		p := newPagedPair(t, 42, 120, shards, tinyCache)
		defer p.close()
		m := newModelCheck(t, 7, p.objs,
			layout{name: "mem", s: p.mem},
			layout{name: fmt.Sprintf("paged/shards=%d", shards), s: p.paged},
		)
		m.check("paged", 3)
	}
}

// TestBatchEquivalence is the group-commit property: an index fed through
// ApplyBatch and one fed object by object both answer what the scan does,
// on fresh, churned, drained and refilled populations.
func TestBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		shards int
		inc    bool
	}{
		{"single", 4, 1, false},            // STR: large batches take the bulk-rebuild path
		{"single-incremental", 3, 1, true}, // always per insert
		{"sharded4", 2, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: tc.inc}
			m := newModelCheck(t, tc.seed, nil,
				layout{name: "per-op", s: emptySearcher(t, tc.shards, opts), perOp: true},
				layout{name: "batch", s: emptySearcher(t, tc.shards, opts)},
			)
			m.apply(m.fresh(120), nil)
			m.check("fresh", 3)
			m.churnBatches(30)
			m.check("churned", 3)
			m.drainTo(0)
			m.check("drained", 2)
			m.apply(m.fresh(40), nil)
			m.check("refilled", 2)
		})
	}
}
