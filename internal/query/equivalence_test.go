package query

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/oracle"
	"fuzzyknn/internal/store"
)

// This file is the query layer's model check. A model of the live objects
// and a set of layouts — single trees built by STR or by insertion,
// coordinators of 2 to 7 shards, paged trees behind a tiny block cache —
// take the same mutations, one ApplyBatch or one call per object, and every
// read family on every layout is held to internal/oracle's reference over
// the model: AKNN (lazy answers after Refine, also relayed from the first
// layout) and the linear scan to the (distance, id) scan, range search to
// d ≤ r, reverse kNN and expected-distance kNN to brute force, all four
// RKNN algorithms to Naive over a fresh index of the model, self-joins and
// joins with a static index to brute force. In a race (modelCheck.race)
// readers run beside the writer, and each answer must be the reference of
// some committed prefix of the history. FuzzConformance in the root package
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
	racing  *oracle.Window       // set while readers run beside the writer
	pops    []*oracle.Population // the model after each op of the window's history
	memo    oracle.Memo          // the distances every population of the check shares
}

// newModelCheck starts a check over layouts that already hold objs.
func newModelCheck(t *testing.T, seed uint64, objs []*fuzzy.Object, layouts ...layout) *modelCheck {
	m := &modelCheck{t: t, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b9)), model: make(map[uint64]*fuzzy.Object), next: 1, layouts: layouts, memo: oracle.Memo{}}
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

func (m *modelCheck) population() *oracle.Population { return oracle.New(m.objects(), m.memo) }

// fresh draws n objects under unused ids; memberships in eighths force ties.
func (m *modelCheck) fresh(n int) []*fuzzy.Object {
	objs := makeObjectsWithBase(m.rng, m.next-1, n, 10, 12, 8)
	m.next += uint64(n)
	return objs
}

// apply lands one mutation on every layout — as one ApplyBatch, or as its
// inserts then its deletes one call at a time, in a race each call one
// commit on the layout's clock — and on the model.
func (m *modelCheck) apply(inserts []*fuzzy.Object, deletes []uint64) {
	m.t.Helper()
	for i, l := range m.layouts {
		if l.perOp {
			for _, o := range inserts {
				if err := m.racing.Commit(i, 1, func() error { _, err := Insert(l.s, o); return err }); err != nil {
					m.t.Fatalf("%s: insert %d: %v", l.name, o.ID(), err)
				}
			}
			for _, id := range deletes {
				if err := m.racing.Commit(i, 1, func() error { _, err := Delete(l.s, id); return err }); err != nil {
					m.t.Fatalf("%s: delete %d: %v", l.name, id, err)
				}
			}
			continue
		}
		var stats []Stats
		err := m.racing.Commit(i, len(inserts)+len(deletes), func() (err error) { stats, err = l.s.ApplyBatch(inserts, deletes); return err })
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
		m.landed()
	}
	for _, id := range deletes {
		delete(m.model, id)
		m.landed()
	}
	m.checkPopulation(fmt.Sprintf("after %d inserts, %d deletes", len(inserts), len(deletes)))
}

// landed records, in a race, the population after one more op of the
// history, in the order a per-op layout lands them.
func (m *modelCheck) landed() {
	if m.racing != nil {
		m.pops = append(m.pops, m.population())
	}
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

// queries draws n query objects.
func (m *modelCheck) queries(n int) []*fuzzy.Object {
	qs := make([]*fuzzy.Object, n)
	for i := range qs {
		qs[i] = makeQuery(m.rng, 12, 12, 8)
	}
	return qs
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

// check runs every read of queries random queries on every layout, and
// relays the first layout's lazy AKNN answers through every layout's
// Refine; each must answer what the reference over the model does.
func (m *modelCheck) check(label string, queries int) {
	m.t.Helper()
	m.checkPopulation(label)
	qs := m.queries(queries)
	reads := m.reads(qs)
	w := m.window(reads)
	for li, l := range m.layouts {
		for ri, rd := range reads {
			got, err := rd.run(l.s)
			if err := w.Match(oracle.Sighting{Layout: li, Read: ri, Got: got, Err: err}); err != nil {
				m.t.Fatalf("%s: %v", label, err)
			}
		}
	}
	for qi, q := range qs {
		for _, k := range []int{1, 4} {
			for _, alpha := range []float64{0.3, 0.75} {
				lazy, _, err := m.layouts[0].s.AKNN(q, k, alpha, LBLPUB)
				if err != nil {
					m.t.Fatal(err)
				}
				want := fmt.Sprint(asResults(m.pops[0].KNN(q, k, alpha)))
				for _, l := range m.layouts {
					if rs, _, err := l.s.Refine(q, alpha, lazy); err != nil || fmt.Sprint(rs) != want {
						m.t.Fatalf("%s: %s refines q%d k=%d α=%v's lazy answer of %s to %v, %v\nwant\n %s", label, l.name, qi, k, alpha, m.layouts[0].name, rs, err, want)
					}
				}
			}
		}
	}
}

// window opens a committed-prefix window over the reads on every layout,
// from the model's population now.
func (m *modelCheck) window(reads []read) *oracle.Window {
	m.pops = []*oracle.Population{m.population()}
	var names []string
	for _, l := range m.layouts {
		names = append(names, l.name)
	}
	var rs []oracle.Read
	for _, rd := range reads {
		rs = append(rs, rd.Read)
	}
	return oracle.NewWindow(names, rs, func(read, ops int) string { return reads[read].scan(m.pops[ops]) })
}

// race runs steps — any number of apply calls — while readers goroutines
// run every read of the queries on every layout, each reader at least one
// pass over every (layout, read) pair; the writer starts once every reader
// is reading. Afterwards each answer must equal the model's reference at
// some prefix in [lo, hi] (oracle.Window). With no steps the readers also
// run rawReads.
func (m *modelCheck) race(readers int, queries []*fuzzy.Object, steps func()) {
	m.t.Helper()
	reads := m.reads(queries)
	if steps == nil {
		reads = append(reads, m.rawReads(queries)...)
		steps = func() {}
	}
	m.racing = m.window(reads)
	defer func() { m.racing = nil }()
	log, err := m.racing.Race(readers, func(li, ri int) (string, error) { return reads[ri].run(m.layouts[li].s) }, steps)
	if err != nil {
		m.t.Fatalf("race: %v", err)
	}
	m.t.Logf("race: %s", log)
}

// read is one read of a check or a race: its family and parameters, the
// call, and the reference that answers it over a population, named by key
// so that reads of one answer (the linear scan and AKNN's four algorithms,
// RKNN's four) share it.
type read struct {
	oracle.Read
	run  func(s Searcher) (string, error)
	scan func(pop *oracle.Population) string
}

// reads lists the reads of the queries. Per query and k ∈ {1, 4}: the
// linear scan and AKNN with all four algorithms, lazy answers refined, at
// α ∈ {0.3, 0.75}, held to the (distance, id) scan; all four RKNN
// algorithms over [0.2, 0.85] and [0.5, 0.5], held to Naive over a fresh
// index; reverse kNN and expected-distance kNN, held to brute force. Per
// query, range search at three radii, held to d ≤ r. Then a self-join and
// a join with a static index over the queries.
func (m *modelCheck) reads(queries []*fuzzy.Object) []read {
	var rs []read
	add := func(name, key string, run func(s Searcher) ([]Result, error), scan func(pop *oracle.Population) []oracle.Scored) {
		rs = append(rs, read{oracle.Read{Name: name, Key: key}, func(s Searcher) (string, error) {
			got, err := run(s)
			return fmt.Sprint(got), err
		}, func(pop *oracle.Population) string { return fmt.Sprint(asResults(scan(pop))) }})
	}
	var static []*fuzzy.Object
	for qi, q := range queries {
		static = append(static, reID(q, 1<<40+uint64(qi)))
		for _, k := range []int{1, 4} {
			at := fmt.Sprintf("q%d k=%d", qi, k)
			for _, alpha := range []float64{0.3, 0.75} {
				nearest := func(pop *oracle.Population) []oracle.Scored { return pop.KNN(q, k, alpha) }
				key := fmt.Sprintf("%s α=%v", at, alpha)
				add("linear "+key, key, func(s Searcher) ([]Result, error) {
					rs, _, err := s.LinearScanAKNN(q, k, alpha)
					return rs, err
				}, nearest)
				for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					add(fmt.Sprintf("aknn/%v %s, refined", algo, key), key, func(s Searcher) ([]Result, error) {
						rs, _, err := s.AKNN(q, k, alpha, algo)
						if err == nil {
							rs, _, err = s.Refine(q, alpha, rs)
						}
						return rs, err
					}, nearest)
				}
			}
			for _, w := range [][2]float64{{0.2, 0.85}, {0.5, 0.5}} {
				key := fmt.Sprintf("%s rknn%v", at, w)
				for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
					rs = append(rs, read{oracle.Read{Name: fmt.Sprintf("rknn/%v %s [%v, %v]", algo, at, w[0], w[1]), Key: key}, func(s Searcher) (string, error) {
						rr, _, err := s.RKNN(q, k, w[0], w[1], algo)
						return showRanged(rr), err
					}, func(pop *oracle.Population) string {
						naive, _, err := buildIndex(m.t, pop.Objs, Options{}).RKNN(q, k, w[0], w[1], Naive)
						if err != nil {
							m.t.Fatal(err)
						}
						return showRanged(naive)
					}})
				}
			}
			add("reverse "+at+" α=0.6", at+" reverse", func(s Searcher) ([]Result, error) {
				rs, _, err := s.ReverseKNN(q, k, 0.6)
				return rs, err
			}, func(pop *oracle.Population) []oracle.Scored { return pop.Reverse(q, k, 0.6) })
			add("eknn "+at, at+" eknn", func(s Searcher) ([]Result, error) {
				rs, _, err := s.ExpectedDistKNN(q, k)
				return rs, err
			}, func(pop *oracle.Population) []oracle.Scored { return pop.KNN(q, k, oracle.Expected) })
		}
		for _, radius := range []float64{0, 2.5, 8} {
			key := fmt.Sprintf("range q%d α=0.5 r=%v", qi, radius)
			add(key, key, func(s Searcher) ([]Result, error) {
				rs, _, err := s.RangeSearch(q, 0.5, radius)
				return rs, err
			}, func(pop *oracle.Population) []oracle.Scored { return pop.Range(q, 0.5, radius) })
		}
	}
	const alpha, eps = 0.5, 3
	probe := buildIndex(m.t, static, Options{})
	return append(rs, read{oracle.Read{Name: fmt.Sprintf("self-join α=%v ε=%v", alpha, eps), Key: "self-join"}, func(s Searcher) (string, error) {
		ps, _, err := DistanceJoin(s, s, alpha, eps)
		return fmt.Sprint(ps), err
	}, func(pop *oracle.Population) string {
		return fmt.Sprint(oracle.Within(pop.Pairs(alpha, true), eps))
	}}, read{oracle.Read{Name: fmt.Sprintf("join with the queries α=%v ε=%v", alpha, eps), Key: "static-join"}, func(s Searcher) (string, error) {
		ps, _, err := DistanceJoin(probe, s, alpha, eps)
		return fmt.Sprint(ps), err
	}, func(pop *oracle.Population) string {
		return fmt.Sprint(oracle.Within(pop.Join(static, alpha), eps))
	}})
}

// rawReads lists LBLP's and LBLPUB's unrefined answers to the queries,
// each held to the first layout's answer computed serially before any
// reader starts. Refining hides a bound that a memo shared between
// readers changed, even one behind a lock that -race does not see; the
// raw answer shows it.
func (m *modelCheck) rawReads(queries []*fuzzy.Object) []read {
	var rs []read
	for qi, q := range queries {
		for _, k := range []int{1, 4} {
			for _, alpha := range []float64{0.3, 0.75} {
				for _, algo := range []AKNNAlgorithm{LBLP, LBLPUB} {
					run := func(s Searcher) (string, error) {
						got, _, err := s.AKNN(q, k, alpha, algo)
						return fmt.Sprint(got), err
					}
					want, err := run(m.layouts[0].s)
					if err != nil {
						m.t.Fatal(err)
					}
					name := fmt.Sprintf("aknn/%v q%d k=%d α=%v, raw", algo, qi, k, alpha)
					rs = append(rs, read{oracle.Read{Name: name}, run, func(*oracle.Population) string { return want }})
				}
			}
		}
	}
	return rs
}

// asResults turns a reference answer into the exact results an index answers.
func asResults(ss []oracle.Scored) []Result {
	rs := make([]Result, len(ss))
	for i, s := range ss {
		rs[i] = Result{ID: s.ID, Dist: s.Dist, Exact: true, Lower: s.Dist, Upper: s.Dist}
	}
	return rs
}

// asJoin turns a reference join into the pairs an index answers.
func asJoin(ps []oracle.Pair) []JoinPair {
	out := make([]JoinPair, len(ps))
	for i, p := range ps {
		out[i] = JoinPair(p)
	}
	return out
}

// showRanged prints RKNN results as ids and qualifying ranges.
func showRanged(rs []RangedResult) string {
	s := "["
	for _, r := range rs {
		s += fmt.Sprintf(" %d:%s", r.ID, r.Qualifying.String())
	}
	return s + " ]"
}

// joins holds DistanceJoin at three ε and KClosestPairs at three k to
// brute force: a self-join on every layout, and a join of every ordered
// pair of different layouts.
func (m *modelCheck) joins(label string) {
	m.t.Helper()
	const alpha = 0.5
	pop := m.population()
	for _, l := range m.layouts {
		for _, r := range m.layouts {
			all := pop.Pairs(alpha, l.s == r.s)
			for _, eps := range []float64{0, 0.5, 3} {
				got, _, err := DistanceJoin(l.s, r.s, alpha, eps)
				if want := asJoin(oracle.Within(all, eps)); err != nil || !slices.Equal(got, want) {
					m.t.Fatalf("%s: a join of %s and %s at ε=%v answers %v, %v\nwant\n %v", label, l.name, r.name, eps, got, err, want)
				}
			}
			for _, k := range []int{1, 5, 17} {
				got, _, err := KClosestPairs(l.s, r.s, k, alpha)
				if want := asJoin(all[:min(k, len(all))]); err != nil || !slices.Equal(got, want) {
					m.t.Fatalf("%s: the %d closest pairs of %s and %s are %v, %v\nwant\n %v", label, k, l.name, r.name, got, err, want)
				}
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

// The replays below run readers beside the writer (modelCheck.race); run
// them with -race.

// TestConcurrentQueriesOnSharedIndex: sixteen readers share one index,
// and every answer is the scan's.
func TestConcurrentQueriesOnSharedIndex(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(401, 1)), 80, 12, 12, 8)
	m := newModelCheck(t, 401, objs, layout{name: "str", s: buildIndex(t, objs, Options{})})
	m.race(16, m.queries(3), nil)
}

// TestConcurrentLazyProbeVariants: LBLPUB's sampled upper bound, Refine
// and a paged tree's block cache are pure reads — twelve readers share a
// tree and its paged copy behind a three-page cache, every answer is the
// scan's, every raw lazy answer is the one a serial run gave, and any
// hidden memoization trips -race.
func TestConcurrentLazyProbeVariants(t *testing.T) {
	p := newPagedPair(t, 402, 80, 1, tinyCache)
	defer p.close()
	m := newModelCheck(t, 402, p.objs, layout{name: "mem", s: p.mem}, layout{name: "paged", s: p.paged})
	m.race(12, m.queries(2), nil)
}

// TestConcurrentQueriesDuringMutation: readers beside a writer landing 400
// single inserts and deletes on one tree, and the same ops as one-op
// batches on an incrementally built one.
func TestConcurrentQueriesDuringMutation(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(34, 1)), 60, 8, 12, 8)
	opts := Options{MinEntries: 2, MaxEntries: 6}
	m := newModelCheck(t, 34, objs,
		layout{name: "str", s: buildIndex(t, objs, opts), perOp: true},
		layout{name: "incremental", s: buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6, Incremental: true})},
	)
	m.race(4, m.queries(2), func() { m.churn(400) })
}

// TestShardedConcurrentQueriesDuringMutation: readers beside a writer
// landing 300 single inserts and deletes on four shards.
func TestShardedConcurrentQueriesDuringMutation(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(55, 4)), 60, 8, 12, 8)
	m := newModelCheck(t, 55, objs, layout{name: "sharded4", s: buildShardedOver(t, objs, 4, Options{MinEntries: 2, MaxEntries: 6}), perOp: true})
	m.race(4, m.queries(2), func() { m.churn(300) })
}

// TestApplyBatchConcurrentQueries: readers see each of 20 batches whole or
// not at all, on four shards and on one tree over a store whose commit
// takes a while before it lands, as a disk write does — so a tree
// published before its commit shows ids its store does not hold yet.
func TestApplyBatchConcurrentQueries(t *testing.T) {
	opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: true}
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Build(slowCommit{ms}, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newModelCheck(t, 11, nil, layout{name: "slow-commit", s: slow}, layout{name: "sharded4", s: emptySearcher(t, 4, opts)})
	m.apply(m.fresh(80), nil)
	m.race(3, m.queries(2), func() { m.churnBatches(20) })
}

// slowCommit is a MemStore whose commit sleeps before it lands.
type slowCommit struct{ *store.MemStore }

func (s slowCommit) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	time.Sleep(200 * time.Microsecond)
	return s.MemStore.ApplyBatch(inserts, deletes)
}

// movingObject is the geometry a cross-shard move carries from id to id: a
// small blob far from makeObjects' square, so that a query with the same
// points finds it at distance 0 and nothing else near.
func movingObject(id uint64) *fuzzy.Object {
	return fuzzy.MustNew(id, []fuzzy.WeightedPoint{
		{P: []float64{100, 100}, Mu: 1},
		{P: []float64{100.5, 100}, Mu: 0.6},
		{P: []float64{100, 100.5}, Mu: 0.3},
	})
}

// TestShardedBatchIsOneSnapshot moves one geometry between two shards,
// one ApplyBatch per move: delete its id in one shard and insert it under
// a fresh id in the other. Every population a commit produced holds one
// copy, so a read that sees none or two — as a shard-by-shard publish lets
// about one read in three do — answers no prefix.
func TestShardedBatchIsOneSnapshot(t *testing.T) {
	objs := makeObjects(rand.New(rand.NewPCG(19, 2)), 40, 8, 12, 8)
	m := newModelCheck(t, 19, objs, layout{name: "sharded2", s: buildShardedOver(t, objs, 2, Options{})})
	// into is a fresh id in shard sh.
	into := func(sh int) uint64 {
		for ShardOf(m.next, 2) != sh {
			m.next++
		}
		m.next++
		return m.next - 1
	}
	at := into(0)
	m.apply([]*fuzzy.Object{movingObject(at)}, nil)
	m.race(3, []*fuzzy.Object{movingObject(0)}, func() {
		for deadline, i := time.Now().Add(time.Second), 0; time.Now().Before(deadline); i++ {
			to := into(1 - i%2)
			m.apply([]*fuzzy.Object{movingObject(to)}, []uint64{at})
			at = to
		}
	})
}
