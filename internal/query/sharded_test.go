package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// This file extends the cross-variant equivalence harness across shard
// layouts: a 2-, 4- and 7-shard index must agree byte-for-byte with a
// single tree over the same objects for every AKNN variant (after
// refinement — the sharded coordinator always answers exact), every RKNN
// variant's qualifying ranges, range search, reverse kNN, expected-distance
// kNN and the linear-scan baseline — on a fresh index, after a ≥500-op
// random churn, and on a drained index, with per-shard structural
// invariants and partition ownership checked at every stage. A sharded
// AKNN, RKNN (each of the four algorithms, run as named) and range search
// must also cost exactly what the single tree's does — object accesses,
// distance evaluations, sub-searches, candidates, refinement pieces: which
// leaf entries a bound lets through depends on the objects, not on how they
// are cut into trees.

// buildShardedOver partitions objs by ShardOf and builds one Index per
// shard, each over its own MemStore — the per-shard-store layout the
// public API uses.
func buildShardedOver(t testing.TB, objs []*fuzzy.Object, n int, opts Options) *ShardedIndex {
	t.Helper()
	parts := make([][]*fuzzy.Object, n)
	for _, o := range objs {
		s := ShardOf(o.ID(), n)
		parts[s] = append(parts[s], o)
	}
	shards := make([]*Index, n)
	for i := range shards {
		ms, err := store.NewMemStore(parts[i])
		if err != nil {
			t.Fatal(err)
		}
		shards[i], err = Build(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	sx, err := NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// shardedEquivState drives one mirrored run: every mutation is applied to
// a single-tree index and a sharded index, and every assertion demands
// byte-identical answers from both.
type shardedEquivState struct {
	t       *testing.T
	rng     *rand.Rand
	single  *Index
	sharded *ShardedIndex
	live    []uint64
	next    uint64
}

func newShardedEquivState(t *testing.T, seed uint64, n, shards int) *shardedEquivState {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	objs := makeObjects(rng, n, 10, 12, 8) // quantized memberships force ties
	opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: seed%2 == 1}
	s := &shardedEquivState{
		t:       t,
		rng:     rng,
		single:  buildIndex(t, objs, opts),
		sharded: buildShardedOver(t, objs, shards, opts),
		next:    uint64(n) + 5000,
	}
	for _, o := range objs {
		s.live = append(s.live, o.ID())
	}
	return s
}

func (s *shardedEquivState) insert(o *fuzzy.Object) {
	s.t.Helper()
	if _, err := Insert(s.single, o); err != nil {
		s.t.Fatalf("single insert %d: %v", o.ID(), err)
	}
	if _, err := Insert(s.sharded, o); err != nil {
		s.t.Fatalf("sharded insert %d: %v", o.ID(), err)
	}
	s.live = append(s.live, o.ID())
}

func (s *shardedEquivState) delete(i int) {
	s.t.Helper()
	id := s.live[i]
	if _, err := Delete(s.single, id); err != nil {
		s.t.Fatalf("single delete %d: %v", id, err)
	}
	if _, err := Delete(s.sharded, id); err != nil {
		s.t.Fatalf("sharded delete %d: %v", id, err)
	}
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
}

func (s *shardedEquivState) churn(ops int) {
	for op := 0; op < ops; op++ {
		if len(s.live) == 0 || s.rng.Float64() < 0.52 {
			o := makeObjectsWithBase(s.rng, s.next, 1, 10, 12, 8)[0]
			s.next++
			s.insert(o)
		} else {
			s.delete(s.rng.IntN(len(s.live)))
		}
		if op%100 == 0 || op == ops-1 {
			s.checkInvariants()
		}
	}
}

// checkInvariants verifies both layouts' structure, the population model,
// and that every shard only holds ids ShardOf assigns to it.
func (s *shardedEquivState) checkInvariants() {
	s.t.Helper()
	if err := s.single.CheckInvariants(); err != nil {
		s.t.Fatalf("single: %v", err)
	}
	if err := s.sharded.CheckInvariants(); err != nil {
		s.t.Fatalf("sharded: %v", err)
	}
	if s.single.Len() != len(s.live) || s.sharded.Len() != len(s.live) {
		s.t.Fatalf("len: single %d, sharded %d, model %d", s.single.Len(), s.sharded.Len(), len(s.live))
	}
	st := s.sharded.Stats()
	total := 0
	for _, sh := range st.Shards {
		total += sh.Objects
	}
	if total != len(s.live) {
		s.t.Fatalf("shard stats sum %d, model %d", total, len(s.live))
	}
}

// mustEqualResults demands byte-identical result slices (all fields).
func mustEqualResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sharded answer diverges\n got: %+v\nwant: %+v", label, got, want)
	}
}

// mustCostEqual demands that two executions of one query cost the same in
// every layout-invariant counter: all of Stats but the tree-node and page
// counts, which do depend on how the population is cut into trees, and the
// wall time.
func mustCostEqual(t *testing.T, got, want Stats, label string) {
	t.Helper()
	for _, st := range []*Stats{&got, &want} {
		st.NodeAccesses, st.PageReads, st.PageCacheHits, st.Duration = 0, 0, 0, 0
	}
	if got != want {
		t.Fatalf("%s: sharded cost diverges from the single tree's\n got: %+v\nwant: %+v", label, got, want)
	}
}

func (s *shardedEquivState) assertEquivalent(label string, queries int) {
	s.t.Helper()
	for qi := 0; qi < queries; qi++ {
		q := makeQuery(s.rng, 12, 12, 8)
		for _, k := range []int{1, 4} {
			for _, alpha := range []float64{0.3, 0.75} {
				// The linear scan is the ground truth both layouts must hit.
				want, _, err := s.single.LinearScanAKNN(q, k, alpha)
				if err != nil {
					s.t.Fatalf("%s: linear scan: %v", label, err)
				}
				var cost Stats // the single tree's non-lazy run: Basic for Basic, LB otherwise
				for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					single, singleSt, err := s.single.AKNN(q, k, alpha, algo)
					if err != nil {
						s.t.Fatalf("%s: single %v: %v", label, algo, err)
					}
					if algo <= LB {
						cost = singleSt
					}
					refined, _, err := s.single.Refine(q, alpha, single)
					if err != nil {
						s.t.Fatalf("%s: refine %v: %v", label, algo, err)
					}
					mustEqualResults(s.t, refined, want, label+"/single-refined/"+algo.String())
					// The same lazy answer relayed to the coordinator refines
					// through the owning shards' stores.
					relayed, _, err := s.sharded.Refine(q, alpha, single)
					if err != nil {
						s.t.Fatalf("%s: sharded refine %v: %v", label, algo, err)
					}
					mustEqualResults(s.t, relayed, want, label+"/sharded-refined/"+algo.String())

					got, st, err := s.sharded.AKNN(q, k, alpha, algo)
					if err != nil {
						s.t.Fatalf("%s: sharded %v: %v", label, algo, err)
					}
					mustEqualResults(s.t, got, want, label+"/sharded/"+algo.String())
					if st.ObjectAccesses < len(got) {
						s.t.Fatalf("%s: %v probed %d objects for %d exact results",
							label, algo, st.ObjectAccesses, len(got))
					}
					if st.ObjectAccesses != cost.ObjectAccesses || st.DistanceEvals != cost.DistanceEvals {
						s.t.Fatalf("%s: sharded %v k=%d α=%v cost %d accesses, %d evals; the single tree %d, %d",
							label, algo, k, alpha, st.ObjectAccesses, st.DistanceEvals, cost.ObjectAccesses, cost.DistanceEvals)
					}
				}
				shardedScan, _, err := s.sharded.LinearScanAKNN(q, k, alpha)
				if err != nil {
					s.t.Fatalf("%s: sharded linear scan: %v", label, err)
				}
				mustEqualResults(s.t, shardedScan, want, label+"/sharded-linear")
			}
			s.assertRKNNEquivalent(q, k, 0.2, 0.85, label)

			wantRev, _, err := s.single.ReverseKNN(q, k, 0.6)
			if err != nil {
				s.t.Fatalf("%s: single reverse: %v", label, err)
			}
			gotRev, _, err := s.sharded.ReverseKNN(q, k, 0.6)
			if err != nil {
				s.t.Fatalf("%s: sharded reverse: %v", label, err)
			}
			mustEqualResults(s.t, gotRev, wantRev, label+"/reverse")

			wantE, _, err := s.single.ExpectedDistKNN(q, k)
			if err != nil {
				s.t.Fatalf("%s: single eknn: %v", label, err)
			}
			gotE, _, err := s.sharded.ExpectedDistKNN(q, k)
			if err != nil {
				s.t.Fatalf("%s: sharded eknn: %v", label, err)
			}
			mustEqualResults(s.t, gotE, wantE, label+"/eknn")
		}
		s.assertRKNNEquivalent(q, 3, 0.5, 0.5, label) // degenerate range
		for _, radius := range []float64{0, 2.5, 8} {
			want, wantSt, err := s.single.RangeSearch(q, 0.5, radius)
			if err != nil {
				s.t.Fatalf("%s: single range: %v", label, err)
			}
			got, gotSt, err := s.sharded.RangeSearch(q, 0.5, radius)
			if err != nil {
				s.t.Fatalf("%s: sharded range: %v", label, err)
			}
			mustEqualResults(s.t, got, want, label+"/range")
			mustCostEqual(s.t, gotSt, wantSt, label+"/range")
		}
	}
}

// assertRKNNEquivalent checks all four sharded RKNN variants against the
// single-tree RSSICR reference, byte for byte (ids and qualifying ranges),
// and each one's cost against the same variant on the single tree.
func (s *shardedEquivState) assertRKNNEquivalent(q *fuzzy.Object, k int, as, ae float64, label string) {
	s.t.Helper()
	want, _, err := s.single.RKNN(q, k, as, ae, RSSICR)
	if err != nil {
		s.t.Fatalf("%s: single RKNN: %v", label, err)
	}
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		got, gotSt, err := s.sharded.RKNN(q, k, as, ae, algo)
		if err != nil {
			s.t.Fatalf("%s: sharded %v: %v", label, algo, err)
		}
		_, wantSt, err := s.single.RKNN(q, k, as, ae, algo)
		if err != nil {
			s.t.Fatalf("%s: single %v: %v", label, algo, err)
		}
		mustCostEqual(s.t, gotSt, wantSt, label+"/"+algo.String())
		if len(got) != len(want) {
			s.t.Fatalf("%s: sharded %v returned %d objects, single returned %d",
				label, algo, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				s.t.Fatalf("%s: %v result %d: id %d, want %d", label, algo, i, got[i].ID, want[i].ID)
			}
			if g, w := got[i].Qualifying.String(), want[i].Qualifying.String(); g != w {
				s.t.Fatalf("%s: %v object %d qualifies on %s, single on %s",
					label, algo, got[i].ID, g, w)
			}
		}
	}
}

// TestShardedEquivalenceUnderChurn is the headline sharding property test:
// 2, 4 and 7 shards answer byte-identically to shards=1 across every query
// family on fresh, churned (≥500 mirrored ops) and drained indexes.
func TestShardedEquivalenceUnderChurn(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		for _, seed := range []uint64{3, 8} {
			s := newShardedEquivState(t, seed, 60, shards)
			s.checkInvariants()
			s.assertEquivalent("fresh", 2)

			s.churn(500)
			s.assertEquivalent("churned", 2)

			for len(s.live) > 4 {
				s.delete(s.rng.IntN(len(s.live)))
			}
			s.checkInvariants()
			s.assertEquivalent("drained", 1)

			for len(s.live) > 0 {
				s.delete(0)
			}
			s.checkInvariants()
			q := makeQuery(s.rng, 12, 12, 8)
			res, _, err := s.sharded.AKNN(q, 3, 0.5, LBLPUB)
			if err != nil || len(res) != 0 {
				t.Fatalf("empty sharded AKNN: %v, %d results", err, len(res))
			}
			ranged, _, err := s.sharded.RKNN(q, 3, 0.2, 0.8, RSSICR)
			if err != nil || len(ranged) != 0 {
				t.Fatalf("empty sharded RKNN: %v, %d results", err, len(ranged))
			}
		}
	}
}

// TestShardedJoinsMatchSingle pins the join fan-out: sharded-vs-sharded
// and sharded-vs-single joins must reproduce the single-tree pairs.
func TestShardedJoinsMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 2))
	left := makeObjects(rng, 30, 10, 10, 8)
	right := makeObjectsWithBase(rng, 2000, 30, 10, 10, 8)
	opts := Options{MinEntries: 2, MaxEntries: 5}
	ixL, ixR := buildIndex(t, left, opts), buildIndex(t, right, opts)
	sxL, sxR := buildShardedOver(t, left, 3, opts), buildShardedOver(t, right, 4, opts)

	wantJoin, _, err := DistanceJoin(ixL, ixR, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, sides := range map[string][2]Searcher{
		"sharded-sharded": {sxL, sxR},
		"sharded-single":  {sxL, ixR},
		"single-sharded":  {ixL, sxR},
	} {
		got, _, err := DistanceJoin(sides[0], sides[1], 0.5, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, wantJoin) && (len(got) > 0 || len(wantJoin) > 0) {
			t.Fatalf("%s join diverges:\n got %+v\nwant %+v", name, got, wantJoin)
		}
	}

	wantSelf, _, err := DistanceJoin(ixL, ixL, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotSelf, _, err := DistanceJoin(sxL, sxL, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSelf, wantSelf) && (len(gotSelf) > 0 || len(wantSelf) > 0) {
		t.Fatalf("self join diverges:\n got %+v\nwant %+v", gotSelf, wantSelf)
	}

	for _, k := range []int{1, 5, 17} {
		want, _, err := KClosestPairs(ixL, ixR, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := KClosestPairs(sxL, sxR, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("k=%d closest pairs diverge:\n got %+v\nwant %+v", k, got, want)
		}
		wantSelf, _, err := KClosestPairs(ixL, ixL, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		gotSelf, _, err := KClosestPairs(sxL, sxL, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSelf, wantSelf) && (len(gotSelf) > 0 || len(wantSelf) > 0) {
			t.Fatalf("k=%d self closest pairs diverge:\n got %+v\nwant %+v", k, gotSelf, wantSelf)
		}
	}
}

// TestShardedValidation covers the coordinator's argument and routing
// error paths.
func TestShardedValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 1))
	objs := makeObjects(rng, 20, 8, 10, 8)
	sx := buildShardedOver(t, objs, 4, Options{MinEntries: 2, MaxEntries: 5})
	q := makeQuery(rng, 8, 10, 8)

	if _, _, err := sx.AKNN(nil, 3, 0.5, Basic); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("nil query: %v", err)
	}
	if _, _, err := sx.AKNN(q, 0, 0.5, Basic); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("k=0: %v", err)
	}
	if _, _, err := sx.AKNN(q, 3, 1.5, Basic); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("alpha out of range: %v", err)
	}
	if _, _, err := sx.AKNN(q, 3, 0.5, AKNNAlgorithm(9)); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("bad algo: %v", err)
	}
	if _, _, err := sx.RKNN(q, 3, 0.8, 0.2, RSS); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("inverted range: %v", err)
	}
	if _, _, err := sx.RKNN(q, 3, 0.2, 0.8, RKNNAlgorithm(9)); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("bad rknn algo: %v", err)
	}
	if _, _, err := sx.RangeSearch(q, 0.5, -1); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("negative radius: %v", err)
	}
	threeD := fuzzy.MustNew(90000, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}})
	if _, err := Insert(sx, threeD); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("mismatched dims insert: %v", err)
	}
	if _, err := Insert(sx, objs[0]); !errors.Is(err, store.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if _, err := Delete(sx, 424242); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("delete unknown: %v", err)
	}
	if _, _, err := sx.AKNN(threeD, 1, 0.5, LBLPUB); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("mismatched dims query: %v", err)
	}

	// k only bounds the answer; it must not size it.
	if all, _, err := sx.AKNN(q, math.MaxInt, 0.5, LB); err != nil || len(all) != len(objs) {
		t.Fatalf("k beyond the population: %d results, %v", len(all), err)
	}

	if _, err := NewSharded(nil); err == nil {
		t.Fatal("NewSharded(nil) accepted")
	}
	if _, err := NewSharded([]*Index{nil}); err == nil {
		t.Fatal("NewSharded with nil shard accepted")
	}
}

// TestShardOfDistribution sanity-checks the routing hash: total coverage,
// stable assignment, and no pathologically empty shard for sequential ids.
func TestShardOfDistribution(t *testing.T) {
	const n, ids = 8, 10000
	var counts [n]int
	for id := uint64(0); id < ids; id++ {
		s := ShardOf(id, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardOf(%d, %d) = %d", id, n, s)
		}
		if s != ShardOf(id, n) {
			t.Fatalf("ShardOf unstable for id %d", id)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < ids/n/2 || c > ids/n*2 {
			t.Fatalf("shard %d holds %d of %d sequential ids — hash is skewed", s, c, ids)
		}
	}
	if ShardOf(123, 1) != 0 || ShardOf(123, 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
}

// TestBuildShardedSharedStore covers the single-store construction path
// (one reader serving every shard's tree, as OpenIndex uses).
func TestBuildShardedSharedStore(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 9))
	objs := makeObjects(rng, 40, 10, 12, 8)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(ms, 4, Options{MinEntries: 2, MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sx.Len() != len(objs) {
		t.Fatalf("Len = %d, want %d", sx.Len(), len(objs))
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	single := buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 6})
	q := makeQuery(rng, 12, 12, 8)
	want, _, err := single.LinearScanAKNN(q, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sx.AKNN(q, 5, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, got, want, "shared-store sharded AKNN")

	if _, err := BuildSharded(ms, 0, Options{}); err == nil {
		t.Fatal("BuildSharded(0) accepted")
	}
}

// TestShardedConcurrentQueriesDuringMutation exercises the coordinator
// under live churn; run with -race. Every query must succeed against a
// consistent per-shard snapshot.
func TestShardedConcurrentQueriesDuringMutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 4))
	objs := makeObjects(rng, 60, 8, 12, 8)
	sx := buildShardedOver(t, objs, 4, Options{MinEntries: 2, MaxEntries: 6})
	queries := make([]*fuzzy.Object, 4)
	for i := range queries {
		queries[i] = makeQuery(rng, 8, 12, 8)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(q *fuzzy.Object) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := sx.AKNN(q, 5, 0.5, LBLPUB); err != nil {
					errs <- err
					return
				}
				if _, _, err := sx.RKNN(q, 3, 0.3, 0.7, RSSICR); err != nil {
					errs <- err
					return
				}
				if _, _, err := sx.RangeSearch(q, 0.5, 5); err != nil {
					errs <- err
					return
				}
			}
		}(queries[w])
	}
	live := append([]uint64(nil), func() []uint64 {
		ids := make([]uint64, len(objs))
		for i, o := range objs {
			ids[i] = o.ID()
		}
		return ids
	}()...)
	next := uint64(100000)
	for op := 0; op < 300; op++ {
		if len(live) == 0 || rng.Float64() < 0.55 {
			o := makeObjectsWithBase(rng, next, 1, 8, 12, 8)[0]
			next++
			if _, err := Insert(sx, o); err != nil {
				t.Fatal(err)
			}
			live = append(live, o.ID())
		} else {
			i := rng.IntN(len(live))
			if _, err := Delete(sx, live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTieDeterminismAcrossLayouts pins the satellite fix: equal-distance
// ties resolve by object id, so differently built trees (bulk vs
// incremental, different fanout) and different shard counts all emit the
// same refined answers byte for byte. Duplicated point sets manufacture
// hard ties.
func TestTieDeterminismAcrossLayouts(t *testing.T) {
	rng := rand.New(rand.NewPCG(123, 7))
	base := makeObjects(rng, 20, 8, 6, 4) // tiny space + coarse quantization: many ties
	// Clone several objects under new ids so exact distance ties are
	// guaranteed, not just likely.
	objs := append([]*fuzzy.Object(nil), base...)
	for i, o := range base[:10] {
		objs = append(objs, fuzzy.MustNew(uint64(1000+i), o.WeightedPoints()))
	}
	layouts := []*Index{
		buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 4}),
		buildIndex(t, objs, Options{MinEntries: 4, MaxEntries: 10}),
		buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 4, Incremental: true}),
	}
	shardLayouts := []*ShardedIndex{
		buildShardedOver(t, objs, 2, Options{MinEntries: 2, MaxEntries: 4}),
		buildShardedOver(t, objs, 5, Options{MinEntries: 2, MaxEntries: 4, Incremental: true}),
	}
	for qi := 0; qi < 4; qi++ {
		q := makeQuery(rng, 8, 6, 4)
		for _, k := range []int{1, 3, 12} {
			want, _, err := layouts[0].LinearScanAKNN(q, k, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			for li, ix := range layouts {
				for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					res, _, err := ix.AKNN(q, k, 0.5, algo)
					if err != nil {
						t.Fatal(err)
					}
					refined, _, err := ix.Refine(q, 0.5, res)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(refined, want) && (len(refined) > 0 || len(want) > 0) {
						t.Fatalf("layout %d %v k=%d: ids diverge under ties\n got %+v\nwant %+v",
							li, algo, k, refined, want)
					}
				}
			}
			for si, sx := range shardLayouts {
				for _, algo := range []AKNNAlgorithm{Basic, LBLPUB} {
					got, _, err := sx.AKNN(q, k, 0.5, algo)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
						t.Fatalf("shard layout %d %v k=%d: ids diverge under ties\n got %+v\nwant %+v",
							si, algo, k, got, want)
					}
				}
			}
		}
	}
}

// movingObject is the geometry a cross-shard move carries between its two
// ids: a small blob far from makeObjects' square, so that a query with the
// same points finds it at distance 0 and nothing else near.
func movingObject(id uint64) *fuzzy.Object {
	return fuzzy.MustNew(id, []fuzzy.WeightedPoint{
		{P: []float64{100, 100}, Mu: 1},
		{P: []float64{100.5, 100}, Mu: 0.6},
		{P: []float64{100, 100.5}, Mu: 0.3},
	})
}

// TestShardedBatchIsOneSnapshot moves one object between two shards, one
// ApplyBatch per step: delete id a in shard 0 and insert the same geometry
// as id b in shard 1, then back. Every concurrent read — a range search
// around it, a k = 1 AKNN, an RKNN and a distance join — must see exactly
// one copy. A shard-by-shard publish shows zero or two to about one read in
// three; run with -race.
func TestShardedBatchIsOneSnapshot(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2))
	sx := buildShardedOver(t, makeObjects(rng, 40, 8, 12, 8), 2, Options{})
	a, b := uint64(1000), uint64(1001)
	for ShardOf(a, 2) != 0 {
		a++
	}
	for b = a + 1; ShardOf(b, 2) != 1; b++ {
	}
	if _, err := Insert(sx, movingObject(a)); err != nil {
		t.Fatal(err)
	}
	q := movingObject(0)
	probe := buildIndex(t, []*fuzzy.Object{movingObject(1)}, Options{})

	// oneCopy reports what is wrong with the ids a read found near q.
	oneCopy := func(kind string, ids []uint64, err error) string {
		switch {
		case err != nil:
			return kind + ": " + err.Error()
		case len(ids) != 1 || ids[0] != a && ids[0] != b:
			return fmt.Sprintf("%s saw %v, want exactly one of %d and %d", kind, ids, a, b)
		}
		return ""
	}
	reads := []func() string{
		func() string {
			rs, _, err := sx.RangeSearch(q, 0.5, 1)
			var ids []uint64
			for _, r := range rs {
				ids = append(ids, r.ID)
			}
			return oneCopy("range search", ids, err)
		},
		func() string {
			rs, _, err := sx.AKNN(q, 1, 0.5, LB)
			var ids []uint64
			for _, r := range rs {
				if r.Dist == 0 {
					ids = append(ids, r.ID)
				}
			}
			return oneCopy("AKNN", ids, err)
		},
		func() string {
			rs, _, err := sx.RKNN(q, 1, 0.3, 0.8, RSSICR)
			var ids []uint64
			for _, r := range rs {
				ids = append(ids, r.ID)
			}
			return oneCopy("RKNN", ids, err)
		},
		func() string {
			ps, _, err := DistanceJoin(probe, sx, 0.5, 1)
			var ids []uint64
			for _, p := range ps {
				ids = append(ids, p.RightID)
			}
			return oneCopy("distance join", ids, err)
		},
	}
	for _, read := range reads {
		if msg := read(); msg != "" {
			t.Fatalf("before any move: %s", msg)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []string
	counts := make([]int, len(reads))
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				msg := reads[i%len(reads)]()
				mu.Lock()
				counts[i%len(reads)]++
				if msg != "" && len(bad) < 5 {
					bad = append(bad, msg)
				}
				mu.Unlock()
			}
		}(r)
	}
	from, to := a, b
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); from, to = to, from {
		if _, err := sx.ApplyBatch([]*fuzzy.Object{movingObject(to)}, []uint64{from}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	for _, msg := range bad {
		t.Error(msg)
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("read %d never ran", i)
		}
	}
	t.Logf("reads by kind: %v", counts)
}
