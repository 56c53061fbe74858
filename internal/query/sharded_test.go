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

// This file pins what the sharded coordinator adds beyond answers and
// their cost (which FuzzConformance in the root package checks against a
// single tree and a scan for every history): argument validation, the
// routing hash, the shared-store build, tie order across layouts, and
// readers that see each batch whole.

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
