package query

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// This file pins what the sharded coordinator adds beyond answers and
// their cost (which FuzzConformance in the root package checks against a
// single tree and a scan for every history): argument validation, the
// routing hash, the shared-store build and tie order across layouts.
// Readers that see each batch whole are equivalence_test.go's race
// replays.

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
	if got, _, err = sx.Refine(q, 0.5, got); err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, got, want, "shared-store sharded AKNN")

	if _, err := BuildSharded(ms, 0, Options{}); err == nil {
		t.Fatal("BuildSharded(0) accepted")
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
	layouts := []Searcher{
		buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 4}),
		buildIndex(t, objs, Options{MinEntries: 4, MaxEntries: 10}),
		buildIndex(t, objs, Options{MinEntries: 2, MaxEntries: 4, Incremental: true}),
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
		}
	}
}
