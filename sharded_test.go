package fuzzyknn

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// shardedPair builds a single-tree and a 4-shard index over the same
// objects.
func shardedPair(t *testing.T, objs []*Object) (*Index, *Index) {
	t.Helper()
	single, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewIndex(objs, &Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

// mustCostLikeSingle requires a sharded AKNN, RKNN (each algorithm, run as
// named) and range search to probe exactly as many objects as the single
// tree's over the same population (for AKNN its non-lazy search), counted
// where the stores count them.
func mustCostLikeSingle(t *testing.T, label string, single, sharded *Index, q *Object, k int) {
	t.Helper()
	queries := map[string]func(*Index) error{
		"range": func(ix *Index) error { _, _, err := ix.RangeSearch(q, 0.5, 4); return err },
	}
	for _, algo := range []AKNNAlgorithm{Basic, LB} {
		queries[algo.String()] = func(ix *Index) error { _, _, err := ix.AKNN(q, k, 0.5, algo); return err }
	}
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		queries[algo.String()] = func(ix *Index) error { _, _, err := ix.RKNN(q, k, 0.3, 0.8, algo); return err }
	}
	for name, query := range queries {
		cost := func(ix *Index) int64 {
			before := ix.TotalObjectAccesses()
			if err := query(ix); err != nil {
				t.Fatalf("%s/%s: %v", label, name, err)
			}
			return ix.TotalObjectAccesses() - before
		}
		if want, got := cost(single), cost(sharded); got != want || got == 0 {
			t.Fatalf("%s/%s: sharded probed %d objects, the single tree %d", label, name, got, want)
		}
	}
}

// TestPublicShardedMatchesSingle drives the public API end to end: every
// query family answers byte-identically on shards=4 and shards=1,
// including after mirrored mutations.
func TestPublicShardedMatchesSingle(t *testing.T) {
	objs, q := smallDataset(t, 80, 5)
	single, sharded := shardedPair(t, objs)
	defer single.Close()
	defer sharded.Close()

	if sharded.NumShards() != 4 || single.NumShards() != 1 {
		t.Fatalf("NumShards: sharded %d, single %d", sharded.NumShards(), single.NumShards())
	}
	if sharded.Len() != single.Len() || sharded.Dims() != single.Dims() {
		t.Fatalf("population: sharded %d/%dd, single %d/%dd",
			sharded.Len(), sharded.Dims(), single.Len(), single.Dims())
	}

	check := func(label string) {
		t.Helper()
		want, _, err := single.LinearScanAKNN(q, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
			got, _, err := sharded.AKNN(q, 8, 0.5, algo)
			if err != nil {
				t.Fatalf("%s/%v: %v", label, algo, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: sharded AKNN diverges\n got %+v\nwant %+v", label, algo, got, want)
			}
		}
		mustCostLikeSingle(t, label, single, sharded, q, 8)
		wantR, _, err := single.RKNN(q, 5, 0.3, 0.8, RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
			gotR, _, err := sharded.RKNN(q, 5, 0.3, 0.8, algo)
			if err != nil {
				t.Fatalf("%s/%v: %v", label, algo, err)
			}
			if len(gotR) != len(wantR) {
				t.Fatalf("%s/%v: %d ranged results, want %d", label, algo, len(gotR), len(wantR))
			}
			for i := range gotR {
				if gotR[i].ID != wantR[i].ID ||
					gotR[i].Qualifying.String() != wantR[i].Qualifying.String() {
					t.Fatalf("%s/%v: ranged result %d diverges: %d %s vs %d %s", label, algo, i,
						gotR[i].ID, gotR[i].Qualifying.String(), wantR[i].ID, wantR[i].Qualifying.String())
				}
			}
		}
		wantRange, _, err := single.RangeSearch(q, 0.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotRange, _, err := sharded.RangeSearch(q, 0.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRange, wantRange) && (len(gotRange) > 0 || len(wantRange) > 0) {
			t.Fatalf("%s: range search diverges", label)
		}
		wantRev, _, err := single.ReverseKNN(q, 4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		gotRev, _, err := sharded.ReverseKNN(q, 4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRev, wantRev) && (len(gotRev) > 0 || len(wantRev) > 0) {
			t.Fatalf("%s: reverse kNN diverges", label)
		}
		wantE, _, err := single.ExpectedDistKNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		gotE, _, err := sharded.ExpectedDistKNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("%s: expected-distance kNN diverges", label)
		}
	}
	check("fresh")

	// The same objects as trees over one shared store file.
	path := filepath.Join(t.TempDir(), "objects.fzs")
	if err := SaveObjects(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenIndex(path, &Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	mustCostLikeSingle(t, "shared store file", single, opened, q, 8)

	// Mirrored churn through the public mutation API.
	extra, _ := smallDataset(t, 30, 77)
	for i, o := range extra {
		obj, err := NewObject(uint64(10000+i), o.WeightedPoints())
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Insert(obj); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(obj); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:40] {
		if err := single.Delete(o.ID()); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Delete(o.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if sharded.Len() != single.Len() {
		t.Fatalf("after churn: sharded %d, single %d", sharded.Len(), single.Len())
	}
	check("churned")

	// Per-shard diagnostics: object counts must sum to the population and
	// accesses must land on shards.
	info := sharded.ShardInfo()
	if len(info) != 4 {
		t.Fatalf("ShardInfo has %d entries", len(info))
	}
	total, accesses := 0, int64(0)
	for _, sh := range info {
		total += sh.Objects
		accesses += sh.ObjectAccesses
	}
	if total != sharded.Len() {
		t.Fatalf("ShardInfo objects sum %d, Len %d", total, sharded.Len())
	}
	if accesses != sharded.TotalObjectAccesses() || accesses == 0 {
		t.Fatalf("ShardInfo accesses sum %d, total %d", accesses, sharded.TotalObjectAccesses())
	}

	// Joins through the public API.
	wantJ, _, err := DistanceJoin(single, single, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotJ, _, err := DistanceJoin(sharded, sharded, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJ, wantJ) && (len(gotJ) > 0 || len(wantJ) > 0) {
		t.Fatal("sharded self-join diverges")
	}
	wantP, _, err := KClosestPairs(single, sharded, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantP) != 5 {
		t.Fatalf("mixed-layout closest pairs returned %d", len(wantP))
	}
}

// TestPublicShardedEngine runs sharded indexes through the batch engine
// and checks a mixed batch behaves like the single-tree engine path.
func TestPublicShardedEngine(t *testing.T) {
	objs, q := smallDataset(t, 60, 9)
	single, sharded := shardedPair(t, objs)
	defer single.Close()
	defer sharded.Close()
	engS := single.NewEngine(&EngineConfig{Parallelism: 2})
	defer engS.Close()
	engX := sharded.NewEngine(&EngineConfig{Parallelism: 2})
	defer engX.Close()

	queries := []*Object{q, q, q}
	want, _, err := engS.BatchAKNN(context.Background(), queries, 6, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := engX.BatchAKNN(context.Background(), queries, 6, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		refined, _, err := single.Refine(q, 0.5, want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], refined) {
			t.Fatalf("batch %d: sharded engine diverges", i)
		}
	}

	// Mutations through the engine route to shards.
	obj, err := NewObject(777777, q.WeightedPoints())
	if err != nil {
		t.Fatal(err)
	}
	if errs, err := engX.BatchInsert(context.Background(), []*Object{obj}); err != nil || errs[0] != nil {
		t.Fatalf("engine insert: %v %v", err, errs)
	}
	if got := sharded.Len(); got != 61 {
		t.Fatalf("Len after engine insert = %d", got)
	}
	if errs, err := engX.BatchDelete(context.Background(), []uint64{777777}); err != nil || errs[0] != nil {
		t.Fatalf("engine delete: %v %v", err, errs)
	}
}

// TestPublicShardedLogIndex covers the one-log-per-shard durable layout:
// create, mutate, close, reopen, byte-identical answers to a single-tree
// log reopened from equivalent history.
func TestPublicShardedLogIndex(t *testing.T) {
	objs, q := smallDataset(t, 50, 13)
	dir := t.TempDir()
	pathX := filepath.Join(dir, "sharded.fzl")
	pathS := filepath.Join(dir, "single.fzl")

	open := func() (*Index, *Index) {
		sharded, err := OpenLogIndex(pathX, 2, &Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		single, err := OpenLogIndex(pathS, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return single, sharded
	}
	single, sharded := open()
	for _, o := range objs {
		if err := single.Insert(o); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range objs[:20] {
		if err := single.Delete(o.ID()); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Delete(o.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	single, sharded = open()
	defer single.Close()
	defer sharded.Close()
	if sharded.Len() != 30 || single.Len() != 30 {
		t.Fatalf("reopened Len: sharded %d, single %d", sharded.Len(), single.Len())
	}
	want, _, err := single.LinearScanAKNN(q, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sharded.AKNN(q, 10, 0.5, LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened sharded log diverges\n got %+v\nwant %+v", got, want)
	}
	mustCostLikeSingle(t, "reopened log", single, sharded, q, 10)
}
