package fuzzyknn

import (
	"context"
	"reflect"
	"testing"
)

// TestPublicShardedEngine runs sharded indexes through the batch engine
// and checks a mixed batch behaves like the single-tree engine path.
func TestPublicShardedEngine(t *testing.T) {
	objs, q := smallDataset(t, 60, 9)
	single, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewIndex(objs, &Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
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
		shardRefined, _, err := sharded.Refine(q, 0.5, got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shardRefined, refined) {
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
