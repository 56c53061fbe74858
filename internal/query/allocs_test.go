package query

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"fuzzyknn/internal/fuzzy"
)

// The zero-allocation pins. The tentpole property of the scratch-pooled
// query path is that a steady-state query — same shapes as the previous
// one, buffers warm, result destination reused — performs no heap
// allocations at all. testing.AllocsPerRun pins that at exactly 0 for the
// AKNN loop (all four variants), the α-range search and the RKNN RSS
// variants; any future per-visit allocation sneaking into the hot path
// fails these tests rather than silently eroding throughput.

// allocEnv builds a small fixed workload for the pins. The pins skip under
// -race: the race runtime deliberately randomizes sync.Pool reuse (puts are
// dropped to surface races), so pooled scratch cannot stay warm there.
func allocEnv(t *testing.T) (*Index, *fuzzy.Object) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race (sync.Pool reuse is randomized)")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	objs := makeObjects(rng, 300, 32, 10, 8)
	ix := buildIndex(t, objs, Options{})
	return ix, makeQuery(rng, 32, 10, 8)
}

func TestAKNNSteadyStateZeroAllocs(t *testing.T) {
	ix, q := allocEnv(t)
	for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
		t.Run(algo.String(), func(t *testing.T) {
			var dst []Result
			warm := func() {
				var err error
				dst, _, err = ix.AKNNAppend(dst[:0], q, 8, 0.5, algo)
				if err != nil {
					t.Fatal(err)
				}
			}
			// Warm the scratch pool and the destination buffer to the
			// workload's high-water mark.
			for i := 0; i < 3; i++ {
				warm()
			}
			if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
				t.Fatalf("steady-state AKNN (%v): %v allocs/op, want 0", algo, allocs)
			}
		})
	}
}

func TestRangeSearchSteadyStateZeroAllocs(t *testing.T) {
	ix, q := allocEnv(t)
	var dst []Result
	warm := func() {
		var err error
		dst, _, err = ix.RangeSearchAppend(dst[:0], q, 0.5, 2.0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		warm()
	}
	if len(dst) == 0 {
		t.Fatal("range search found nothing; radius too small for the pin to mean anything")
	}
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Fatalf("steady-state range search: %v allocs/op, want 0", allocs)
	}
}

func TestRKNNSteadyStateZeroAllocs(t *testing.T) {
	ix, q := allocEnv(t)
	for _, algo := range []RKNNAlgorithm{RSS, RSSICR} {
		t.Run(algo.String(), func(t *testing.T) {
			var dst []RangedResult
			warm := func() {
				var err error
				dst, _, err = ix.RKNNAppend(dst[:0], q, 8, 0.4, 0.6, algo)
				if err != nil {
					t.Fatal(err)
				}
			}
			// The first runs pay the (object, query) profile constructions;
			// the steady state serves them from the scratch's profile cache.
			for i := 0; i < 3; i++ {
				warm()
			}
			if len(dst) == 0 {
				t.Fatal("RKNN returned nothing; pin is vacuous")
			}
			if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
				t.Fatalf("steady-state RKNN (%v): %v allocs/op, want 0", algo, allocs)
			}
		})
	}
}

// TestShardedAKNNAllocsIndependentOfShards pins what one search over the
// forest of shard trees buys: a steady-state sharded AKNN allocates its
// answer and nothing else, at 2 and at 7 shards — the pinned views live in
// the scratch, and there is no goroutine, cursor or scratch per shard, each
// of which would show as allocations growing with the shard count — and the
// tag that routes a probe to its shard's store lives in pqItem's padding.
func TestShardedAKNNAllocsIndependentOfShards(t *testing.T) {
	if size := unsafe.Sizeof(pqItem{}); size != 48 {
		t.Fatalf("pqItem is %d bytes, want 48: the tree tag must not grow the heap element", size)
	}
	ix, q := allocEnv(t)
	var allocs [2]float64
	for i, shards := range []int{2, 7} {
		sx, err := BuildSharded(ix.Store(), shards, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, _, err := sx.AKNN(q, 8, 0.5, LB); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 3; j++ {
			run()
		}
		allocs[i] = testing.AllocsPerRun(50, run)
	}
	if allocs[0] != 1 || allocs[1] != 1 {
		t.Fatalf("steady-state sharded AKNN: %v allocs/op at 2 shards, %v at 7, want 1 (the answer) at both",
			allocs[0], allocs[1])
	}
}

// TestScratchReuseNoLeak drives many concurrent interleaved queries of
// different kinds through the shared scratch pool and checks every answer
// against a serial reference — under -race this doubles as the proof that
// pooled scratch never leaks state (results, maps, evaluator pins) across
// concurrent queries.
func TestScratchReuseNoLeak(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	objs := makeObjects(rng, 240, 24, 10, 8)
	ix := buildIndex(t, objs, Options{})

	const clients = 8
	queries := make([]*fuzzy.Object, clients)
	for i := range queries {
		queries[i] = makeQuery(rng, 24, 10, 8)
	}
	type ref struct {
		aknn []Result
		rng  []Result
		rknn []RangedResult
	}
	refs := make([]ref, clients)
	for i, q := range queries {
		var err error
		if refs[i].aknn, _, err = ix.AKNN(q, 6, 0.5, LBLPUB); err != nil {
			t.Fatal(err)
		}
		if refs[i].rng, _, err = ix.RangeSearch(q, 0.5, 2.0); err != nil {
			t.Fatal(err)
		}
		if refs[i].rknn, _, err = ix.RKNN(q, 6, 0.4, 0.6, RSSICR); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i]
			var dstA []Result
			var dstR []Result
			var dstK []RangedResult
			for iter := 0; iter < 30; iter++ {
				var err error
				// Reused destinations + pooled scratch, interleaved with
				// every other goroutine doing the same.
				if dstA, _, err = ix.AKNNAppend(dstA[:0], q, 6, 0.5, LBLPUB); err != nil {
					errs <- err
					return
				}
				if dstR, _, err = ix.RangeSearchAppend(dstR[:0], q, 0.5, 2.0); err != nil {
					errs <- err
					return
				}
				if dstK, _, err = ix.RKNNAppend(dstK[:0], q, 6, 0.4, 0.6, RSSICR); err != nil {
					errs <- err
					return
				}
				if err := equalResults(dstA, refs[i].aknn); err != nil {
					errs <- fmt.Errorf("client %d iter %d aknn: %w", i, iter, err)
					return
				}
				if err := equalResults(dstR, refs[i].rng); err != nil {
					errs <- fmt.Errorf("client %d iter %d range: %w", i, iter, err)
					return
				}
				if err := equalRanged(dstK, refs[i].rknn); err != nil {
					errs <- fmt.Errorf("client %d iter %d rknn: %w", i, iter, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func equalResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func equalRanged(got, want []RangedResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].Qualifying.Equal(want[i].Qualifying) {
			return fmt.Errorf("result %d = %v %v, want %v %v",
				i, got[i].ID, got[i].Qualifying, want[i].ID, want[i].Qualifying)
		}
	}
	return nil
}
