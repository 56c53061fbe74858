package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

func randObj(t *testing.T, rng *rand.Rand, id uint64) *fuzzy.Object {
	t.Helper()
	pts := make([]fuzzy.WeightedPoint, 3)
	for i := range pts {
		mu := 0.2 + 0.8*rng.Float64()
		if i == 0 {
			mu = 1 // the kernel must be non-empty
		}
		pts[i] = fuzzy.WeightedPoint{
			P:  geom.Point{rng.Float64() * 100, rng.Float64() * 100},
			Mu: mu,
		}
	}
	o, err := fuzzy.New(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// newLogEngine builds an engine over a log-backed index.
func newLogEngine(t *testing.T, opts Options) (*Engine, *store.LogStore) {
	t.Helper()
	ls, err := store.OpenLogPolicy(filepath.Join(t.TempDir(), "objects.fzl"), 2, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := query.Build(ls, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(ix, opts)
	t.Cleanup(func() {
		eng.Close()
		ls.Close()
	})
	return eng, ls
}

// TestEngineCheckpoint drives an explicit checkpoint through the engine and
// checks it lands in the totals.
func TestEngineCheckpoint(t *testing.T) {
	eng, ls := newLogEngine(t, Options{Parallelism: 2})
	rng := rand.New(rand.NewPCG(1, 1))
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Kind: Insert, Obj: randObj(t, rng, uint64(i+1))}
	}
	for _, r := range eng.DoBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	infos, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Generation != 1 || infos[0].Objects != 8 {
		t.Fatalf("infos = %+v", infos)
	}
	if got, _ := ls.CheckpointInfo(); got.Generation != 1 || got.LogSeq != 1 {
		t.Fatalf("store checkpoint state = %+v", got)
	}
	if got := eng.Totals().Requests["checkpoint"]; got != 1 {
		t.Fatalf("checkpoint totals = %d", got)
	}
}

// TestEngineCheckpointEvery exercises the periodic trigger: with
// CheckpointEvery of 1, every committed write group is followed by a
// checkpoint.
func TestEngineCheckpointEvery(t *testing.T) {
	eng, ls := newLogEngine(t, Options{Parallelism: 2, CheckpointEvery: 1})
	rng := rand.New(rand.NewPCG(2, 2))
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Kind: Insert, Obj: randObj(t, rng, uint64(i+1))}
	}
	for _, r := range eng.DoBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// The trigger fires after the group's requests are answered, so poll
	// both the store state and the engine's accounting of it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, _ := ls.CheckpointInfo()
		if info.Generation >= 1 && eng.Totals().Requests["checkpoint"] >= 1 {
			if info.Objects == 0 {
				t.Fatalf("periodic checkpoint is empty: %+v", info)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("periodic checkpoint never fired (info %+v)", info)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineCheckpointUnsupported maps a mem-backed index onto
// ErrUnsupported rather than a panic or a silent no-op.
func TestEngineCheckpointUnsupported(t *testing.T) {
	env := newTestEnv(t, 50, 1)
	eng := New(env.ix, Options{Parallelism: 2})
	defer eng.Close()
	if _, err := eng.Checkpoint(); !errors.Is(err, store.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if eng.Totals().Failures == 0 {
		t.Fatal("failed checkpoint not counted")
	}
}

// TestEngineCheckpointBesideWrites: the periodic checkpoint runs beside
// the writer, so a write submitted while it streams its snapshot is
// answered before the checkpoint ends, and a trigger that finds it still
// running is skipped.
func TestEngineCheckpointBesideWrites(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	ls, err := store.OpenLogPolicy(filepath.Join(dir, "objects.fzl"), 2, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	ix, err := query.Build(ls, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(ix, Options{Parallelism: 2, CheckpointEvery: 1})
	defer eng.Close()

	const stall = 3 * time.Second
	fault.Enable("store.ckpt.write", fault.Spec{Action: fault.ActStall, Nth: 1, Stall: stall})
	rng := rand.New(rand.NewPCG(3, 3))
	insert := func(id uint64) {
		t.Helper()
		if r := eng.Do(context.Background(), Request{Kind: Insert, Obj: randObj(t, rng, id)}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	insert(1)
	// The trigger fired after that group: wait until its snapshot is being
	// written, which the armed point stalls.
	tmp := filepath.Join(dir, "objects.fzl.ckpt-1.tmp")
	for deadline := time.Now().Add(stall / 2); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(tmp); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the periodic checkpoint never started its snapshot")
		}
	}
	start := time.Now()
	insert(2)
	if info, _ := ls.CheckpointInfo(); info.Generation != 0 {
		t.Fatalf("the write waited %v, for the checkpoint to commit", time.Since(start))
	}
	eng.Close()
	if info, _ := ls.CheckpointInfo(); info.Generation != 1 {
		t.Fatalf("after Close: checkpoint generation %d, want 1 (the second trigger is skipped)", info.Generation)
	}
	if got := eng.Totals().Requests["checkpoint"]; got != 1 {
		t.Fatalf("%d checkpoints ran, want 1", got)
	}
}
