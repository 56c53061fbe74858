package engine

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// commitSpy wraps a mutable store and records the size of every commit. It
// is how the coalescing tests observe that N queued engine requests really
// collapse into few store-level commits.
type commitSpy struct {
	*store.MemStore

	mu      sync.Mutex
	batches []int // one entry per ApplyBatch, the item count
}

func (s *commitSpy) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	s.mu.Lock()
	s.batches = append(s.batches, len(inserts)+len(deletes))
	s.mu.Unlock()
	return s.MemStore.ApplyBatch(inserts, deletes)
}

func (s *commitSpy) snapshot() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batches...)
}

// spyEnv builds an empty mutable index whose store-level commits are
// observable.
func spyEnv(t *testing.T) (*Engine, *commitSpy, *query.Index) {
	t.Helper()
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	spy := &commitSpy{MemStore: ms}
	ix, err := query.Build(spy, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(ix, Options{Parallelism: 2})
	t.Cleanup(eng.Close)
	return eng, spy, ix
}

func genObjects(t *testing.T, n int, seed uint64) []*fuzzy.Object {
	t.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = 8
	p.Seed = seed
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

// TestEngineCoalescesWrites: a DoBatch of N inserts must land in far fewer
// than N store commits — the write coalescer groups queued mutations —
// with every request succeeding and the index seeing all objects.
func TestEngineCoalescesWrites(t *testing.T) {
	eng, spy, ix := spyEnv(t)
	objs := genObjects(t, 500, 3)
	reqs := make([]Request, len(objs))
	for i, o := range objs {
		reqs[i] = Request{Kind: Insert, Obj: o}
	}
	for i, resp := range eng.DoBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("insert %d: %v", i, resp.Err)
		}
	}
	if ix.Len() != len(objs) {
		t.Fatalf("index has %d objects, want %d", ix.Len(), len(objs))
	}
	batches := spy.snapshot()
	if len(batches) >= len(objs)/4 {
		t.Fatalf("%d inserts took %d store commits; expected heavy coalescing", len(objs), len(batches))
	}
	var grouped int
	for _, n := range batches {
		grouped += n
	}
	if grouped != len(objs) {
		t.Fatalf("commit sizes sum to %d, want %d", grouped, len(objs))
	}
	t.Logf("%d inserts -> %d group commits (sizes %v)", len(objs), len(batches), batches)
}

// searcherSpy counts the commits the engine asks its index for.
type searcherSpy struct {
	query.Searcher
	applies atomic.Int64
}

func (s *searcherSpy) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) ([]query.Stats, error) {
	s.applies.Add(1)
	return s.Searcher.ApplyBatch(inserts, deletes)
}

// TestEngineLoneRequestCommitsOnce: a group of one has nothing to fall back
// to — its rejection already is the request's verdict — so a lone invalid
// insert is validated by exactly one ApplyBatch, and comes back as the
// item's own error rather than a *query.BatchError.
func TestEngineLoneRequestCommitsOnce(t *testing.T) {
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := query.Build(ms, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spy := &searcherSpy{Searcher: ix}
	eng := New(spy, Options{Parallelism: 1})
	defer eng.Close()
	objs := genObjects(t, 2, 13)
	ctx := context.Background()

	if resp := eng.Do(ctx, Request{Kind: Insert, Obj: objs[0]}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if got := spy.applies.Swap(0); got != 1 {
		t.Fatalf("a lone valid insert cost %d ApplyBatch calls, want 1", got)
	}
	resp := eng.Do(ctx, Request{Kind: Insert, Obj: objs[0]})
	var be *query.BatchError
	if !errors.Is(resp.Err, store.ErrDuplicate) || errors.As(resp.Err, &be) {
		t.Fatalf("lone duplicate insert: %v, want the item's own ErrDuplicate", resp.Err)
	}
	if got := spy.applies.Swap(0); got != 1 {
		t.Fatalf("a lone invalid insert cost %d ApplyBatch calls, want 1", got)
	}
	resp = eng.Do(ctx, Request{Kind: Delete, ID: 1 << 40})
	if !errors.Is(resp.Err, store.ErrNotFound) || errors.As(resp.Err, &be) {
		t.Fatalf("lone delete of an unknown id: %v, want the item's own ErrNotFound", resp.Err)
	}
	if got := spy.applies.Swap(0); got != 1 {
		t.Fatalf("a lone invalid delete cost %d ApplyBatch calls, want 1", got)
	}
}

// TestEngineCoalescedStatsPerRequest: a group of inserts followed by
// deletes, handed to executeWrites as one, books each request the stats of
// its own item of the group's ApplyBatch: no object access per insert and
// one, the locate probe, per delete.
func TestEngineCoalescedStatsPerRequest(t *testing.T) {
	eng, _, ix := spyEnv(t)
	objs := genObjects(t, 6, 17)
	if _, err := ix.ApplyBatch(objs[3:], nil); err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, o := range objs[:3] {
		reqs = append(reqs, Request{Kind: Insert, Obj: o})
	}
	for _, o := range objs[3:] {
		reqs = append(reqs, Request{Kind: Delete, ID: o.ID()})
	}
	group, resps, done := make([]job, len(reqs)), make([]Response, len(reqs)), make(chan struct{}, len(reqs))
	for i, r := range reqs {
		group[i] = job{ctx: context.Background(), req: r, resp: &resps[i], state: new(atomic.Int32), done: done, start: time.Now()}
	}
	eng.executeWrites(group)
	for i, resp := range resps {
		want := 0
		if reqs[i].Kind == Delete {
			want = 1
		}
		if resp.Err != nil || resp.Stats.ObjectAccesses != want {
			t.Errorf("item %d of the group (kind %v): %v, %d object accesses, want %d", i, reqs[i].Kind, resp.Err, resp.Stats.ObjectAccesses, want)
		}
	}
}

// TestEngineFallbackDegradedOnFsyncFailure: a valid insert coalesced with
// an invalid groupmate is committed alone by the fallback — and that commit
// must be as durable as any other. With every log fsync failing, the valid
// request fails with store.ErrFailed under both names of the syncing policy
// ("batch" used to leave the fallback's single append unsynced and
// acknowledge it), the index degrades, and a reopen does not serve the
// object.
func TestEngineFallbackDegradedOnFsyncFailure(t *testing.T) {
	for name, policy := range map[string]store.SyncPolicy{"always": store.SyncAlways, "batch": store.SyncBatch} {
		t.Run(name, func(t *testing.T) {
			defer fault.Reset()
			path := filepath.Join(t.TempDir(), "objects.fzl")
			ls, err := store.OpenLogPolicy(path, 2, policy)
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			objs := genObjects(t, 2, 11)
			dup, valid := objs[0], objs[1]
			if err := ls.ApplyBatch([]*fuzzy.Object{dup}, nil); err != nil {
				t.Fatal(err)
			}
			ix, err := query.Build(ls, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng := New(ix, Options{Parallelism: 1})
			defer eng.Close()

			fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError})
			// One drained group, handed to the writer's commit step directly
			// so the two requests are certain to share it.
			resps := make([]Response, 2)
			states := make([]atomic.Int32, 2)
			done := make(chan struct{}, 2)
			group := make([]job, 2)
			for i, o := range []*fuzzy.Object{dup, valid} {
				group[i] = job{ctx: context.Background(), req: Request{Kind: Insert, Obj: o}, resp: &resps[i], state: &states[i], done: done, start: time.Now()}
			}
			eng.executeWrites(group)
			<-done
			<-done
			fault.Reset()

			if !errors.Is(resps[0].Err, store.ErrDuplicate) {
				t.Errorf("duplicate insert: %v, want ErrDuplicate", resps[0].Err)
			}
			if !errors.Is(resps[1].Err, store.ErrFailed) {
				t.Errorf("valid insert over a failing fsync: %v, want ErrFailed — it was acknowledged without being durable", resps[1].Err)
			}
			if ix.Degraded() == nil {
				t.Error("index not degraded after the failed fsync")
			}
			if err := ls.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := store.OpenLogPolicy(path, 0, store.SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if live, _ := r.Live(valid.ID()); live {
				t.Errorf("object %d is live after reopen; its commit was refused", valid.ID())
			}
			if live, _ := r.Live(dup.ID()); !live {
				t.Errorf("object %d, committed before the fault, is gone after reopen", dup.ID())
			}
		})
	}
}
