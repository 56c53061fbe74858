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

// TestEngineCoalesceFallback: a group holding invalid requests must report
// each failure individually while every valid groupmate still lands —
// batching must not change any request's verdict.
func TestEngineCoalesceFallback(t *testing.T) {
	eng, _, ix := spyEnv(t)
	objs := genObjects(t, 40, 5)
	seed := make([]Request, 20)
	for i := 0; i < 20; i++ {
		seed[i] = Request{Kind: Insert, Obj: objs[i]}
	}
	for i, resp := range eng.DoBatch(context.Background(), seed) {
		if resp.Err != nil {
			t.Fatalf("seed insert %d: %v", i, resp.Err)
		}
	}

	// A mixed batch: valid inserts, duplicate inserts, valid deletes,
	// deletes of unknown ids — all queued together so the writer drains
	// them as one group.
	var reqs []Request
	var wantErr []bool
	for i := 20; i < 40; i++ {
		reqs = append(reqs, Request{Kind: Insert, Obj: objs[i]})
		wantErr = append(wantErr, false)
		if i%3 == 0 {
			reqs = append(reqs, Request{Kind: Insert, Obj: objs[i-20]}) // duplicate id
			wantErr = append(wantErr, true)
		}
		if i%4 == 0 {
			reqs = append(reqs, Request{Kind: Delete, ID: objs[i-20].ID()})
			wantErr = append(wantErr, false)
		}
		if i%5 == 0 {
			reqs = append(reqs, Request{Kind: Delete, ID: 1 << 40}) // unknown
			wantErr = append(wantErr, true)
		}
	}
	resps := eng.DoBatch(context.Background(), reqs)
	for i, resp := range resps {
		if (resp.Err != nil) != wantErr[i] {
			t.Fatalf("request %d (%v): err=%v, want failure=%v", i, reqs[i].Kind, resp.Err, wantErr[i])
		}
	}
	for i, resp := range resps {
		if resp.Err == nil {
			continue
		}
		if !errors.Is(resp.Err, store.ErrDuplicate) && !errors.Is(resp.Err, store.ErrNotFound) {
			t.Fatalf("request %d failed with %v, want a duplicate/not-found verdict", i, resp.Err)
		}
	}
	// Net population: 20 seed + 20 inserts - 5 deletes (i%4: 20,24,28,32,36).
	if want := 35; ix.Len() != want {
		t.Fatalf("index has %d objects, want %d", ix.Len(), want)
	}
	totals := eng.Totals()
	if totals.Failures == 0 {
		t.Fatal("failed requests not counted")
	}
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
			r, err := store.OpenLog(path, 0)
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

// TestEngineCoalesceAccounting: with deletes flowing through group commits
// (each charging its locate probe), the store's raw access counter must
// still equal the engine's summed per-request stats — including rejected
// groups that fell back to per-op application.
func TestEngineCoalesceAccounting(t *testing.T) {
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(ms)
	ix, err := query.Build(counting, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	eng := New(ix, Options{Parallelism: 3})
	defer eng.Close()

	objs := genObjects(t, 120, 7)
	var reqs []Request
	for _, o := range objs {
		reqs = append(reqs, Request{Kind: Insert, Obj: o})
	}
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{Kind: Delete, ID: objs[i].ID()})
	}
	for _, resp := range eng.DoBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("mutation failed: %v", resp.Err)
		}
	}
	// Second wave mixes failures in (duplicates and dead ids) so the
	// fallback path's accounting is exercised too, plus queries.
	var wave []Request
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			wave = append(wave, Request{Kind: Insert, Obj: objs[i]}) // dup or re-insert
		case 1:
			wave = append(wave, Request{Kind: Delete, ID: objs[i].ID()}) // maybe dead
		default:
			wave = append(wave, Request{Kind: AKNN, Q: objs[60], K: 3, Alpha: 0.5, AKNNAlgo: query.LBLPUB})
		}
	}
	eng.DoBatch(context.Background(), wave)

	totals := eng.Totals()
	if got, want := counting.Count(), int64(totals.Stats.ObjectAccesses); got != want {
		t.Fatalf("store saw %d accesses, engine accounted %d — the invariant must hold under coalescing and fallback", got, want)
	}
}

// TestEngineInterleavedReadsAndWrites race-checks the split queues: query
// workers and the write coalescer run concurrently against one index.
func TestEngineInterleavedReadsAndWrites(t *testing.T) {
	eng, _, ix := spyEnv(t)
	objs := genObjects(t, 200, 9)
	seed := make([]Request, 50)
	for i := range seed {
		seed[i] = Request{Kind: Insert, Obj: objs[i]}
	}
	for _, resp := range eng.DoBatch(context.Background(), seed) {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var reqs []Request
			for i := 50 + w; i < 200; i += 4 {
				reqs = append(reqs, Request{Kind: Insert, Obj: objs[i]})
				reqs = append(reqs, Request{Kind: AKNN, Q: objs[w], K: 2, Alpha: 0.5, AKNNAlgo: query.LBLPUB})
			}
			for i, resp := range eng.DoBatch(context.Background(), reqs) {
				if resp.Err != nil {
					t.Errorf("worker %d request %d: %v", w, i, resp.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 200 {
		t.Fatalf("index has %d objects, want 200", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
