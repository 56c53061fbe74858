package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// testEnv is one shared index with its access counter, plus query objects.
type testEnv struct {
	ix       *query.Index
	counting *store.Counting
	queries  []*fuzzy.Object
}

func newTestEnv(t testing.TB, n, numQueries int) *testEnv {
	t.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = 40
	p.Seed = 11
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(ms)
	ix, err := query.Build(counting, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	queries := make([]*fuzzy.Object, numQueries)
	for i := range queries {
		q, err := dataset.GenerateQuery(p, i)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	return &testEnv{ix: ix, counting: counting, queries: queries}
}

// mixedRequests builds a deterministic batch cycling through all three
// request kinds, algorithms and parameters.
func mixedRequests(env *testEnv, rounds int) []Request {
	var reqs []Request
	aknnAlgos := []query.AKNNAlgorithm{query.Basic, query.LB, query.LBLP, query.LBLPUB}
	rknnAlgos := []query.RKNNAlgorithm{query.BasicRKNN, query.RSS, query.RSSICR}
	for r := 0; r < rounds; r++ {
		for qi, q := range env.queries {
			switch (r + qi) % 3 {
			case 0:
				reqs = append(reqs, Request{
					Kind: AKNN, Q: q, K: 1 + (r+qi)%8,
					Alpha:    0.2 + 0.1*float64((r+qi)%7),
					AKNNAlgo: aknnAlgos[(r+qi)%len(aknnAlgos)],
				})
			case 1:
				reqs = append(reqs, Request{
					Kind: RKNN, Q: q, K: 1 + (r+qi)%5,
					AlphaStart: 0.3, AlphaEnd: 0.8,
					RKNNAlgo: rknnAlgos[(r+qi)%len(rknnAlgos)],
				})
			default:
				reqs = append(reqs, Request{
					Kind: RangeSearch, Q: q,
					Alpha: 0.5, Radius: 8 + float64((r+qi)%5),
				})
			}
		}
	}
	return reqs
}

// serialRun executes one request on the serial path (no engine).
func serialRun(ix *query.Index, r Request) Response {
	var resp Response
	switch r.Kind {
	case AKNN:
		resp.Results, resp.Stats, resp.Err = ix.AKNN(r.Q, r.K, r.Alpha, r.AKNNAlgo)
	case RKNN:
		resp.Ranged, resp.Stats, resp.Err = ix.RKNN(r.Q, r.K, r.AlphaStart, r.AlphaEnd, r.RKNNAlgo)
	case RangeSearch:
		resp.Results, resp.Stats, resp.Err = ix.RangeSearch(r.Q, r.Alpha, r.Radius)
	}
	return resp
}

func sameResponse(t *testing.T, i int, got, want Response) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("request %d: err = %v, want %v", i, got.Err, want.Err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("request %d: %d results, want %d", i, len(got.Results), len(want.Results))
	}
	for j := range got.Results {
		if got.Results[j] != want.Results[j] {
			t.Fatalf("request %d result %d: %+v, want %+v", i, j, got.Results[j], want.Results[j])
		}
	}
	if len(got.Ranged) != len(want.Ranged) {
		t.Fatalf("request %d: %d ranged results, want %d", i, len(got.Ranged), len(want.Ranged))
	}
	for j := range got.Ranged {
		if got.Ranged[j].ID != want.Ranged[j].ID ||
			!got.Ranged[j].Qualifying.Equal(want.Ranged[j].Qualifying) {
			t.Fatalf("request %d ranged %d: %+v, want %+v", i, j, got.Ranged[j], want.Ranged[j])
		}
	}
	if got.Stats.ObjectAccesses != want.Stats.ObjectAccesses {
		t.Fatalf("request %d: %d object accesses, want %d",
			i, got.Stats.ObjectAccesses, want.Stats.ObjectAccesses)
	}
}

// TestEngineMatchesSerial is the headline stress test: many goroutines fire
// mixed AKNN/RKNN/range batches through one engine; every response must
// match the single-threaded path, and the shared store's TotalObjectAccesses
// must equal the sum of per-request stats — i.e. concurrency changes neither
// answers nor the paper's cost accounting. Run with -race.
func TestEngineMatchesSerial(t *testing.T) {
	env := newTestEnv(t, 120, 9)
	reqs := mixedRequests(env, 6)

	want := make([]Response, len(reqs))
	for i, r := range reqs {
		want[i] = serialRun(env.ix, r)
		if want[i].Err != nil {
			t.Fatalf("serial request %d failed: %v", i, want[i].Err)
		}
	}
	serialAccesses := env.counting.Count()
	var serialSum int64
	for i := range want {
		serialSum += int64(want[i].Stats.ObjectAccesses)
	}
	if serialAccesses != serialSum {
		t.Fatalf("serial: store counted %d accesses, stats sum %d", serialAccesses, serialSum)
	}

	env.counting.Reset()
	eng := New(env.ix, Options{Parallelism: 8})
	defer eng.Close()

	// Several client goroutines share the engine, each submitting the whole
	// batch; every copy must come back identical to the serial reference.
	const clients = 4
	var wg sync.WaitGroup
	got := make([][]Response, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = eng.DoBatch(context.Background(), reqs)
		}(c)
	}
	wg.Wait()

	for c := 0; c < clients; c++ {
		for i := range got[c] {
			sameResponse(t, i, got[c][i], want[i])
		}
	}

	// Cost accounting must survive concurrency: the shared counter saw
	// exactly the accesses the per-request stats report.
	if gotTotal, wantTotal := env.counting.Count(), clients*serialSum; gotTotal != int64(wantTotal) {
		t.Fatalf("concurrent: store counted %d accesses, want %d", gotTotal, wantTotal)
	}

	totals := eng.Totals()
	if totals.Failures != 0 {
		t.Fatalf("unexpected failures: %d", totals.Failures)
	}
	var totalReqs int64
	for _, n := range totals.Requests {
		totalReqs += n
	}
	if want := int64(clients * len(reqs)); totalReqs != want {
		t.Fatalf("totals report %d requests, want %d", totalReqs, want)
	}
	if int64(totals.Stats.ObjectAccesses) != int64(clients)*serialSum {
		t.Fatalf("totals report %d object accesses, want %d",
			totals.Stats.ObjectAccesses, int64(clients)*serialSum)
	}
}

// TestEngineErrorIsolation checks a failing request does not poison its
// batch and is counted as a failure.
func TestEngineErrorIsolation(t *testing.T) {
	env := newTestEnv(t, 40, 2)
	eng := New(env.ix, Options{Parallelism: 2})
	defer eng.Close()

	reqs := []Request{
		{Kind: AKNN, Q: env.queries[0], K: 3, Alpha: 0.5, AKNNAlgo: query.LB},
		{Kind: AKNN, Q: env.queries[1], K: 0, Alpha: 0.5}, // invalid k
		{Kind: AKNN, Q: nil, K: 3, Alpha: 0.5},            // nil query
	}
	resps := eng.DoBatch(context.Background(), reqs)
	if resps[0].Err != nil {
		t.Fatalf("valid request failed: %v", resps[0].Err)
	}
	if resps[1].Err == nil || resps[2].Err == nil {
		t.Fatalf("invalid requests succeeded: %v, %v", resps[1].Err, resps[2].Err)
	}
	if got := eng.Totals().Failures; got != 2 {
		t.Fatalf("totals report %d failures, want 2", got)
	}
}

// TestEngineCancellation checks a cancelled context fails queued requests
// with the context error instead of running them.
func TestEngineCancellation(t *testing.T) {
	env := newTestEnv(t, 40, 4)
	eng := New(env.ix, Options{Parallelism: 1, QueueDepth: 1})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resps := eng.DoBatch(ctx, mixedRequests(env, 2))
	for i, r := range resps {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if eng.Totals().Failures == 0 {
		t.Fatal("cancelled requests not counted as failures")
	}
}

// TestEngineClose checks Close drains in-flight work, rejects later
// submissions, and is idempotent — including when racing other closers.
func TestEngineClose(t *testing.T) {
	env := newTestEnv(t, 40, 3)
	eng := New(env.ix, Options{Parallelism: 2})

	resp := eng.Do(context.Background(), Request{
		Kind: AKNN, Q: env.queries[0], K: 2, Alpha: 0.5, AKNNAlgo: query.LBLPUB,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); eng.Close() }()
	}
	wg.Wait()

	resp = eng.Do(context.Background(), Request{
		Kind: AKNN, Q: env.queries[0], K: 2, Alpha: 0.5,
	})
	if !errors.Is(resp.Err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", resp.Err)
	}
}

// flakyReader panics on Get when armed — a stand-in for a latent bug in
// the read path.
type flakyReader struct {
	store.Reader
	armed atomic.Bool
}

func (f *flakyReader) Get(id uint64) (*fuzzy.Object, error) {
	if f.armed.Load() {
		panic("injected read-path panic")
	}
	return f.Reader.Get(id)
}

// TestEngineRecoversPanics checks a panicking query costs its caller one
// errored response instead of the process, and the pool keeps serving.
func TestEngineRecoversPanics(t *testing.T) {
	p := dataset.Default(dataset.Synthetic)
	p.N = 40
	p.Seed = 11
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyReader{Reader: ms}
	ix, err := query.Build(flaky, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(ix, Options{Parallelism: 2})
	defer eng.Close()
	req := Request{Kind: AKNN, Q: q, K: 3, Alpha: 0.5, AKNNAlgo: query.Basic}

	flaky.armed.Store(true)
	resp := eng.Do(context.Background(), req)
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "query panicked") {
		t.Fatalf("err = %v, want query-panicked error", resp.Err)
	}

	flaky.armed.Store(false)
	if resp = eng.Do(context.Background(), req); resp.Err != nil {
		t.Fatalf("engine did not survive the panic: %v", resp.Err)
	}
	if got := eng.Totals().Failures; got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
}

// TestEngineUnknownKind checks a bogus Kind is tagged as an invalid
// argument, like every other caller mistake.
func TestEngineUnknownKind(t *testing.T) {
	env := newTestEnv(t, 20, 1)
	eng := New(env.ix, Options{Parallelism: 1})
	defer eng.Close()
	resp := eng.Do(context.Background(), Request{Kind: Kind(99), Q: env.queries[0], K: 1, Alpha: 0.5})
	if !errors.Is(resp.Err, query.ErrInvalidArgument) {
		t.Fatalf("err = %v, want ErrInvalidArgument", resp.Err)
	}
}

// TestEngineDefaultOptions checks the zero Options select sane defaults.
func TestEngineDefaultOptions(t *testing.T) {
	env := newTestEnv(t, 20, 1)
	eng := New(env.ix, Options{})
	defer eng.Close()
	if eng.Parallelism() < 1 {
		t.Fatalf("parallelism = %d", eng.Parallelism())
	}
	if eng.Index() != env.ix {
		t.Fatal("Index() does not return the backing index")
	}
}

// TestEngineMutationErrorTaxonomy checks that mutation failures surface per
// response and count as failures in the totals, without disturbing other
// requests in the batch.
func TestEngineMutationErrorTaxonomy(t *testing.T) {
	env := newTestEnv(t, 20, 2)
	e := New(env.ix, Options{Parallelism: 2})
	defer e.Close()

	dup, err := env.ix.Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	env.counting.Reset() // exclude the direct Get above from the invariant check
	resps := e.DoBatch(context.Background(), []Request{
		{Kind: Insert, Obj: dup},                          // duplicate id
		{Kind: Insert, Obj: nil},                          // nil object
		{Kind: Delete, ID: 999_999},                       // unknown id
		{Kind: AKNN, Q: env.queries[0], K: 3, Alpha: 0.5}, // healthy query rides along
	})
	if !errors.Is(resps[0].Err, store.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", resps[0].Err)
	}
	if !errors.Is(resps[1].Err, query.ErrInvalidArgument) {
		t.Fatalf("nil insert: %v", resps[1].Err)
	}
	if !errors.Is(resps[2].Err, store.ErrNotFound) {
		t.Fatalf("delete unknown: %v", resps[2].Err)
	}
	if resps[3].Err != nil || len(resps[3].Results) == 0 {
		t.Fatalf("healthy query in mixed batch: %+v", resps[3])
	}
	totals := e.Totals()
	if totals.Failures != 3 {
		t.Fatalf("Failures = %d, want 3", totals.Failures)
	}
	// The accounting invariant must hold even with failed mutations in the
	// mix: the failed delete's locate probe is a real store access and is
	// carried in its response stats.
	if got, want := env.counting.Count(), int64(totals.Stats.ObjectAccesses); got != want {
		t.Fatalf("store total %d != summed per-request accesses %d", got, want)
	}
}
