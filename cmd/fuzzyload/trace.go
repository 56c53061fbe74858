package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/engine"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/server"
	"fuzzyknn/internal/store"
)

// The traced run replays one request stream, one request at a time, down a
// ladder of public entry points, each rung one layer lower than the last:
//
//	http    the real fuzzyserve over loopback
//	serve   server.Server.ServeHTTP on a recorder (no network)
//	engine  fuzzyknn.Engine.Do
//	index   engine.Engine.Do over a timing decorator of query.Searcher,
//	        built over a timing decorator of store.Reader
//	plain   the index rung's stack without the decorators
//
// Request i goes down all five rungs before request i+1 starts. Every call
// is a span. Spans are taken from outside the product — around
// calls into it — so the product runs unmodified.

// span is one timed call. Times are nanoseconds since the trace began;
// spans of one request share Req, and Parent names the enclosing span.
type span struct {
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Requests are replayed
// one at a time, so rung and req are set between requests; the mutex is
// for the shards of a sharded index, which probe the store in parallel.
type tracer struct {
	t0    time.Time
	rung  string // "" between rungs: calls made while a stack is built are not spans
	req   int
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name, parent string, start time.Time) {
	end := time.Since(t.t0)
	t.mu.Lock()
	if t.rung != "" {
		t.spans = append(t.spans, span{Rung: t.rung, Name: name, Req: t.req, Parent: parent,
			Start: int64(start.Sub(t.t0)), End: int64(end)})
	}
	t.mu.Unlock()
}

// enter moves the tracer to request req of a rung ("" leaves the ladder).
func (t *tracer) enter(rung string, req int) {
	t.mu.Lock()
	t.rung, t.req = rung, req
	t.mu.Unlock()
}

// timedReader is the store.Reader decorator of the read-only workloads.
type timedReader struct {
	store.Reader
	tr *tracer
}

func (r timedReader) Get(id uint64) (*fuzzy.Object, error) {
	defer r.tr.record("store.get", "index", time.Now())
	return r.Reader.Get(id)
}

// timedLog is the same decorator over a log store. Embedding the concrete
// type keeps its write, liveness and checkpoint sides visible to the index,
// which finds them by type assertion.
type timedLog struct {
	*store.LogStore
	tr *tracer
}

func (r timedLog) Get(id uint64) (*fuzzy.Object, error) {
	defer r.tr.record("store.get", "index", time.Now())
	return r.LogStore.Get(id)
}

// timedMem is the decorator over the in-memory store, for the same reason.
type timedMem struct {
	*store.MemStore
	tr *tracer
}

func (r timedMem) Get(id uint64) (*fuzzy.Object, error) {
	defer r.tr.record("store.get", "index", time.Now())
	return r.MemStore.Get(id)
}

// timedSearcher is the query.Searcher decorator: the calls the engine makes
// for the benchmark's traffic are spans, everything else passes through.
type timedSearcher struct {
	query.Searcher
	tr *tracer
}

func (s timedSearcher) AKNN(q *fuzzy.Object, k int, alpha float64, algo query.AKNNAlgorithm) ([]query.Result, query.Stats, error) {
	defer s.tr.record("index", "engine.do", time.Now())
	return s.Searcher.AKNN(q, k, alpha, algo)
}

func (s timedSearcher) RKNN(q *fuzzy.Object, k int, as, ae float64, algo query.RKNNAlgorithm) ([]query.RangedResult, query.Stats, error) {
	defer s.tr.record("index", "engine.do", time.Now())
	return s.Searcher.RKNN(q, k, as, ae, algo)
}

func (s timedSearcher) RangeSearch(q *fuzzy.Object, alpha, radius float64) ([]query.Result, query.Stats, error) {
	defer s.tr.record("index", "engine.do", time.Now())
	return s.Searcher.RangeSearch(q, alpha, radius)
}

func (s timedSearcher) ApplyBatch(ins []*fuzzy.Object, dels []uint64) ([]query.Stats, error) {
	defer s.tr.record("index", "engine.do", time.Now())
	return s.Searcher.ApplyBatch(ins, dels)
}

// stack is one in-process copy of the workload's deployment shape.
type stack struct {
	eng     *engine.Engine
	acks    *ackQueue
	closers []io.Closer
}

func (s *stack) close() {
	s.eng.Close()
	for _, c := range s.closers {
		c.Close()
	}
}

// loadInGroups feeds the dataset through ApplyBatch in the same groups the
// server's bulk load used, so the R-tree is grown the same way.
func (st *state) loadInGroups(apply func([]*fuzzy.Object) error) error {
	base := st.data.base
	for lo := 0; lo < len(base); lo += loadGroup {
		if err := apply(base[lo:min(lo+loadGroup, len(base))]); err != nil {
			return err
		}
	}
	return nil
}

// buildStack assembles, from internal packages, the reader → index →
// engine stack that fuzzyknn.Open*/NewIndex would build for the workload,
// with the timing decorators in place when tr is not nil.
func (st *state) buildStack(tr *tracer, dir string) (*stack, error) {
	w, d := st.cfg.w, st.data
	s := &stack{acks: st.initialAcks()}
	fail := func(err error) (*stack, error) {
		for _, c := range s.closers {
			c.Close()
		}
		return nil, err
	}
	var reader store.Reader
	var searcher query.Searcher
	switch {
	case w.restart:
		ls, err := store.OpenLogPolicy(filepath.Join(dir, "objects.fzl"), dims, store.SyncOff)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, ls)
		reader = ls
		if tr != nil {
			reader = timedLog{ls, tr}
		}
	case w.writeFile:
		ds, err := store.Open(filesIn(st.dir).store)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, ds)
		reader = store.NewLRU(ds, w.cacheSize(len(d.base)))
		if tr != nil {
			reader = timedReader{reader, tr}
		}
	default:
		ms, err := store.NewMemStore(nil)
		if err != nil {
			return nil, err
		}
		reader = ms
		if tr != nil {
			reader = timedMem{ms, tr}
		}
	}
	switch {
	case w.writePage:
		p, err := query.OpenPagedIndex(store.NewCounting(reader), filesIn(st.dir).page, 1<<20, -1, query.Options{})
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, p)
		searcher = p.Index
	case w.shards > 1:
		shards := make([]*query.Index, w.shards)
		for i := range shards {
			keep := func(id uint64) bool { return query.ShardOf(id, w.shards) == i }
			ix, err := query.BuildFiltered(store.NewCounting(reader), query.Options{}, keep)
			if err != nil {
				return fail(err)
			}
			shards[i] = ix
		}
		sx, err := query.NewSharded(shards)
		if err != nil {
			return fail(err)
		}
		searcher = sx
	default:
		ix, err := query.Build(store.NewCounting(reader), query.Options{})
		if err != nil {
			return fail(err)
		}
		searcher = ix
	}
	if w.bulkLoad {
		err := st.loadInGroups(func(objs []*fuzzy.Object) error {
			_, err := searcher.ApplyBatch(objs, nil)
			return err
		})
		if err != nil {
			return fail(err)
		}
	}
	if tr != nil {
		searcher = timedSearcher{searcher, tr}
	}
	opts := engine.Options{}
	if w.restart {
		opts.CheckpointEvery = 512
	}
	s.eng = engine.New(searcher, opts)
	err := st.warm(reader.Get, func(r engine.Request) error { return s.eng.Do(context.Background(), r).Err })
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm brings a freshly built in-process stack to the state the server is
// in after its warm-up: every object read once (an LRU sized for all of them
// is then full, a smaller one is in its steady churn) and the warm-up
// stream's queries answered once (block cache, allocator, scratch pools).
// The tracer is between rungs here, so none of this is recorded.
func (st *state) warm(get func(uint64) (*fuzzy.Object, error), do func(engine.Request) error) error {
	for _, o := range st.data.base {
		if _, err := get(o.ID()); err != nil {
			return err
		}
	}
	for i := range st.warmup {
		if r := &st.warmup[i]; r.kind <= kRange {
			if err := do(engineRequest(r, 0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// openPublic opens the workload's deployment shape through the public API,
// the way cmd/fuzzyserve does.
func (st *state) openPublic(dir string) (*fuzzyknn.Index, error) {
	w, d := st.cfg.w, st.data
	cfg := &fuzzyknn.Config{CacheSize: w.cacheSize(len(d.base)), Shards: w.shards, Fsync: fuzzyknn.FsyncOff}
	f := filesIn(st.dir)
	var ix *fuzzyknn.Index
	var err error
	switch {
	case w.writePage:
		return fuzzyknn.OpenPagedIndex(f.store, f.page, 1, cfg)
	case w.writeFile:
		return fuzzyknn.OpenIndex(f.store, cfg)
	case w.restart:
		ix, err = fuzzyknn.OpenLogIndex(filepath.Join(dir, "objects.fzl"), dims, cfg)
	default:
		ix, err = fuzzyknn.NewIndex(nil, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := st.loadInGroups(func(objs []*fuzzy.Object) error { return ix.ApplyBatch(objs, nil) }); err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// engineRequest is the engine's form of a stream request.
func engineRequest(r *request, deleteID uint64) engine.Request {
	switch r.kind {
	case kAKNN:
		return engine.Request{Kind: engine.AKNN, Q: r.query, K: r.k, Alpha: aknnAlpha, AKNNAlgo: query.LBLPUB}
	case kRKNN:
		return engine.Request{Kind: engine.RKNN, Q: r.query, K: r.k, AlphaStart: rknnStart, AlphaEnd: rknnEnd, RKNNAlgo: query.RSSICR}
	case kRange:
		return engine.Request{Kind: engine.RangeSearch, Q: r.query, Alpha: rangeAlpha, Radius: rangeRadius}
	case kInsert:
		return engine.Request{Kind: engine.Insert, Obj: r.obj}
	default:
		return engine.Request{Kind: engine.Delete, ID: deleteID}
	}
}

// decodeAndEncode times the two JSON steps of a request on the server's
// exported wire types: decoding the body the way the handlers do, and
// encoding the response it produced.
func decodeAndEncode(tr *tracer, r *request, respBody []byte) error {
	var in, out any
	switch r.kind {
	case kAKNN:
		in, out = &server.AKNNRequest{}, &server.QueryResponse{}
	case kRKNN:
		in, out = &server.RKNNRequest{}, &server.RKNNResponse{}
	case kRange:
		in, out = &server.RangeRequest{}, &server.QueryResponse{}
	case kInsert:
		in, out = &server.InsertRequest{}, &server.MutationResponse{}
	default:
		in, out = nil, &server.MutationResponse{}
	}
	if err := json.Unmarshal(respBody, out); err != nil {
		return err
	}
	start := time.Now()
	if in != nil {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(in); err != nil {
			return err
		}
	}
	tr.record("decode", "serve", start)
	start = time.Now()
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	err := enc.Encode(out)
	tr.record("encode", "serve", start)
	return err
}

// rung is one level of the ladder: its own copy of the stream (the inserted
// objects differ from rung to rung), the delete queue of the index it talks
// to, and the call that performs a request and records its spans.
type rung struct {
	name   string
	stream []request
	acks   *ackQueue
	call   func(r *request, deleteID uint64) error
}

// step sends request i through one rung.
func (g *rung) step(tr *tracer, i int) error {
	r := &g.stream[i]
	var id uint64
	if r.kind == kDelete {
		var ok bool
		if id, ok = g.acks.pop(); !ok {
			return fmt.Errorf("%s rung: request %d: nothing to delete", g.name, i)
		}
	}
	tr.enter(g.name, i)
	err := g.call(r, id)
	tr.enter("", 0)
	if err != nil {
		return fmt.Errorf("%s rung: %s request %d: %w", g.name, r.kind, i, err)
	}
	if r.kind == kInsert {
		g.acks.push(r.obj.ID())
	}
	return nil
}

// traced runs the ladder, writes trace.json and derives the T metrics.
func (st *state) traced(ctx context.Context, streams [][]request) error {
	tr := &tracer{t0: time.Now()}
	dir := filepath.Join(st.cfg.outDir, "trace-data")
	for _, sub := range []string{"serve", "engine", "index", "plain"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	pathOf := func(r *request, id uint64) string {
		if r.kind == kDelete {
			return "/objects/" + strconv.FormatUint(id, 10)
		}
		return r.path
	}

	// The serve and engine rungs each get an index opened like the server's.
	// They must not share one: the second to see a request would find the
	// first one's objects still in the LRU.
	type public struct {
		ix   *fuzzyknn.Index
		eng  *fuzzyknn.Engine
		acks *ackQueue
	}
	var pub [2]public
	for i, sub := range []string{"serve", "engine"} {
		ix, err := st.openPublic(filepath.Join(dir, sub))
		if err != nil {
			return err
		}
		defer ix.Close()
		ecfg := &fuzzyknn.EngineConfig{}
		if st.cfg.w.restart {
			ecfg.CheckpointEvery = 512
		}
		eng := ix.NewEngine(ecfg)
		defer eng.Close()
		if err := st.warm(ix.Object, func(r engine.Request) error { return eng.Do(ctx, r).Err }); err != nil {
			return err
		}
		pub[i] = public{ix, eng, st.initialAcks()}
	}
	handler := server.New(pub[0].ix, pub[0].eng, &server.Options{RequestTimeout: 5 * time.Second, SlowRequestThreshold: time.Second})

	// The hand-built stacks, with and without decorators.
	traced, err := st.buildStack(tr, filepath.Join(dir, "index"))
	if err != nil {
		return err
	}
	defer traced.close()
	plain, err := st.buildStack(nil, filepath.Join(dir, "plain"))
	if err != nil {
		return err
	}
	defer plain.close()
	engineDo := func(e interface {
		Do(context.Context, engine.Request) engine.Response
	}) func(*request, uint64) error {
		return func(r *request, id uint64) error {
			defer tr.record("engine.do", "serve", time.Now())
			return e.Do(ctx, engineRequest(r, id)).Err
		}
	}

	ladder := []rung{
		{"http", streams[phaseTraceHTTP], st.acks, func(r *request, id uint64) error {
			req, err := http.NewRequest(r.method, st.srv.url+pathOf(r, id), bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			start := time.Now()
			resp, err := st.gen.client.Do(req)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tr.record("http", "", start)
			if err == nil && resp.StatusCode/100 != 2 {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return err
		}},
		{"serve", streams[phaseTraceServe], pub[0].acks, func(r *request, id uint64) error {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(r.method, pathOf(r, id), bytes.NewReader(r.body))
			start := time.Now()
			handler.ServeHTTP(rec, req)
			tr.record("serve", "http", start)
			if rec.Code/100 != 2 {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return decodeAndEncode(tr, r, rec.Body.Bytes())
		}},
		{"engine", streams[phaseTraceEngine], pub[1].acks, engineDo(pub[1].eng)},
		{"index", streams[phaseTraceIndex], traced.acks, engineDo(traced.eng)},
		{"plain", streams[phaseTracePlain], plain.acks, engineDo(plain.eng)},
	}
	// Request i goes down the whole ladder before request i+1 starts: the
	// box's speed drifts from second to second, and rungs replayed one after
	// the other would each see a different machine.
	for i := range ladder[0].stream {
		for g := range ladder {
			if err := ladder[g].step(tr, i); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}

	out, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(st.cfg.outDir, "trace.json"), out, 0o644); err != nil {
		return err
	}
	st.logf("# trace: %d spans in %s", len(tr.spans), filepath.Join(st.cfg.outDir, "trace.json"))
	st.selfTimes(tr.spans, streams[phaseTraceHTTP])
	return st.probes(ctx)
}

// covered returns how much of [lo, hi] the child spans cover, counting
// overlapping children (parallel shards) once.
func covered(children []span, lo, hi int64) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, end int64 = 0, lo
	for _, c := range children {
		s, e := max(c.Start, end), min(c.End, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// Components of one request's time, in the order the budget lists them.
const (
	cHTTP = iota // the whole request over HTTP at concurrency 1
	cNet
	cDecode
	cEncode
	cServer
	cEngine
	cQuery
	cStore
	cTraced // engine.do on the decorated stack
	cPlain  // engine.do on the same stack without decorators
	numComponents
)

// selfTimes turns the spans into per-layer self times: a layer's span minus
// what its children cover. Requests of one family are alike, so each
// family's self times are reduced to their median; families are then
// combined weighted by their share of the stream. That is the cost of the stream's average request, and
// unlike a median over a mix of 0.3 ms and 4 ms requests it adds up.
func (st *state) selfTimes(spans []span, stream []request) {
	type key struct {
		rung, name string
		req        int
	}
	one := make(map[key]span)
	gets := make(map[int][]span)
	var getDur recorder
	for _, s := range spans {
		if s.Name == "store.get" {
			gets[s.Req] = append(gets[s.Req], s)
			getDur.add(s.dur())
			continue
		}
		one[key{s.Rung, s.Name, s.Req}] = s
	}
	// Spans of one request on one rung nest, so their self times are taken
	// per request. Across rungs the same request was executed twice, a few
	// milliseconds apart; there the family's median on the upper rung minus
	// its median on the lower one is the steadier difference.
	const (
		mServe = numComponents + iota // whole spans, only needed for the differences
		mEngine
		numMeasured
	)
	var byKind [numKinds][numMeasured]recorder
	for i := range stream {
		sp := func(rung, name string) time.Duration {
			s := one[key{rung, name, i}]
			return s.dur()
		}
		c := &byKind[stream[i].kind]
		index := one[key{"index", "index", i}]
		inStore := covered(gets[i], index.Start, index.End)
		c[cHTTP].add(sp("http", "http"))
		c[mServe].add(sp("serve", "serve"))
		c[cDecode].add(sp("serve", "decode"))
		c[cEncode].add(sp("serve", "encode"))
		c[mEngine].add(sp("engine", "engine.do"))
		c[cEngine].add(sp("index", "engine.do") - index.dur())
		c[cQuery].add(index.dur() - inStore)
		c[cStore].add(inStore)
		c[cTraced].add(sp("index", "engine.do"))
		c[cPlain].add(sp("plain", "engine.do"))
	}
	var us [numComponents]float64
	for k := range byKind {
		c := &byKind[k]
		share := float64(c[cHTTP].count()) / float64(len(stream))
		for _, m := range []int{cHTTP, cDecode, cEncode, cEngine, cQuery, cStore, cTraced, cPlain} {
			us[m] += share * c[m].us(0.5)
		}
		us[cNet] += share * (c[cHTTP].us(0.5) - c[mServe].us(0.5))
		us[cServer] += share * (c[mServe].us(0.5) - c[cDecode].us(0.5) - c[cEncode].us(0.5) - c[mEngine].us(0.5))
	}
	st.set("net.self_p50_us", us[cNet])
	st.set("server.decode_p50_us", us[cDecode])
	st.set("server.encode_p50_us", us[cEncode])
	st.set("server.self_p50_us", us[cServer])
	st.set("engine.self_p50_us", us[cEngine])
	st.set("query.self_p50_us", us[cQuery])
	st.set("store.get_time_per_req_us", us[cStore])
	st.set("store.get_p50_us", getDur.us(0.5))
	sum := 0.0
	for c := cNet; c <= cStore; c++ {
		sum += us[c]
	}
	st.set("trace.reconcile_err", ratio(abs(sum-us[cHTTP]), us[cHTTP]))
	st.set("trace.overhead_share", ratio(us[cTraced]-us[cPlain], us[cPlain]))
	st.logf("# trace: a request takes %.1fus over HTTP at concurrency 1; layer self times sum to %.1fus", us[cHTTP], sum)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
