package conform

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	. "fuzzyknn"
	"fuzzyknn/internal/oracle"
	"fuzzyknn/internal/server"
)

// front is a served shape's HTTP side: its index behind Index.NewEngine and
// server.New on an httptest URL, which a reopen keeps, and the ledger of
// what the checker sent and received, which /stats and /metrics must count.
type front struct {
	srv     *httptest.Server
	handler atomic.Pointer[server.Server] // what srv serves; a reopen swaps it
	eng     *Engine
	mu      sync.Mutex // guards the ledger: writers and readers book at once
	ledger
}

// ledger counts one engine's traffic as the checker saw it.
type ledger struct {
	sent, failed map[string]int64 // engine requests by kind, and those that failed
	accesses     int64            // object accesses the engine charged them
	beside       int64            // what the index counted beside: query_id resolutions (one access each) and refines of lazy answers
	replies      map[string]int64 // replies by "METHOD /pattern status"
}

// serve puts s's index behind a new engine and server, on s's URL (new the
// first time); the ledger starts over with the engine.
func (c *checker) serve(s *shape) {
	if s.web == nil {
		f := &front{}
		f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.handler.Load().ServeHTTP(w, r) }))
		s.web = f
	}
	f := s.web
	f.eng = s.ix.NewEngine(&EngineConfig{Parallelism: 2})
	f.handler.Store(server.New(s.ix, f.eng, nil))
	f.ledger = ledger{sent: map[string]int64{}, failed: map[string]int64{}, replies: map[string]int64{}}
}

// charged is what the engine's replies, query_id resolutions and refines
// have cost s's index so far (0 for a library shape).
func (f *front) charged() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.accesses + f.beside
}

// call sends one request — pattern is the mux's, path the URL's — books its
// reply, and decodes a 2xx JSON body into out. An error reply must be JSON
// with a message.
func (f *front) call(pattern, path string, body, out any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	method, _, _ := strings.Cut(pattern, " ")
	req, err := http.NewRequest(method, f.srv.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	f.mu.Lock()
	f.replies[fmt.Sprintf("%s %d", pattern, resp.StatusCode)]++
	f.mu.Unlock()
	if resp.StatusCode/100 != 2 {
		var er server.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" || resp.Header.Get("Content-Type") != "application/json" {
			return resp.StatusCode, raw, fmt.Errorf("%s answers %d with %q", pattern, resp.StatusCode, raw)
		}
		return resp.StatusCode, raw, nil
	}
	if out != nil {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, raw, err
}

// reply is a write's answer: its status and, per item in request order
// (inserts, then deletes), its outcome and what it charged.
type reply struct {
	status  int
	items   []server.BatchItemJSON
	objects int
	err     error // the request's own failure, or a 503's ErrDegraded
}

// send lands one write on a served shape as one request — POST /objects or
// DELETE /objects/{id} for a single item, else POST /objects:batch — and
// books every item that reached the engine (a nil object is refused before
// it; an empty batch never gets there). A reply that refuses the whole
// write carries no stats, so it books what the index counted meanwhile:
// nothing else may touch the index then.
func (c *checker) send(s *shape, ins []*Object, dels []uint64, single bool) reply {
	f, before := s.web, s.ix.TotalObjectAccesses()
	var rep reply
	var mr server.MutationResponse
	var br server.BatchMutateResponse
	var raw []byte
	switch {
	case single && len(ins) > 0:
		rep.status, raw, rep.err = f.call("POST /objects", "/objects", server.InsertRequest{Object: wireObject(ins[0])}, &mr)
		br.Results = []server.BatchItemJSON{{Op: "insert", ID: mr.ID, ObjectAccesses: mr.ObjectAccesses}}
	case single:
		rep.status, raw, rep.err = f.call("DELETE /objects/{id}", "/objects/"+strconv.FormatUint(dels[0], 10), nil, &mr)
		br.Results = []server.BatchItemJSON{{Op: "delete", ID: mr.ID, ObjectAccesses: mr.ObjectAccesses}}
	default:
		req := server.BatchMutateRequest{DeleteIDs: dels}
		for _, o := range ins {
			req.Objects = append(req.Objects, wireObject(o))
		}
		rep.status, raw, rep.err = f.call("POST /objects:batch", "/objects:batch", req, &br)
		mr.Objects = br.Objects
	}
	rep.items, rep.objects = br.Results, mr.Objects
	if rep.status/100 != 2 {
		rep.items = nil
		if rep.status != http.StatusBadRequest || single && (len(dels) > 0 || ins[0] != nil) {
			for i := range len(ins) + len(dels) { // each reached the engine and failed
				rep.items = append(rep.items, server.BatchItemJSON{Op: map[bool]string{true: "insert", false: "delete"}[i < len(ins)], Error: string(raw)})
			}
		}
		rep.err = cmp.Or(rep.err, fmt.Errorf("status %d: %s", rep.status, raw))
		if rep.status == http.StatusServiceUnavailable {
			rep.err = fmt.Errorf("%w: %s", ErrDegraded, raw)
		}
	} else if len(rep.items) != len(ins)+len(dels) {
		rep.err = cmp.Or(rep.err, fmt.Errorf("%d items answered for %d", len(rep.items), len(ins)+len(dels)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, it := range rep.items {
		if i < len(ins) && ins[i] == nil {
			continue
		}
		f.sent[it.Op]++
		if it.Error != "" {
			f.failed[it.Op]++
		}
		f.accesses += int64(it.ObjectAccesses)
	}
	if rep.status/100 != 2 {
		f.accesses += s.ix.TotalObjectAccesses() - before
	}
	return rep
}

// landed checks a write that must have committed whole: no item refused,
// an insert charging nothing and a delete at least its locate probe (and
// its validation probe too when a refused groupmate sent its group one
// request at a time).
func (r reply) landed() error {
	if r.err != nil {
		return r.err
	}
	for i, it := range r.items {
		if it.Error != "" || it.Op == "insert" && it.ObjectAccesses != 0 || it.Op == "delete" && it.ObjectAccesses < 1 {
			return fmt.Errorf("item %d answers %+v", i, it)
		}
	}
	return nil
}

// mutate is one mutation call on s, with no other writer beside it: Insert
// or Delete for a single item, else ApplyBatch; a served shape sends it as
// one request, whose reply must also count the objects s then holds.
func (c *checker) mutate(s *shape, ins []*Object, dels []uint64, single bool) error {
	switch {
	case s.web == nil && !single:
		return s.ix.ApplyBatch(ins, dels)
	case s.web == nil && len(ins) > 0:
		return s.ix.Insert(ins[0])
	case s.web == nil:
		return s.ix.Delete(dels[0])
	case len(ins)+len(dels) == 0:
		return nil
	}
	rep := c.send(s, ins, dels, single)
	if err := rep.landed(); err != nil {
		return err
	}
	if rep.objects != s.ix.Len() {
		return fmt.Errorf("the reply counts %d objects, the index holds %d", rep.objects, s.ix.Len())
	}
	return nil
}

// post is mutate, but a served shape's batch comes from two writers at
// once, so that the engine coalesces them: one sends half the inserts and
// half the deletes as one POST /objects:batch, the other the rest one
// request at a time. While readers race the writes the batch goes whole,
// from one writer: it must land as one commit. An empty batch must answer
// 400.
func (c *checker) post(s *shape, ins []*Object, dels []uint64, single bool) error {
	switch {
	case s.web == nil || single || c.window != nil && len(ins)+len(dels) > 0:
		return c.mutate(s, ins, dels, single)
	case len(ins)+len(dels) == 0:
		if rep := c.send(s, nil, nil, false); rep.status != http.StatusBadRequest {
			return fmt.Errorf("an empty batch answers %d (%v), want 400", rep.status, rep.err)
		}
		return nil
	}
	hi, hd := (len(ins)+1)/2, (len(dels)+1)/2
	var batch, singles error
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch = c.send(s, ins[:hi], dels[:hd], false).landed()
	}()
	for _, o := range ins[hi:] {
		singles = errors.Join(singles, c.send(s, []*Object{o}, nil, true).landed())
	}
	for _, id := range dels[hd:] {
		singles = errors.Join(singles, c.send(s, nil, []uint64{id}, true).landed())
	}
	<-done
	return errors.Join(batch, singles)
}

// refuseOver sends a write drawn to fail to a served shape. A lone item
// goes as a one-item POST /objects:batch and as its own request, which
// must answer its error class's status. A batch goes as one POST
// /objects:batch, which, unlike ApplyBatch, commits the items around the
// refused ones: its group falls back to one request at a time. Exactly the
// drawn items must be refused, and a second write takes the committed ones
// back out.
func (c *checker) refuseOver(s *shape, ins []*Object, dels []uint64, items []BatchItemError) {
	c.t.Helper()
	refused := map[int]error{} // by position in the reply, each item's error class
	for _, it := range items {
		refused[it.Pos+map[BatchOp]int{BatchInsertOp: 0, BatchDeleteOp: len(ins)}[it.Op]] = it.Err
	}
	before, replied := s.ix.TotalObjectAccesses(), s.web.charged()
	rep := c.send(s, ins, dels, false)
	if rep.err != nil || rep.objects != s.ix.Len() {
		c.t.Fatalf("%s: %s: a batch with refused items: %v, counting %d objects of %d", c.at, s.name, rep.err, rep.objects, s.ix.Len())
	}
	var back []*Object
	var gone []uint64
	for i, it := range rep.items {
		// A duplicate and a dead id are worded as their errors are.
		class := map[error]string{ErrDuplicate: ErrDuplicate.Error(), ErrNotFound: ErrNotFound.Error()}[refused[i]]
		if (it.Error != "") != (refused[i] != nil) || !strings.Contains(it.Error, class) {
			c.t.Fatalf("%s: %s: item %d of the batch answers %+v; want exactly %v refused", c.at, s.name, i, it, items)
		}
		switch {
		case refused[i] != nil:
		case i < len(ins):
			gone = append(gone, ins[i].ID())
		default:
			back = append(back, c.model[dels[i-len(ins)]])
		}
	}
	if len(ins)+len(dels) == 1 {
		want := cmp.Or(map[error]int{ErrNotFound: http.StatusNotFound}[items[0].Err], http.StatusBadRequest)
		if rep := c.send(s, ins, dels, true); rep.status != want {
			c.t.Fatalf("%s: %s: a lone refused item answers %d (%v), want %d", c.at, s.name, rep.status, rep.err, want)
		}
	}
	if got, charged := s.ix.TotalObjectAccesses()-before, s.web.charged()-replied; got != charged {
		c.t.Fatalf("%s: %s: the refused writes charged %d object accesses, the index counted %d", c.at, s.name, charged, got)
	}
	if len(back)+len(gone) > 0 {
		c.must(c.post(s, back, gone, false), s.name+": taking the batch's committed items back out")
	}
}

// checkpoint cuts a checkpoint of s, compacting its logs or not, and
// returns how many shards it cut; a served shape's POST /checkpoint maps
// 501 and 503 back to ErrCheckpointUnsupported and ErrDegraded.
func (c *checker) checkpoint(s *shape, compact bool) (int, error) {
	if s.web == nil {
		infos, err := s.ix.Checkpoint(compact)
		return len(infos), err
	}
	var out server.CheckpointResponse
	status, raw, err := s.web.call("POST /checkpoint", "/checkpoint", server.CheckpointRequest{Compact: &compact}, &out)
	s.web.mu.Lock()
	s.web.sent["checkpoint"]++
	if status != http.StatusOK {
		s.web.failed["checkpoint"]++
	}
	s.web.mu.Unlock()
	switch {
	case status == http.StatusNotImplemented:
		err = ErrCheckpointUnsupported
	case status == http.StatusServiceUnavailable:
		err = fmt.Errorf("%w: %s", ErrDegraded, raw)
	case status != http.StatusOK || out.Compacted != compact:
		err = cmp.Or(err, fmt.Errorf("POST /checkpoint answers %d: %s", status, raw))
	}
	return len(out.Shards), err
}

// wire names the read families the server answers, by the name of their
// algorithm on the wire.
var wire = map[string]string{
	"aknn/" + Basic.String(): "basic", "aknn/" + LB.String(): "lb", "aknn/" + LBLP.String(): "lb-lp", "aknn/" + LBLPUB.String(): "lb-lp-ub",
	"rknn/" + BasicRKNN.String(): "basic", "rknn/" + RSS.String(): "rss", "rknn/" + RSSICR.String(): "rss-icr",
	"range": "",
}

// wireObject is o as a request carries it.
func wireObject(o *Object) *server.ObjectJSON {
	if o == nil {
		return nil
	}
	obj := &server.ObjectJSON{ID: o.ID()}
	for _, wp := range o.WeightedPoints() {
		obj.Points = append(obj.Points, server.PointJSON{P: wp.P, Mu: wp.Mu})
	}
	return obj
}

// fetch reads one served family of p from s over HTTP with ?explain=1, by
// query_id or inline, and books it. It returns the answer as the oracle
// prints it (a lazy AKNN answer refined through s's index) with the raw
// answer and every counter the reply carries, and the results.
func (c *checker) fetch(s *shape, p params, fam string, byID bool) (answer, []Result, error) {
	q, qid := wireObject(p.q), (*uint64)(nil)
	if id := p.q.ID(); byID {
		q, qid = nil, &id
	}
	kind, _, _ := strings.Cut(fam, "/")
	var body any
	switch kind {
	case "aknn":
		body = server.AKNNRequest{Query: q, QueryID: qid, K: p.k, Alpha: p.alpha, Algo: wire[fam]}
	case "rknn":
		body = server.RKNNRequest{Query: q, QueryID: qid, K: p.k, AlphaStart: p.as, AlphaEnd: p.ae, Algo: wire[fam]}
	default:
		body = server.RangeRequest{Query: q, QueryID: qid, Alpha: p.alpha, Radius: p.radius}
	}
	var out struct {
		Results []struct {
			server.ResultJSON
			Qualifying []server.IntervalJSON `json:"qualifying"`
			Text       string                `json:"text"`
		} `json:"results"`
		Stats   server.StatsJSON   `json:"stats"`
		Explain server.ExplainJSON `json:"explain"`
	}
	status, raw, err := s.web.call("POST /"+kind, "/"+kind+"?explain=1", body, &out)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /%s answers %d: %s", kind, status, raw)
	}
	if err != nil {
		return answer{}, nil, err
	}
	st, ex := out.Stats, out.Explain
	a := answer{st: Stats{
		ObjectAccesses: st.ObjectAccesses, NodeAccesses: st.NodeAccesses, DistanceEvals: st.DistanceEvals,
		ProfilesBuilt: ex.ProfilesBuilt, ProfilePoints: ex.ProfilePoints, AKNNCalls: ex.AKNNCalls,
		Candidates: ex.Candidates, Pieces: ex.Pieces, PageReads: st.PageReads, PageCacheHits: st.PageCacheHits,
		LazyDeferred: st.LazyDeferred, LazyAdmitted: st.LazyAdmitted, LazyBufferPeak: st.LazyBufferPeak,
	}}
	f := s.web
	f.mu.Lock()
	f.sent[kind]++
	f.accesses += int64(st.ObjectAccesses)
	if byID {
		f.beside++
	}
	f.mu.Unlock()
	var rs []Result
	if kind == "rknn" {
		a.got = "["
		for _, r := range out.Results {
			a.got += fmt.Sprintf(" %d:%s%v", r.ID, r.Text, r.Qualifying)
		}
		a.got += " ]"
		a.raw = a.got
		return a, nil, nil
	}
	for _, r := range out.Results {
		rs = append(rs, Result{ID: r.ID, Dist: r.Dist, Exact: r.Exact, Lower: r.Lower, Upper: r.Upper})
	}
	a.got, a.raw = fmt.Sprint(rs), fmt.Sprint(rs)
	if fam == "aknn/"+LBLP.String() || fam == "aknn/"+LBLPUB.String() {
		refined, rst, err := s.ix.Refine(p.q, p.alpha, rs)
		if err != nil {
			return a, rs, err
		}
		a.got = fmt.Sprint(refined)
		f.mu.Lock()
		f.beside += int64(rst.ObjectAccesses)
		f.mu.Unlock()
	}
	return a, rs, nil
}

// fetchAll reads every served family of p from a served shape over HTTP —
// by query_id when the query is the model's object of its id, else inline
// — and holds each reply to want and, bit for bit, counters included, to
// the library's answer on the same index (runs); every exact result must
// sit at the scan's distance. The replies and the refines must charge what
// the index counted.
func (c *checker) fetchAll(s *shape, p params, pop *oracle.Population, want map[string]string, runs map[string]answer) {
	c.t.Helper()
	if s.web == nil {
		return
	}
	byID := c.model[p.q.ID()] == p.q
	scan := map[uint64]float64{}
	for _, sc := range pop.Ranked(p.q, p.alpha) {
		scan[sc.ID] = sc.Dist
	}
	before, replied := s.ix.TotalObjectAccesses(), s.web.charged()
	for _, fam := range slices.Sorted(maps.Keys(wire)) {
		a, rs, err := c.fetch(s, p, fam, byID)
		c.must(err, s.name+": "+fam)
		lib := runs[fam]
		lib.st.Duration = 0
		if a.got != want[fam] || a.raw != lib.raw || a.st != lib.st {
			c.t.Fatalf("%s (%v): %s: %s (by id %v) answers\n %s\n %s\n %+v\nwant\n %s\n %s\n %+v", c.at, p, s.name, fam, byID, a.got, a.raw, a.st, want[fam], lib.raw, lib.st)
		}
		for _, r := range rs {
			if r.Exact && r.Dist != scan[r.ID] {
				c.t.Fatalf("%s (%v): %s: %s answers %+v as exact, the scan's distance is %v", c.at, p, s.name, fam, r, scan[r.ID])
			}
		}
	}
	if got, charged := s.ix.TotalObjectAccesses()-before, s.web.charged()-replied; got != charged {
		c.t.Fatalf("%s: %s: the replies, query_id resolutions and refines charged %d object accesses, the index counted %d", c.at, s.name, charged, got)
	}
}

// counters holds a served shape's /healthz, /stats and /metrics to its
// ledger and its index: the engine's requests and failures by kind, the
// object accesses its replies charged, the replies by endpoint and status,
// the population of objects, whose per-shard sums must make the totals,
// and whether the index is degraded, why and since when, with its storage
// faults.
func (c *checker) counters(s *shape, objects int) {
	c.t.Helper()
	f := s.web
	var hz server.HealthzResponse
	var st server.StatsResponse
	d, faults := s.ix.Degraded(), s.ix.StorageFaults()
	hs, _, err1 := f.call("GET /healthz", "/healthz", nil, &hz)
	ss, _, err2 := f.call("GET /stats", "/stats", nil, &st)
	ms, page, err3 := f.call("GET /metrics", "/metrics", nil, nil)
	if err := errors.Join(err1, err2, err3); err != nil || hs != http.StatusOK || ss != http.StatusOK || ms != http.StatusOK {
		c.t.Fatalf("%s: %s: GET /healthz, /stats and /metrics answer %d, %d and %d (%v)", c.at, s.name, hs, ss, ms, err)
	}
	since, err := time.Parse(time.RFC3339Nano, hz.Since)
	if d == nil && (hz != server.HealthzResponse{Status: "ok"} || st.Degraded != nil) ||
		d != nil && (hz.Status != "degraded" || hz.Reason != d.Reason || err != nil || !since.Equal(d.Since) ||
			st.Degraded == nil || *st.Degraded != server.DegradedJSON{Reason: d.Reason, Since: hz.Since, StorageFaults: faults}) {
		c.t.Fatalf("%s: %s: /healthz answers %+v and /stats %+v; the index is degraded: %+v, %d storage faults", c.at, s.name, hz, st.Degraded, d, faults)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replies["GET /metrics 200"]-- // the page went out before its own request was counted
	defer func() { f.replies["GET /metrics 200"]++ }()
	want := map[string]int64{
		"fuzzyknn_index_objects":                    int64(objects),
		"fuzzyknn_storage_faults_total":             faults,
		"fuzzyknn_engine_object_accesses_total":     f.accesses,
		"fuzzyknn_engine_checkpoints_total":         f.sent["checkpoint"],
		"fuzzyknn_engine_checkpoint_failures_total": f.failed["checkpoint"],
		"/stats objects":                            int64(objects),
		"/stats shards' objects":                    int64(objects),
		"/stats shards' object accesses":            st.TotalObjectAccesses,
		"/stats engine object accesses":             f.accesses,
	}
	got := map[string]int64{"/stats objects": int64(st.Objects), "/stats failures": st.Failures, "/stats engine object accesses": int64(st.EngineStats.ObjectAccesses), "/stats shards": int64(len(st.Shards))}
	want["/stats shards"] = int64(s.ix.NumShards())
	if objects > 0 {
		got["/stats dims"], want["/stats dims"] = int64(st.Dims), 2
	}
	if d != nil {
		want["fuzzyknn_degraded"] = 1
	}
	for _, sh := range st.Shards {
		got["/stats shards' objects"] += int64(sh.Objects)
		got["/stats shards' object accesses"] += sh.ObjectAccesses
	}
	for kind, n := range f.sent {
		want["/stats requests "+kind], want["/stats failures"] = n, want["/stats failures"]+f.failed[kind]
		if kind != "checkpoint" {
			want[`fuzzyknn_requests_total{kind="`+kind+`"}`] = n
			want[`fuzzyknn_request_failures_total{kind="`+kind+`"}`] = f.failed[kind]
		}
	}
	for kind, n := range st.Requests {
		got["/stats requests "+kind] = n
	}
	for r, n := range f.replies {
		i := strings.LastIndexByte(r, ' ')
		want[fmt.Sprintf(`fuzzyknn_http_requests_total{code="%s",endpoint="%s"}`, r[i+1:], r[:i])] = n
	}
	for _, line := range strings.Split(string(page), "\n") {
		i := strings.LastIndexByte(line, ' ')
		_, ok := want[line[:max(i, 0)]]
		for _, family := range []string{"http_requests_total{", "requests_total{", "request_failures_total{"} {
			ok = ok || strings.HasPrefix(line, "fuzzyknn_"+family)
		}
		if i > 0 && ok {
			got[line[:i]], _ = strconv.ParseInt(line[i+1:], 10, 64)
		}
	}
	zero := func(_ string, n int64) bool { return n == 0 }
	maps.DeleteFunc(got, zero)
	maps.DeleteFunc(want, zero)
	if !maps.Equal(got, want) {
		c.t.Fatalf("%s: %s: /stats and /metrics count\n %v\nthe checker\n %v", c.at, s.name, got, want)
	}
}
