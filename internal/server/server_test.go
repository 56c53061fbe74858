package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fuzzyknn"
	"fuzzyknn/internal/fuzzy"
)

// blob builds a fuzzy object with a kernel at (cx, cy) and fading rings.
func blob(t testing.TB, id uint64, cx, cy float64) *fuzzyknn.Object {
	t.Helper()
	pts := []fuzzyknn.WeightedPoint{{P: fuzzyknn.Point{cx, cy}, Mu: 1.0}}
	for ring := 1; ring <= 3; ring++ {
		r := 0.3 * float64(ring)
		mu := 1.0 - 0.3*float64(ring)
		for i := 0; i < 8; i++ {
			angle := 2 * math.Pi * float64(i) / 8
			pts = append(pts, fuzzyknn.WeightedPoint{
				P:  fuzzyknn.Point{cx + r*math.Cos(angle), cy + r*math.Sin(angle)},
				Mu: mu,
			})
		}
	}
	o, err := fuzzyknn.NewObject(id, pts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// newTestServer builds a 6-object index, its engine and an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *fuzzyknn.Index, *fuzzyknn.Engine) {
	t.Helper()
	objs := []*fuzzyknn.Object{
		blob(t, 1, 2, 0), blob(t, 2, 3, 0.5), blob(t, 3, 4, -1),
		blob(t, 4, 8, 2), blob(t, 5, -3, 1), blob(t, 6, 0, 6),
	}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 4})
	ts := httptest.NewServer(New(ix, eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})
	return ts, ix, eng
}

// queryJSON is the origin blob as an inline wire object.
func queryJSON(t testing.TB) *ObjectJSON {
	t.Helper()
	q := blob(t, 100, 0, 0)
	wps := q.WeightedPoints()
	obj := &ObjectJSON{ID: 100, Points: make([]PointJSON, len(wps))}
	for i, wp := range wps {
		obj.Points[i] = PointJSON{P: wp.P, Mu: wp.Mu}
	}
	return obj
}

func postJSON(t *testing.T, url string, body any, dst any) (status int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeAKNNEndToEnd drives /aknn with an inline query object and checks
// the answers against a direct library call.
func TestServeAKNNEndToEnd(t *testing.T) {
	ts, ix, _ := newTestServer(t)

	var got QueryResponse
	status := postJSON(t, ts.URL+"/aknn", AKNNRequest{
		Query: queryJSON(t), K: 3, Alpha: 0.5, Algo: "lb",
	}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}

	want, _, err := ix.AKNN(blob(t, 100, 0, 0), 3, 0.5, fuzzyknn.LB)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.ID != want[i].ID || r.Dist != want[i].Dist || r.Exact != want[i].Exact {
			t.Fatalf("result %d: %+v, want %+v", i, r, want[i])
		}
	}
	if got.Stats.ObjectAccesses == 0 {
		t.Fatal("stats not populated")
	}
}

// TestServeAKNNByStoredID queries with query_id instead of an inline object.
func TestServeAKNNByStoredID(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var got QueryResponse
	status := postJSON(t, ts.URL+"/aknn", AKNNRequest{
		QueryID: ptr(uint64(1)), K: 2, Alpha: 0.8,
	}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	// A stored object is its own nearest neighbor at distance 0.
	if len(got.Results) == 0 || got.Results[0].ID != 1 || got.Results[0].Dist != 0 {
		t.Fatalf("self-query results = %+v", got.Results)
	}
}

// TestServeRKNN drives /rknn and holds every served interval, ends and
// their openness, to the library's Qualifying.Intervals(). The second query
// reaches object 5 only through a point of membership 0.5, so object 1 is
// the nearest neighbour from just above α = 0.5 on, and its interval is
// open at one end only: a reply that swapped lo_open and hi_open would show.
func TestServeRKNN(t *testing.T) {
	ts, ix, _ := newTestServer(t)
	twoPoint := []fuzzyknn.WeightedPoint{{P: fuzzyknn.Point{0, 0}, Mu: 1}, {P: fuzzyknn.Point{-2.5, 1}, Mu: 0.5}}
	q, err := fuzzyknn.NewObject(100, twoPoint)
	if err != nil {
		t.Fatal(err)
	}
	qj := &ObjectJSON{ID: 100}
	for _, wp := range twoPoint {
		qj.Points = append(qj.Points, PointJSON{P: wp.P, Mu: wp.Mu})
	}
	oneOpenEnd := false
	for _, c := range []struct {
		q  *fuzzyknn.Object
		qj *ObjectJSON
		k  int
	}{{blob(t, 100, 0, 0), queryJSON(t), 2}, {q, qj, 1}} {
		var got RKNNResponse
		status := postJSON(t, ts.URL+"/rknn", RKNNRequest{
			Query: c.qj, K: c.k, AlphaStart: 0.3, AlphaEnd: 1.0, Algo: "rss-icr",
		}, &got)
		if status != http.StatusOK {
			t.Fatalf("status = %d", status)
		}
		want, _, err := ix.RKNN(c.q, c.k, 0.3, 1.0, fuzzyknn.RSSICR)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("%d results, want %d", len(got.Results), len(want))
		}
		for i, r := range got.Results {
			ivs := want[i].Qualifying.Intervals()
			if r.ID != want[i].ID || r.Text != want[i].Qualifying.String() || len(r.Qualifying) != len(ivs) {
				t.Fatalf("result %d: %+v, want %v on %v", i, r, want[i].ID, want[i].Qualifying)
			}
			for j, iv := range ivs {
				if w := (IntervalJSON{Lo: iv.Lo, Hi: iv.Hi, LoOpen: iv.LoOpen, HiOpen: iv.HiOpen}); r.Qualifying[j] != w {
					t.Errorf("object %d interval %d: served %+v, library %+v", r.ID, j, r.Qualifying[j], w)
				}
				oneOpenEnd = oneOpenEnd || iv.LoOpen != iv.HiOpen
			}
		}
	}
	if !oneOpenEnd {
		t.Fatal("no interval is open at exactly one end")
	}
}

// TestServeRKNNRefusesNaive pins that /rknn does not serve the Naive
// strawman, whose cost grows with every membership level in the window:
// "naive" answers 400 and names the algorithm to use instead.
func TestServeRKNNRefusesNaive(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, name := range []string{"naive", "NAIVE"} {
		body, _ := json.Marshal(RKNNRequest{Query: queryJSON(t), K: 2, AlphaStart: 0.3, AlphaEnd: 1, Algo: name})
		resp, err := http.Post(ts.URL+"/rknn", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("algo %q: status %d, want 400", name, resp.StatusCode)
		}
		assertJSONError(t, resp, `"rss-icr"`)
	}
}

// TestServeRange drives /range.
func TestServeRange(t *testing.T) {
	ts, ix, _ := newTestServer(t)
	var got QueryResponse
	status := postJSON(t, ts.URL+"/range", RangeRequest{
		Query: queryJSON(t), Alpha: 0.5, Radius: 3,
	}, &got)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	want, _, err := ix.RangeSearch(blob(t, 100, 0, 0), 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.ID != want[i].ID || r.Dist != want[i].Dist {
			t.Fatalf("result %d: %+v, want %+v", i, r, want[i])
		}
	}
}

// TestServeStats checks /stats reflects served traffic.
func TestServeStats(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		var qr QueryResponse
		if s := postJSON(t, ts.URL+"/aknn", AKNNRequest{Query: queryJSON(t), K: 2, Alpha: 0.5}, &qr); s != http.StatusOK {
			t.Fatalf("aknn status = %d", s)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 6 || st.Dims != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Requests["aknn"] != 3 || st.Failures != 0 {
		t.Fatalf("requests = %v, failures = %d", st.Requests, st.Failures)
	}
	if st.EngineStats.ObjectAccesses == 0 {
		t.Fatal("engine stats empty after traffic")
	}
	if len(st.Shards) != 1 || st.Shards[0].Objects != 6 {
		t.Fatalf("single-tree /stats shards = %+v", st.Shards)
	}
}

// TestServeShardedIndex serves a 4-shard index: queries must answer
// identically to an unsharded server and /stats must expose per-shard
// size, depth and access counts.
func TestServeShardedIndex(t *testing.T) {
	objs := []*fuzzyknn.Object{
		blob(t, 1, 2, 0), blob(t, 2, 3, 0.5), blob(t, 3, 4, -1),
		blob(t, 4, 8, 2), blob(t, 5, -3, 1), blob(t, 6, 0, 6),
	}
	ix, err := fuzzyknn.NewIndex(objs, &fuzzyknn.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 4})
	ts := httptest.NewServer(New(ix, eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})

	tsSingle, _, _ := newTestServer(t)
	var sharded, single QueryResponse
	// The lb variant probes exactly on a single tree too, so both servers
	// answer with exact distances and the comparison is byte-level. (The
	// lazy variants return bounds on one tree but exact results from the
	// sharded coordinator — same set, different wire encoding.)
	req := AKNNRequest{Query: queryJSON(t), K: 3, Alpha: 0.5, Algo: "lb"}
	if s := postJSON(t, ts.URL+"/aknn", req, &sharded); s != http.StatusOK {
		t.Fatalf("sharded aknn status = %d", s)
	}
	if s := postJSON(t, tsSingle.URL+"/aknn", req, &single); s != http.StatusOK {
		t.Fatalf("single aknn status = %d", s)
	}
	if len(sharded.Results) != len(single.Results) {
		t.Fatalf("sharded %d results, single %d", len(sharded.Results), len(single.Results))
	}
	for i := range sharded.Results {
		if sharded.Results[i].ID != single.Results[i].ID ||
			math.Abs(sharded.Results[i].Dist-single.Results[i].Dist) > 1e-12 {
			t.Fatalf("result %d diverges: %+v vs %+v", i, sharded.Results[i], single.Results[i])
		}
	}

	// A mutation routes to a shard and shows up in the population.
	var mr MutationResponse
	ins := InsertRequest{Object: &ObjectJSON{ID: 50, Points: []PointJSON{{P: []float64{1, 1}, Mu: 1}}}}
	if s := postJSON(t, ts.URL+"/objects", ins, &mr); s != http.StatusCreated {
		t.Fatalf("insert status = %d", s)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 7 {
		t.Fatalf("objects = %d", st.Objects)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("shards = %+v", st.Shards)
	}
	total, accesses := 0, int64(0)
	for _, sh := range st.Shards {
		total += sh.Objects
		accesses += sh.ObjectAccesses
	}
	if total != 7 {
		t.Fatalf("per-shard objects sum to %d", total)
	}
	if accesses != st.TotalObjectAccesses {
		t.Fatalf("per-shard accesses %d, total %d", accesses, st.TotalObjectAccesses)
	}
}

// TestServeBadRequests checks validation failures map to 4xx JSON errors.
func TestServeBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"no query", "/aknn", AKNNRequest{K: 2, Alpha: 0.5}, http.StatusBadRequest},
		{"both query forms", "/aknn", AKNNRequest{Query: queryJSON(t), QueryID: ptr(uint64(1)), K: 2, Alpha: 0.5}, http.StatusBadRequest},
		{"bad algo", "/aknn", AKNNRequest{Query: queryJSON(t), K: 2, Alpha: 0.5, Algo: "quantum"}, http.StatusBadRequest},
		{"bad k", "/aknn", AKNNRequest{Query: queryJSON(t), K: 0, Alpha: 0.5}, http.StatusBadRequest},
		{"bad alpha", "/aknn", AKNNRequest{Query: queryJSON(t), K: 2, Alpha: 1.5}, http.StatusBadRequest},
		{"unknown id", "/aknn", AKNNRequest{QueryID: ptr(uint64(999)), K: 2, Alpha: 0.5}, http.StatusNotFound},
		{"bad membership", "/aknn", AKNNRequest{Query: &ObjectJSON{Points: []PointJSON{{P: []float64{0, 0}, Mu: 2}}}, K: 2, Alpha: 0.5}, http.StatusBadRequest},
		{"bad rknn range", "/rknn", RKNNRequest{Query: queryJSON(t), K: 2, AlphaStart: 0.8, AlphaEnd: 0.2}, http.StatusBadRequest},
		{"negative radius", "/range", RangeRequest{Query: queryJSON(t), Alpha: 0.5, Radius: -1}, http.StatusBadRequest},
		// JSON has no NaN or Inf; the nearest a body can get is a number that
		// overflows float64, which the decoder refuses.
		{"overflowing coordinate", "/aknn", json.RawMessage(`{"query":{"points":[{"p":[1e999,0],"mu":1}]},"k":2,"alpha":0.5}`), http.StatusBadRequest},
		{"overflowing coordinate on insert", "/objects", json.RawMessage(`{"object":{"id":77,"points":[{"p":[0,-1e999],"mu":1}]}}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er ErrorResponse
			if s := postJSON(t, ts.URL+tc.path, tc.body, &er); s != tc.status {
				t.Fatalf("status = %d, want %d (error %q)", s, tc.status, er.Error)
			}
			if er.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestObjectFromJSONRefusesNonFiniteCoordinates covers the wire-to-object
// step behind the decoder: whatever produced the ObjectJSON, a NaN or
// infinite coordinate is refused by the one object constructor.
func TestObjectFromJSONRefusesNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		obj := &ObjectJSON{ID: 1, Points: []PointJSON{{P: []float64{0, 0}, Mu: 1}, {P: []float64{bad, 0}, Mu: 0.5}}}
		if _, err := objectFromJSON(obj); !errors.Is(err, fuzzy.ErrBadCoord) {
			t.Errorf("coordinate %v: %v, want ErrBadCoord", bad, err)
		}
	}
}

// TestServeMethodNotAllowed checks the query endpoints reject GET.
func TestServeMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/aknn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestServeConcurrentClients hammers the server from many goroutines; with
// -race this doubles as a race test of the whole serving stack.
func TestServeConcurrentClients(t *testing.T) {
	ts, ix, _ := newTestServer(t)
	want, _, err := ix.AKNN(blob(t, 100, 0, 0), 3, 0.5, fuzzyknn.LBLPUB)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(AKNNRequest{Query: queryJSON(t), K: 3, Alpha: 0.5, Algo: "lb-lp-ub"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, err := http.Post(ts.URL+"/aknn", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var got QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				for j := range got.Results {
					if got.Results[j].ID != want[j].ID {
						errs <- fmt.Errorf("result %d: id %d, want %d", j, got.Results[j].ID, want[j].ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func ptr[T any](v T) *T { return &v }

// doRequest issues an arbitrary-method JSON request and decodes the reply.
func doRequest(t *testing.T, method, url string, body, dst any) (status int) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding %s %s response: %v", method, url, err)
	}
	return resp.StatusCode
}

// TestServeMutationsEndToEnd inserts an object over HTTP, finds it with a
// query, deletes it again and checks the taxonomy of every failure mode.
func TestServeMutationsEndToEnd(t *testing.T) {
	ts, ix, _ := newTestServer(t)

	// Insert a new object sitting exactly at the query point.
	ins := InsertRequest{Object: queryJSON(t)}
	ins.Object.ID = 900
	var mut MutationResponse
	if status := doRequest(t, http.MethodPost, ts.URL+"/objects", ins, &mut); status != http.StatusCreated {
		t.Fatalf("insert status = %d", status)
	}
	if mut.ID != 900 || mut.Objects != 7 {
		t.Fatalf("insert response = %+v", mut)
	}
	if ix.Len() != 7 {
		t.Fatalf("index len = %d", ix.Len())
	}

	// The new object must answer /aknn as the exact nearest neighbor.
	var qr QueryResponse
	if status := postJSON(t, ts.URL+"/aknn", AKNNRequest{Query: queryJSON(t), K: 1, Alpha: 0.5}, &qr); status != http.StatusOK {
		t.Fatalf("aknn status = %d", status)
	}
	if len(qr.Results) != 1 || qr.Results[0].ID != 900 {
		t.Fatalf("inserted object not served: %+v", qr.Results)
	}

	// Duplicate insert: client mistake.
	var er ErrorResponse
	if status := doRequest(t, http.MethodPost, ts.URL+"/objects", ins, &er); status != http.StatusBadRequest {
		t.Fatalf("duplicate insert status = %d (%s)", status, er.Error)
	}
	// Malformed object (empty points): 400.
	if status := doRequest(t, http.MethodPost, ts.URL+"/objects",
		InsertRequest{Object: &ObjectJSON{ID: 901}}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty object insert status = %d", status)
	}
	// Missing object: 400.
	if status := doRequest(t, http.MethodPost, ts.URL+"/objects", InsertRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("missing object insert status = %d", status)
	}

	// Delete it.
	if status := doRequest(t, http.MethodDelete, ts.URL+"/objects/900", nil, &mut); status != http.StatusOK {
		t.Fatalf("delete status = %d", status)
	}
	if mut.ID != 900 || mut.Objects != 6 {
		t.Fatalf("delete response = %+v", mut)
	}
	// Deleting again: 404. Garbage id: 400.
	if status := doRequest(t, http.MethodDelete, ts.URL+"/objects/900", nil, &er); status != http.StatusNotFound {
		t.Fatalf("double delete status = %d", status)
	}
	if status := doRequest(t, http.MethodDelete, ts.URL+"/objects/banana", nil, &er); status != http.StatusBadRequest {
		t.Fatalf("garbage id delete status = %d", status)
	}

	// The query set is back to its original answers.
	if status := postJSON(t, ts.URL+"/aknn", AKNNRequest{Query: queryJSON(t), K: 1, Alpha: 0.5}, &qr); status != http.StatusOK {
		t.Fatalf("aknn status = %d", status)
	}
	if len(qr.Results) != 1 || qr.Results[0].ID == 900 {
		t.Fatalf("deleted object still served: %+v", qr.Results)
	}

	// Mutations are engine requests: they must show up in /stats.
	var sr StatsResponse
	if status := doRequest(t, http.MethodGet, ts.URL+"/stats", nil, &sr); status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	// The successful and duplicate inserts reach the engine; the malformed
	// ones are rejected at the HTTP layer. Same split for the deletes.
	if sr.Requests["insert"] != 2 || sr.Requests["delete"] != 2 {
		t.Fatalf("mutation accounting: %+v", sr.Requests)
	}
}

// TestServeMutationsOnReadOnlyIndex pins the 500 answer for mutations
// against an index whose store has no write side.
func TestServeMutationsOnReadOnlyIndex(t *testing.T) {
	dir := t.TempDir()
	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5)}
	path := dir + "/ro.fzs"
	if err := fuzzyknn.SaveObjects(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	ix, err := fuzzyknn.OpenIndex(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	ts := httptest.NewServer(New(ix, eng, nil))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})
	ins := InsertRequest{Object: queryJSON(t)}
	var er ErrorResponse
	if status := doRequest(t, http.MethodPost, ts.URL+"/objects", ins, &er); status != http.StatusInternalServerError {
		t.Fatalf("read-only insert status = %d (%s)", status, er.Error)
	}
	if status := doRequest(t, http.MethodDelete, ts.URL+"/objects/1", nil, &er); status != http.StatusInternalServerError {
		t.Fatalf("read-only delete status = %d (%s)", status, er.Error)
	}
}
