package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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

// TestServeRKNN holds a crafted /rknn answer's intervals, ends and their
// openness, to the library's Qualifying.Intervals(): the query reaches
// object 5 only through a point of membership 0.5, so object 1 is the
// nearest neighbour from just above α = 0.5 on, and its interval is open at
// one end only, which a reply that swapped lo_open and hi_open would show.
// (FuzzConformance's served shapes hold every other /rknn answer.)
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
	var got RKNNResponse
	if status := postJSON(t, ts.URL+"/rknn", RKNNRequest{Query: qj, K: 1, AlphaStart: 0.3, AlphaEnd: 1.0, Algo: "rss-icr"}, &got); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	want, _, err := ix.RKNN(q, 1, 0.3, 1.0, fuzzyknn.RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want))
	}
	oneOpenEnd := false
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
