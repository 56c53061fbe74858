package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// randomObject is an n-point 2-d object with full-precision coordinates and
// descending memberships, as fuzzyload's datasets marshal them.
func randomObject(rng *rand.Rand, id uint64, n int) *ObjectJSON {
	obj := &ObjectJSON{ID: id, Points: make([]PointJSON, n)}
	for i := range obj.Points {
		mu := 1.0
		if i > 0 {
			mu = 1 - (float64(i)+rng.Float64())/float64(n+1)
		}
		obj.Points[i] = PointJSON{P: []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}, Mu: mu}
	}
	return obj
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// aknnBody is the benchmark's classification request: one 128-point inline
// query, ≈ 9 KB.
func aknnBody(t testing.TB) []byte {
	return mustMarshal(t, AKNNRequest{Query: randomObject(rand.New(rand.NewSource(1)), 0, 128), K: 20, Alpha: 0.5})
}

// batchBody is a bulk-load group of n 128-point objects.
func batchBody(t testing.TB, n int) []byte {
	rng := rand.New(rand.NewSource(2))
	req := BatchMutateRequest{}
	for id := uint64(1); id <= uint64(n); id++ {
		req.Objects = append(req.Objects, randomObject(rng, id, 128))
	}
	return mustMarshal(t, req)
}

// diffKind scans body as one endpoint's request and, if the scanner accepts
// it, requires encoding/json to accept it too and to read the same request:
// the same envelope and, object for object, the same FromSlabs verdict on
// bit-identical slabs. It reports whether the scanner accepted.
func diffKind[T any](t *testing.T, body []byte, fields func(*T) wireFields, inline func(*T) []*ObjectJSON) bool {
	t.Helper()
	var fast, slow T
	sc := scanners.Get().(*wireScanner)
	defer sc.release()
	objs, ok := sc.scan(body, fields(&fast))
	if !ok {
		return false
	}
	if err := unmarshalStrict(body, &slow); err != nil {
		t.Fatalf("%T: scanner accepted what encoding/json refuses (%v): %s", fast, err, body)
	}
	want := inline(&slow)
	if len(objs) != len(want) {
		t.Fatalf("%T: scanner read %d objects, encoding/json %d: %s", fast, len(objs), len(want), body)
	}
	for i, oj := range want {
		got, want := objs[i], inlineFromJSON(oj)
		if got.id != want.id || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("%T object %d: scanner (id %d, %v), encoding/json (id %d, %v): %s",
				fast, i, got.id, got.err, want.id, want.err, body)
		}
		if got.err != nil {
			continue
		}
		if got.obj.ID() != want.obj.ID() || got.obj.Dims() != want.obj.Dims() || got.obj.Len() != want.obj.Len() {
			t.Fatalf("%T object %d: shape differs: %s", fast, i, body)
		}
		for j := 0; j < got.obj.Len(); j++ {
			gp, gmu := got.obj.At(j)
			wp, wmu := want.obj.At(j)
			if math.Float64bits(gmu) != math.Float64bits(wmu) {
				t.Fatalf("%T object %d point %d: µ %v vs %v: %s", fast, i, j, gmu, wmu, body)
			}
			for d := range gp {
				if math.Float64bits(gp[d]) != math.Float64bits(wp[d]) {
					t.Fatalf("%T object %d point %d: %v vs %v: %s", fast, i, j, gp, wp, body)
				}
			}
		}
	}
	// inline cleared the objects, so what is left is the envelope; Marshal
	// prints floats shortest-exact, which tells -0 from 0.
	if g, w := mustMarshal(t, fast), mustMarshal(t, slow); !bytes.Equal(g, w) {
		t.Fatalf("%T envelope: scanner %s, encoding/json %s: %s", fast, g, w, body)
	}
	return true
}

func takeQuery(q **ObjectJSON) []*ObjectJSON {
	oj := *q
	*q = nil
	if oj == nil {
		return nil
	}
	return []*ObjectJSON{oj}
}

// The five object-carrying endpoints' field tables, as their handlers give
// them.
func aknnFields(r *AKNNRequest) wireFields {
	return wireFields{object: "query", queryID: &r.QueryID, k: &r.K, alpha: &r.Alpha, algo: &r.Algo}
}

func rknnFields(r *RKNNRequest) wireFields {
	return wireFields{object: "query", queryID: &r.QueryID, k: &r.K,
		alphaStart: &r.AlphaStart, alphaEnd: &r.AlphaEnd, algo: &r.Algo}
}

func rangeFields(r *RangeRequest) wireFields {
	return wireFields{object: "query", queryID: &r.QueryID, alpha: &r.Alpha, radius: &r.Radius}
}

func insertFields(*InsertRequest) wireFields { return wireFields{object: "object"} }

func batchFields(r *BatchMutateRequest) wireFields {
	return wireFields{objects: true, deleteIDs: &r.DeleteIDs}
}

// diffAll runs diffKind for every endpoint and reports which accepted, by
// path.
func diffAll(t *testing.T, body []byte) map[string]bool {
	t.Helper()
	return map[string]bool{
		"/aknn":  diffKind(t, body, aknnFields, func(r *AKNNRequest) []*ObjectJSON { return takeQuery(&r.Query) }),
		"/rknn":  diffKind(t, body, rknnFields, func(r *RKNNRequest) []*ObjectJSON { return takeQuery(&r.Query) }),
		"/range": diffKind(t, body, rangeFields, func(r *RangeRequest) []*ObjectJSON { return takeQuery(&r.Query) }),
		"/objects": diffKind(t, body, insertFields,
			func(r *InsertRequest) []*ObjectJSON { return takeQuery(&r.Object) }),
		"/objects:batch": diffKind(t, body, batchFields, takeObjects),
	}
}

func takeObjects(r *BatchMutateRequest) []*ObjectJSON {
	objs := r.Objects
	r.Objects = nil
	return objs
}

// edgeCase is one body of the JSON-edge boundary battery. status and reply
// are what the parent commit (PR 22, encoding/json alone) answers on
// newTestServer's six objects; for a 200 reply is the "results" member, the
// rest of the body being timings. scanned says whether the body is in the
// scanner's grammar.
type edgeCase struct {
	name    string
	path    string
	body    string
	scanned bool
	status  int
	reply   string
}

const (
	replyBadMu0    = `{"error":"fuzzy: membership values must lie in (0, 1]: got 0"}`
	replyNearest1  = `[{"id":1,"dist":1.7,"exact":true,"lower":1.7,"upper":1.7}]`
	replyBadAlpha0 = `{"error":"query: alpha must be in (0, 1], got 0"}`
	replyBadAlphaN = `{"error":"query: alpha must be in (0, 1], got -0.25"}`
	replyBadAlphaP = `{"error":"query: alpha must be in (0, 1], got 1.0000001"}`
)

var edgeCases = []edgeCase{
	// Memberships outside (0, 1] and a missing kernel are FromSlabs' to refuse.
	{"mu zero", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":1},{"p":[1,0],"mu":0}]},"k":1,"alpha":0.5}`,
		true, 400, replyBadMu0},
	{"mu negative", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":1},{"p":[1,0],"mu":-0.5}]},"k":1,"alpha":0.5}`,
		true, 400, `{"error":"fuzzy: membership values must lie in (0, 1]: got -0.5"}`},
	{"mu above one", "/rknn", `{"query":{"points":[{"p":[0,0],"mu":1.5}]},"k":1,"alpha_start":0.2,"alpha_end":0.8}`,
		true, 400, `{"error":"fuzzy: membership values must lie in (0, 1]: got 1.5"}`},
	{"mu underflows to zero", "/range", `{"query":{"points":[{"p":[0,0],"mu":1},{"p":[1,0],"mu":1e-400}]},"alpha":0.5,"radius":3}`,
		true, 400, replyBadMu0},
	{"no kernel", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":0.9},{"p":[1,0],"mu":0.5}]},"k":1,"alpha":0.5}`,
		true, 400, `{"error":"fuzzy: object kernel is empty (no point with µ = 1)"}`},
	{"mu zero on insert", "/objects", `{"object":{"id":70,"points":[{"p":[0,0],"mu":0}]}}`,
		true, 400, replyBadMu0},
	{"batch of good, mu zero and duplicate id", "/objects:batch",
		`{"objects":[{"id":71,"points":[{"p":[0,0],"mu":1}]},{"id":72,"points":[{"p":[0,0],"mu":0}]},{"id":1,"points":[{"p":[5,5],"mu":1}]}],"delete_ids":[6,777]}`,
		true, 200, `{"results":[{"op":"insert","id":71},{"op":"insert","id":72,"error":"fuzzy: membership values must lie in (0, 1]: got 0"},{"op":"insert","id":1,"error":"query: insert: store: duplicate object id: 1"},{"op":"delete","id":6,"object_accesses":2},{"op":"delete","id":777,"error":"query: delete: store: object not found: id 777"}],"applied":2,"failed":3,"objects":6}`},

	// Shapes the scanner leaves to encoding/json.
	{"empty points", "/aknn", `{"query":{"points":[]},"k":1,"alpha":0.5}`,
		false, 400, `{"error":"fuzzy: object has no points"}`},
	{"empty p", "/aknn", `{"query":{"points":[{"p":[],"mu":1}]},"k":1,"alpha":0.5}`,
		false, 400, `{"error":"fuzzy: inconsistent point dimensionality: 0 coordinates for 1 points of 0 dims"}`},
	{"ragged dimensions", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":1},{"p":[1],"mu":0.5}]},"k":1,"alpha":0.5}`,
		false, 400, `{"error":"fuzzy: inconsistent point dimensionality: 1 vs 2"}`},
	{"overflowing coordinate", "/aknn", `{"query":{"points":[{"p":[1e999,0],"mu":1}]},"k":1,"alpha":0.5}`,
		false, 400, `{"error":"invalid request body: json: cannot unmarshal number 1e999 into Go struct field PointJSON.query.points.p of type float64"}`},
	{"fractional k", "/aknn", `{"query_id":1,"k":1.5,"alpha":0.5}`,
		false, 400, `{"error":"invalid request body: json: cannot unmarshal number 1.5 into Go struct field AKNNRequest.k of type int"}`},
	{"negative id", "/objects", `{"object":{"id":-1,"points":[{"p":[0,0],"mu":1}]}}`,
		false, 400, `{"error":"invalid request body: json: cannot unmarshal number -1 into Go struct field ObjectJSON.object.id of type uint64"}`},
	{"leading zero", "/aknn", `{"query_id":1,"k":01,"alpha":0.5}`,
		false, 400, `{"error":"invalid request body: invalid character '1' after object key:value pair"}`},
	{"duplicate keys", "/aknn", `{"query_id":1,"query_id":2,"k":1,"alpha":0.5,"algo":"lb"}`,
		false, 200, `[{"id":2,"dist":0,"exact":true,"lower":0,"upper":0}]`},
	{"duplicate points key", "/aknn", `{"query":{"points":[{"p":[9,9],"mu":1}],"points":[{"p":[0,0],"mu":1}]},"k":1,"alpha":0.5,"algo":"lb"}`,
		false, 200, replyNearest1},
	{"duplicate id key", "/objects", `{"object":{"id":70,"id":71,"points":[{"p":[0,0],"mu":1}]}}`,
		false, 201, `{"id":71,"objects":7}`},
	{"upper-case keys", "/aknn", `{"QUERY":{"Points":[{"P":[0,0],"MU":1}]},"K":1,"Alpha":0.5,"ALGO":"lb"}`,
		false, 200, replyNearest1},
	{"escaped key", "/aknn", `{"query":{"poin\u0074s":[{"p":[0,0],"mu":1}]},"k":1,"alpha":0.5,"algo":"lb"}`,
		false, 200, replyNearest1},
	{"null members", "/aknn", `{"query":null,"query_id":2,"k":1,"alpha":0.5,"algo":null}`,
		false, 200, `[{"id":2,"dist":0,"exact":false,"lower":0,"upper":0}]`},
	{"null points", "/aknn", `{"query":{"id":3,"points":null},"k":1,"alpha":0.5}`,
		false, 400, `{"error":"fuzzy: object has no points"}`},
	{"null mu", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":null}]},"k":1,"alpha":0.5}`,
		false, 400, replyBadMu0},
	{"null object in batch", "/objects:batch", `{"objects":[null]}`,
		false, 200, `{"results":[{"op":"insert","id":0,"error":"missing object"}],"applied":0,"failed":1,"objects":6}`},
	{"unknown field", "/range", `{"query_id":1,"alpha":0.5,"radius":1,"k":3}`,
		false, 400, `{"error":"invalid request body: json: unknown field \"k\""}`},
	{"empty body", "/aknn", ``,
		false, 400, `{"error":"invalid request body: EOF"}`},

	// Values both paths read alike.
	{"negative zero", "/aknn", `{"query":{"points":[{"p":[-0,-0.0],"mu":1}]},"k":1,"alpha":0.5,"algo":"lb"}`,
		true, 200, replyNearest1},
	{"unsorted memberships with ties", "/aknn", `{"query":{"points":[{"p":[3,3],"mu":0.5},{"p":[0,0],"mu":1},{"p":[4,4],"mu":0.5},{"p":[9,9],"mu":1}]},"k":1,"alpha":0.5,"algo":"lb"}`,
		true, 200, replyNearest1},
	{"duplicate points", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":1},{"p":[0,0],"mu":1},{"p":[0,0],"mu":0.5}]},"k":1,"alpha":0.5,"algo":"lb"}`,
		true, 200, replyNearest1},
	{"whitespace and key order", "/aknn", " {\n\t\"alpha\" : 0.5 , \"k\" : 1,\r\n \"algo\":\"lb\", \"query\" : { \"points\" : [ { \"mu\" : 1 , \"p\" : [ 0 , 0 ] } ], \"id\": 7 } } \n",
		true, 200, replyNearest1},
	{"query and query_id together", "/aknn", `{"query":{"points":[{"p":[0,0],"mu":0}]},"query_id":1,"k":1,"alpha":0.5}`,
		true, 400, `{"error":"give either query or query_id, not both"}`},
	{"k zero", "/aknn", `{"query_id":1,"k":0,"alpha":0.5}`,
		true, 400, `{"error":"query: k must be >= 1, got 0"}`},
	{"k negative", "/rknn", `{"query_id":1,"k":-3,"alpha_start":0.2,"alpha_end":0.8}`,
		true, 400, `{"error":"query: k must be >= 1, got -3"}`},
	// α outside (0, 1] is the query layer's to refuse; an underflowing α
	// reads as 0 on both paths.
	{"alpha zero", "/aknn", `{"query_id":1,"k":1,"alpha":0}`,
		true, 400, replyBadAlpha0},
	{"alpha zero in range", "/range", `{"query_id":1,"alpha":0,"radius":3}`,
		true, 400, replyBadAlpha0},
	{"alpha_start zero", "/rknn", `{"query_id":1,"k":1,"alpha_start":0,"alpha_end":0.8}`,
		true, 400, replyBadAlpha0},
	{"alpha negative", "/aknn", `{"query_id":1,"k":1,"alpha":-0.25}`,
		true, 400, replyBadAlphaN},
	{"alpha negative in range", "/range", `{"query_id":1,"alpha":-0.25,"radius":3}`,
		true, 400, replyBadAlphaN},
	{"alpha_start negative", "/rknn", `{"query_id":1,"k":1,"alpha_start":-0.25,"alpha_end":0.8}`,
		true, 400, replyBadAlphaN},
	{"alpha above one", "/aknn", `{"query_id":1,"k":1,"alpha":1.0000001}`,
		true, 400, replyBadAlphaP},
	{"alpha above one in range", "/range", `{"query_id":1,"alpha":1.0000001,"radius":3}`,
		true, 400, replyBadAlphaP},
	{"alpha_end above one", "/rknn", `{"query_id":1,"k":1,"alpha_start":0.2,"alpha_end":1.0000001}`,
		true, 400, replyBadAlphaP},
	{"alpha underflowing", "/aknn", `{"query_id":1,"k":1,"alpha":1e-400}`,
		true, 400, replyBadAlpha0},
	{"alpha underflowing in range", "/range", `{"query_id":1,"alpha":1e-400,"radius":3}`,
		true, 400, replyBadAlpha0},
	{"alpha_start underflowing", "/rknn", `{"query_id":1,"k":1,"alpha_start":1e-400,"alpha_end":0.8}`,
		true, 400, replyBadAlpha0},
	{"k above n", "/aknn", `{"query_id":1,"k":100,"alpha":0.9,"algo":"lb"}`,
		true, 200, `[{"id":1,"dist":0,"exact":true,"lower":0,"upper":0},{"id":2,"dist":1.118033988749895,"exact":true,"lower":1.118033988749895,"upper":1.118033988749895},{"id":3,"dist":2.23606797749979,"exact":true,"lower":2.23606797749979,"upper":2.23606797749979},{"id":5,"dist":5.0990195135927845,"exact":true,"lower":5.0990195135927845,"upper":5.0990195135927845},{"id":4,"dist":6.324555320336759,"exact":true,"lower":6.324555320336759,"upper":6.324555320336759},{"id":6,"dist":6.324555320336759,"exact":true,"lower":6.324555320336759,"upper":6.324555320336759}]`},
}

// slowForm rewrites a body's first key with an escape, which the scanner
// declines and encoding/json reads as the same key.
func slowForm(body string) string {
	i := strings.IndexByte(body, '"') + 1
	if i == 0 {
		return body
	}
	return fmt.Sprintf(`%s\u%04x%s`, body[:i], body[i], body[i+1:])
}

// post sends body verbatim and returns the status and, for a query's 200,
// the "results" member, else the whole trimmed body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Results json.RawMessage `json:"results"`
		Stats   json.RawMessage `json:"stats"`
	}
	if resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &qr) == nil && qr.Stats != nil {
		return resp.StatusCode, string(qr.Results)
	}
	return resp.StatusCode, strings.TrimSpace(string(raw))
}

// TestJSONEdgeBattery posts every edge case in its own form and in a form
// the scanner must decline, to a fresh server each, and requires both to
// answer what the parent commit answered.
func TestJSONEdgeBattery(t *testing.T) {
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := diffAll(t, []byte(tc.body))[tc.path]; got != tc.scanned {
				t.Fatalf("scanner accepted = %v, want %v", got, tc.scanned)
			}
			if diffAll(t, []byte(slowForm(tc.body)))[tc.path] {
				t.Fatalf("scanner accepted the escaped form %s", slowForm(tc.body))
			}
			for _, body := range []string{tc.body, slowForm(tc.body)} {
				ts, _, _ := newTestServer(t)
				status, reply := post(t, ts.URL+tc.path, body)
				if status != tc.status || reply != tc.reply {
					t.Errorf("%s\nanswered %d %s\nwant     %d %s", body, status, reply, tc.status, tc.reply)
				}
			}
		})
	}
}

// TestTrailingBytesRefused: after the JSON value only whitespace may
// follow. The parent decoded the first value and ignored the rest.
func TestTrailingBytesRefused(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, tc := range []struct{ path, body, want string }{
		{"/aknn", `{"query_id":1,"k":1,"alpha":0.5}{"k":99}`, `invalid request body: invalid character '{' after top-level value`},
		{"/aknn", `{"query_id":1,"k":1,"alpha":0.5} garbage`, `invalid request body: invalid character 'g' after top-level value`},
		{"/aknn", `{"QUERY_ID":1,"k":1,"alpha":0.5}]`, `invalid request body: invalid character ']' after top-level value`},
		{"/objects:batch", `{"delete_ids":[6]}{"delete_ids":[5]}`, `invalid request body: invalid character '{' after top-level value`},
		{"/checkpoint", `{"compact":false}x`, `invalid request body: invalid character 'x' after top-level value`},
	} {
		status, reply := post(t, ts.URL+tc.path, tc.body)
		if want := mustMarshal(t, ErrorResponse{Error: tc.want}); status != http.StatusBadRequest || reply != string(want) {
			t.Errorf("POST %s %s answered %d %s, want 400 %s", tc.path, tc.body, status, reply, want)
		}
	}
	if status, reply := post(t, ts.URL+"/aknn", "{\"query_id\":1,\"k\":1,\"alpha\":0.5}\r\n\t "); status != http.StatusOK {
		t.Errorf("trailing whitespace answered %d %s", status, reply)
	}
}

// FuzzWireScan is the differential check of diffKind over arbitrary bytes,
// read as each of the five endpoints' bodies: whatever the scanner accepts,
// encoding/json accepts and reads identically.
func FuzzWireScan(f *testing.F) {
	// Small pieces, so that the 64-object seed and what grows from it are
	// read in pieces.
	defer func(n int) { minPieceBytes = n }(minPieceBytes)
	minPieceBytes = 512
	q := queryJSON(f)
	id := uint64(3)
	for _, v := range []any{
		AKNNRequest{Query: q, K: 3, Alpha: 0.5, Algo: "lb"},
		AKNNRequest{QueryID: &id, K: 1, Alpha: 0.25},
		RKNNRequest{Query: q, K: 2, AlphaStart: 0.3, AlphaEnd: 1, Algo: "rss-icr"},
		RangeRequest{Query: q, Alpha: 0.5, Radius: 3},
		InsertRequest{Object: q},
		BatchMutateRequest{Objects: []*ObjectJSON{q, {ID: 901}, nil, q}, DeleteIDs: []uint64{6, 777777}},
		splitBody(64, 2),
	} {
		f.Add(mustMarshal(f, v))
	}
	for _, tc := range edgeCases {
		f.Add([]byte(tc.body))
		f.Add([]byte(slowForm(tc.body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) { diffAll(t, body) })
}

// splitBody is a batch of n objects of the given number of points.
func splitBody(n, points int) BatchMutateRequest {
	rng := rand.New(rand.NewSource(3))
	req := BatchMutateRequest{}
	for id := uint64(1); id <= uint64(n); id++ {
		req.Objects = append(req.Objects, randomObject(rng, id, points))
	}
	return req
}

// elem is one compact "objects" element, id first as encoding/json writes
// it; pts are the members of its points, in order.
func elem(id int, pts ...string) string {
	return fmt.Sprintf(`{"id":%d,"points":[%s]}`, id, strings.Join(pts, ","))
}

// elems is the elements first..last, each of one point but the first,
// which has three: a cut at half the list lands inside it.
func elems(first, last int) string {
	var out []string
	for id := first; id <= last; id++ {
		pts := []string{fmt.Sprintf(`{"p":[%d,0.5],"mu":1}`, id)}
		if id == first {
			pts = append(pts, `{"p":[1e-3,-2],"mu":0.25}`, `{"p":[3,4.5e1],"mu":0.75}`)
		}
		out = append(out, elem(id, pts...))
	}
	return strings.Join(out, ",")
}

// splitCases are batch bodies for the split. scanned says whether the
// scanner accepts the body; split whether, at two cores and with every
// piece allowed to be small, the "objects" list is read in pieces that meet.
var splitCases = []struct {
	name           string
	body           string
	scanned, split bool
}{
	{"one object", `{"objects":[` + elems(1, 1) + `]}`, true, false},
	{"two objects", `{"objects":[` + elems(1, 2) + `]}`, true, true},
	{"eight objects and deletes", `{"objects":[` + elems(1, 8) + `],"delete_ids":[20,21]}`, true, true},
	{"empty list", `{"objects":[]}`, true, false},
	{"points before id", `{"objects":[` + elems(1, 2) +
		`,{"points":[{"p":[0,0],"mu":1}],"id":3},` + elems(4, 5) + `,{"points":[{"mu":1,"p":[1,1]}],"id":6}]}`, true, true},
	{"whitespace around every token", " {\n \"objects\" : [ { \"id\" : 1 , \"points\" : [ { \"p\" : [ 0 , 0 ] , \"mu\" : 1 } ] } ,\r\n\t" +
		"{ \"id\" : 2 , \"points\" : [ { \"p\" : [ 1 , 1 ] , \"mu\" : 1 } ] } ] } ", true, false},
	{"whitespace around every token but the guessed ones", " {\n \"objects\" : [ " + elem(1, `{ "p" : [ 0 , 0 ] , "mu" : 1 }`, `{ "p" : [ 9 , 9 ] , "mu" : 0.5 }`) +
		" ,\r\n\t" + elem(2, ` { "p" : [ 1 , 1 ] , "mu" : 1 } `) + " ,  " + elem(3, `{"p":[2,2] ,"mu" :1}`) + " ] } ", true, true},
	{"guess inside a point", `{"objects":[` + elems(1, 2) + `,` + elem(3, `{"id":4,"p":[0,0],"mu":1}`) + `]}`, false, false},
	{"guess inside an unknown member", `{"objects":[` + elem(1, `{"p":[0,0],"mu":1}`, `{"p":[5,5],"mu":1}`) +
		`,{"id":2,"points":[{"p":[1,1],"mu":1}],"x":{"id":9}}]}`, false, false},
	{"bad element inside the second piece", `{"objects":[` + elems(1, 5) + `,` + elem(6, `{"p":[0,0],"mu":null}`) + `]}`, false, false},
	{"refused element inside the second piece", `{"objects":[` + elems(1, 5) + `,` + elem(6, `{"p":[0,0],"mu":0}`) + `,` + elems(7, 7) + `]}`, true, true},
	{"ragged element inside the second piece", `{"objects":[` + elems(1, 5) + `,` + elem(6, `{"p":[0,0],"mu":1}`, `{"p":[0],"mu":1}`) + `]}`, false, false},
	{"repeated objects key", `{"objects":[` + elems(1, 4) + `],"objects":[` + elems(5, 8) + `]}`, false, false},
	{"bracket after the list", `{"objects":[` + elems(1, 8) + `]]}`, false, true},
	{"bytes after the body", `{"objects":[` + elems(1, 8) + `]} x`, false, true},
	{"trailing comma", `{"objects":[` + elems(1, 8) + `,]}`, false, false},
	{"unclosed list", `{"objects":[` + elems(1, 8), false, false},
}

// TestSplitReadsAsSerial: every batch body reads the same through the split
// (at two and at four cores), the serial scanner (at one) and encoding/json.
func TestSplitReadsAsSerial(t *testing.T) {
	defer func(n int) { minPieceBytes = n }(minPieceBytes)
	minPieceBytes = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range splitCases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				if got := diffKind(t, body, batchFields, takeObjects); got != tc.scanned {
					t.Fatalf("at GOMAXPROCS %d the scanner accepted = %v, want %v: %s", procs, got, tc.scanned, body)
				}
			}
			runtime.GOMAXPROCS(2)
			sc := scanners.Get().(*wireScanner)
			defer sc.release()
			sc.b, sc.i = body, bytes.Index(body, []byte(`"objects"`))
			if sc.key() == nil {
				t.Fatal("no objects key")
			}
			from := sc.i
			var objs []inlineObject
			if got := sc.split(&objs); got != tc.split {
				t.Fatalf("split = %v, want %v", got, tc.split)
			} else if !got && (sc.i != from || objs != nil) {
				t.Fatalf("a split that did not meet moved the scanner from %d to %d and read %d objects", from, sc.i, len(objs))
			}
		})
	}
}

// TestSplitAllocs holds the split to the serial scanner's allocation budget
// for a bulk-load group (see TestInlineDecodeAllocs), counted at two cores:
// AllocsPerRun runs at one, where no list is split.
func TestSplitAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const batch, runs = 500, 5
	many := batchBody(t, batch)
	sc := new(wireScanner)
	sc.b, sc.i = many, len(`{"objects":`)
	var objs []inlineObject
	if !sc.split(&objs) || len(objs) != batch {
		t.Fatalf("the split did not read the batch body: %d objects", len(objs))
	}
	var req BatchMutateRequest
	sc.scan(many, batchFields(&req)) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sc.scan(many, batchFields(&req))
	}
	runtime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / runs; n > 3*batch+16 {
		t.Errorf("scanning a %d-object batch in pieces allocates %v times, want ≤ %d", batch, n, 3*batch+16)
	}
}

// rewindBody is a request body a test can send again without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestInlineDecodeAllocs pins what the scanner is for: a body becomes an
// object in three allocations — the slab, the object header and the list
// the object is returned in — however many points it has.
func TestInlineDecodeAllocs(t *testing.T) {
	sc := new(wireScanner)
	one := aknnBody(t)
	var req AKNNRequest
	if objs, ok := sc.scan(one, aknnFields(&req)); !ok || len(objs) != 1 || objs[0].err != nil || objs[0].obj.Len() != 128 {
		t.Fatalf("scanner did not read the AKNN body: %v %v", objs, ok)
	}
	if n := testing.AllocsPerRun(50, func() { sc.scan(one, aknnFields(&req)) }); n > 3 {
		t.Errorf("scanning one 128-point AKNN body allocates %v times, want ≤ 3", n)
	}

	const batch = 500
	many := batchBody(t, batch)
	var breq BatchMutateRequest
	if objs, ok := sc.scan(many, batchFields(&breq)); !ok || len(objs) != batch {
		t.Fatalf("scanner did not read the batch body: %d objects, %v", len(objs), ok)
	}
	// Two per object, and the list's doublings.
	if n := testing.AllocsPerRun(5, func() { sc.scan(many, batchFields(&breq)) }); n > 3*batch+16 {
		t.Errorf("scanning a %d-object batch allocates %v times, want ≤ %d", batch, n, 3*batch+16)
	}
}

// TestLargeBodyNotPooled: a scanner that grew past maxPooledBytes — by its
// body or by the points of one huge object — gives its memory back, so one
// 16 MiB request cannot pin 16 MiB.
func TestLargeBodyNotPooled(t *testing.T) {
	scanAndRelease := func(body []byte) *wireScanner {
		r := httptest.NewRequest("POST", "/objects:batch", bytes.NewReader(body))
		sc, ok := readBody(httptest.NewRecorder(), r)
		if !ok {
			t.Fatal("readBody refused the body")
		}
		var req BatchMutateRequest
		if _, ok := sc.scan(sc.body.Bytes(), batchFields(&req)); !ok {
			t.Fatal("scanner declined the body")
		}
		sc.release()
		return sc
	}
	if sc := scanAndRelease(batchBody(t, 4)); sc.body.Cap() == 0 || cap(sc.coords) == 0 {
		t.Errorf("a %d-byte body's scanner was not kept for reuse", sc.body.Cap())
	}
	big := batchBody(t, 2*maxPooledBytes/len(aknnBody(t)))
	if len(big) <= maxPooledBytes {
		t.Fatalf("test body is only %d bytes", len(big))
	}
	if sc := scanAndRelease(big); sc.body.Cap() != 0 || cap(sc.coords) != 0 {
		t.Errorf("a %d-byte body left %d bytes pooled", len(big), sc.body.Cap())
	}
	// A small body of many points: the scratch slabs outgrow the cap.
	wide := []byte(`{"objects":[{"points":[{"mu":1,"p":[0` + strings.Repeat(",0", maxPooledBytes/8) + `]}]}]}`)
	if sc := scanAndRelease(wide); sc.body.Cap() != 0 || cap(sc.coords) != 0 {
		t.Errorf("a %d-coordinate point left %d floats pooled", maxPooledBytes/8, cap(sc.coords))
	}
}

// BenchmarkDecodeInlineAKNN is the handler-side decode of one 128-point
// inline AKNN request: body read, scan, FromSlabs.
func BenchmarkDecodeInlineAKNN(b *testing.B) {
	benchmarkDecode(b, "/aknn", aknnBody(b), func(w http.ResponseWriter, r *http.Request) bool {
		var req AKNNRequest
		objs, ok := decodeBody(w, r, &req, aknnFields(&req))
		return ok && len(objs) == 1 && objs[0].err == nil
	})
}

// BenchmarkDecodeBatch is the same for one 500-object bulk-load group.
func BenchmarkDecodeBatch(b *testing.B) {
	benchmarkDecode(b, "/objects:batch", batchBody(b, 500), func(w http.ResponseWriter, r *http.Request) bool {
		var req BatchMutateRequest
		objs, ok := decodeBody(w, r, &req, batchFields(&req))
		return ok && len(objs) == 500
	})
}

func benchmarkDecode(b *testing.B, path string, raw []byte, decode func(http.ResponseWriter, *http.Request) bool) {
	body := &rewindBody{}
	r := httptest.NewRequest("POST", path, body)
	r.ContentLength = int64(len(raw))
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(raw)
		if !decode(w, r) {
			b.Fatal("decode failed")
		}
	}
}
