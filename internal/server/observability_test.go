package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
)

// scrape fetches /metrics and returns the exposition page.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts the value of one exact series line from an
// exposition page, failing the test when the series is absent.
func seriesValue(t *testing.T, page, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

// TestServeMetricsExposition drives traffic and checks /metrics exposes the
// engine and HTTP families, and that per-family histogram counts and sums
// advance with traffic.
func TestServeMetricsExposition(t *testing.T) {
	ts, _, _ := newTestServer(t)

	aknnReq := map[string]any{"query": queryJSON(t), "k": 3, "alpha": 0.5}
	var out QueryResponse
	if code := postJSON(t, ts.URL+"/aknn", aknnReq, &out); code != http.StatusOK {
		t.Fatalf("POST /aknn = %d, want 200", code)
	}
	page := scrape(t, ts.URL)

	// Presence: every advertised family, pre-registered series included.
	for _, want := range []string{
		"# TYPE fuzzyknn_requests_total counter",
		"# TYPE fuzzyknn_request_duration_seconds histogram",
		`fuzzyknn_requests_total{kind="rknn"} 0`, // pre-registered, untouched
		`fuzzyknn_engine_queue_depth{queue="query"}`,
		`fuzzyknn_engine_queue_depth{queue="write"}`,
		`fuzzyknn_engine_queue_capacity{queue="query"}`,
		`fuzzyknn_engine_inflight{queue="query"}`,
		"# TYPE fuzzyknn_engine_write_batch_size histogram",
		"fuzzyknn_engine_overloaded_total 0",
		"fuzzyknn_engine_checkpoints_total 0",
		"fuzzyknn_engine_object_accesses_total",
		"fuzzyknn_engine_lazy_deferred_total",
		"fuzzyknn_engine_lazy_admitted_total",
		"fuzzyknn_http_panics_total 0",
		"fuzzyknn_index_objects 6",
		`fuzzyknn_http_requests_total{code="200",endpoint="POST /aknn"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("exposition missing %q:\n%s", want, page)
		}
	}

	count1 := seriesValue(t, page, `fuzzyknn_request_duration_seconds_count{kind="aknn"}`)
	sum1 := seriesValue(t, page, `fuzzyknn_request_duration_seconds_sum{kind="aknn"}`)
	if count1 < 1 {
		t.Fatalf("aknn latency count = %v after one query, want >= 1", count1)
	}

	// More traffic advances count and sum.
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/aknn", aknnReq, &out); code != http.StatusOK {
			t.Fatalf("POST /aknn = %d, want 200", code)
		}
	}
	page = scrape(t, ts.URL)
	count2 := seriesValue(t, page, `fuzzyknn_request_duration_seconds_count{kind="aknn"}`)
	sum2 := seriesValue(t, page, `fuzzyknn_request_duration_seconds_sum{kind="aknn"}`)
	if count2 != count1+3 {
		t.Fatalf("aknn latency count = %v, want %v", count2, count1+3)
	}
	if sum2 <= sum1 {
		t.Fatalf("aknn latency sum did not advance: %v -> %v", sum1, sum2)
	}
	if got := seriesValue(t, page, `fuzzyknn_requests_total{kind="aknn"}`); got != count2 {
		t.Fatalf("requests_total (%v) and histogram count (%v) disagree", got, count2)
	}
}

// TestServeRuntimeMemoryGauges: /metrics reports the process's memory from
// runtime/metrics — the live heap the last collection found, and above it
// the next collection's goal and everything the runtime has mapped.
func TestServeRuntimeMemoryGauges(t *testing.T) {
	ts, _, _ := newTestServer(t)
	runtime.GC() // the live-heap series is zero until a collection has run
	page := scrape(t, ts.URL)
	live := seriesValue(t, page, "fuzzyknn_go_heap_live_bytes")
	goal := seriesValue(t, page, "fuzzyknn_go_heap_goal_bytes")
	total := seriesValue(t, page, "fuzzyknn_go_memory_bytes")
	if live <= 0 || goal < live || total < live {
		t.Fatalf("heap live %v, goal %v, runtime total %v: want 0 < live ≤ goal and live ≤ total", live, goal, total)
	}
	for _, g := range []string{"fuzzyknn_go_heap_live_bytes", "fuzzyknn_go_heap_goal_bytes", "fuzzyknn_go_memory_bytes"} {
		if !strings.Contains(page, "# TYPE "+g+" gauge") {
			t.Fatalf("%s is not exposed as a gauge:\n%s", g, page)
		}
	}
}

// TestServeOversizedBody413 pins the MaxBytesReader regression: a body over
// the 16 MiB cap must answer 413 (not a generic 400) on both the query and
// batch decode paths, with a JSON error body.
func TestServeOversizedBody413(t *testing.T) {
	ts, _, _ := newTestServer(t)

	// 16 MiB of leading whitespace then a valid value: the decoder skips
	// whitespace through MaxBytesReader, so the cap trips regardless of
	// JSON validity.
	pad := bytes.Repeat([]byte(" "), maxBodyBytes+1024)
	for _, path := range []string{"/aknn", "/objects:batch", "/checkpoint"} {
		body := append(append([]byte(nil), pad...), []byte("{}")...)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized = %d, want 413", path, resp.StatusCode)
		}
		assertJSONError(t, resp, "exceeds")
	}

	// A small malformed body is still the client's 400.
	resp, err := http.Post(ts.URL+"/aknn", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /aknn malformed = %d, want 400", resp.StatusCode)
	}
	assertJSONError(t, resp, "invalid request body")
}

// assertJSONError checks an error response carries the JSON content type
// and an error field mentioning want.
func assertJSONError(t *testing.T, resp *http.Response, want string) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if !strings.Contains(e.Error, want) {
		t.Fatalf("error %q does not mention %q", e.Error, want)
	}
}

// TestServePanicRecovery pins the recover middleware: a panicking handler
// answers a logged JSON 500 and bumps fuzzyknn_http_panics_total, and the
// server keeps serving afterwards.
func TestServePanicRecovery(t *testing.T) {
	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5)}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	var mu sync.Mutex
	var logged []string
	s := New(ix, eng, &Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	// Same-package test hook: a route that panics like a latent handler bug.
	s.mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); eng.Close(); ix.Close() })

	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /panic = %d, want 500", resp.StatusCode)
	}
	assertJSONError(t, resp, "internal error")

	mu.Lock()
	haveLog := false
	for _, l := range logged {
		if strings.Contains(l, "panic serving GET /panic") {
			haveLog = true
		}
	}
	mu.Unlock()
	if !haveLog {
		t.Fatalf("panic was not logged: %q", logged)
	}

	page := scrape(t, ts.URL)
	if got := seriesValue(t, page, "fuzzyknn_http_panics_total"); got != 1 {
		t.Fatalf("panics_total = %v, want 1", got)
	}
	// Still serving.
	var out QueryResponse
	if code := postJSON(t, ts.URL+"/aknn", map[string]any{"query": queryJSON(t), "k": 1, "alpha": 0.5}, &out); code != http.StatusOK {
		t.Fatalf("POST /aknn after panic = %d, want 200", code)
	}
}

// TestServeRequestDeadline504 pins the per-request deadline: with an
// already-expired budget the request answers 504 promptly instead of
// hanging, and the error body is JSON.
func TestServeRequestDeadline504(t *testing.T) {
	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5)}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	s := New(ix, eng, &Options{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); eng.Close(); ix.Close() })

	done := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"query": queryJSON(t), "k": 1, "alpha": 0.5})
		resp, err := http.Post(ts.URL+"/aknn", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- resp
	}()
	select {
	case resp := <-done:
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("expired request = %d, want 504", resp.StatusCode)
		}
		assertJSONError(t, resp, "deadline exceeded")
	case <-time.After(10 * time.Second):
		t.Fatal("expired request hung instead of answering 504")
	}
}

// TestServeRunningQueryDeadline504 pins that a deadline ends a request
// that is already running: a basic RKNN at k = 300 over 500 objects and a
// wide window runs for about 0.8 s with no deadline on the one worker of a
// 2-core box (four times the deadline), and at a 200 ms RequestTimeout the
// request answers 504 at its deadline instead of when the worker is done.
func TestServeRunningQueryDeadline504(t *testing.T) {
	p := dataset.Default(dataset.Synthetic)
	p.N, p.PointsPerObject, p.Space = 500, 50, math.Sqrt(500.0/5)
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 1})
	ts := httptest.NewServer(New(ix, eng, &Options{RequestTimeout: 200 * time.Millisecond}))
	t.Cleanup(func() { ts.Close(); eng.Close(); ix.Close() })

	body, _ := json.Marshal(map[string]any{"query_id": 1, "k": 300, "alpha_start": 0.01, "alpha_end": 1, "algo": "basic"})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/rknn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("RKNN past its deadline = %d, want 504", resp.StatusCode)
	}
	assertJSONError(t, resp, "deadline exceeded")
	if took > 600*time.Millisecond {
		t.Errorf("504 came after %v, want at the 200 ms deadline", took)
	}
	var sb strings.Builder
	if err := eng.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `fuzzyknn_requests_cancelled_total{kind="rknn",stage="running"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("metrics lack %s", want)
	}
}

// TestServeSlowRequestLog checks the structured slow-request line fires for
// requests over the threshold and carries the endpoint pattern.
func TestServeSlowRequestLog(t *testing.T) {
	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5)}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	var mu sync.Mutex
	var logged []string
	s := New(ix, eng, &Options{
		SlowRequestThreshold: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); eng.Close(); ix.Close() })

	var out QueryResponse
	if code := postJSON(t, ts.URL+"/aknn", map[string]any{"query": queryJSON(t), "k": 1, "alpha": 0.5}, &out); code != http.StatusOK {
		t.Fatalf("POST /aknn = %d, want 200", code)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logged {
		if strings.HasPrefix(l, "slow_request ") &&
			strings.Contains(l, `endpoint="POST /aknn"`) &&
			strings.Contains(l, "status=200") {
			return
		}
	}
	t.Fatalf("no slow_request line for /aknn in %q", logged)
}

// TestServeSaturation429 saturates a single-worker engine through HTTP and
// checks sheds surface as 429 + Retry-After while admitted queries still
// answer 200 with results — the end-to-end form of the engine-level
// admission test, run under -race in CI.
func TestServeSaturation429(t *testing.T) {
	// A bigger index than the default fixture so each query costs real
	// work and one worker cannot drain a burst within the tiny budget.
	var objs []*fuzzyknn.Object
	for i := 0; i < 300; i++ {
		objs = append(objs, blob(t, uint64(i+1), float64(i%20), float64(i/20)))
	}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A nanosecond admission budget makes any client that loses the
	// fast-path race shed immediately — no dependence on query duration.
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{
		Parallelism:   1,
		QueueDepth:    1,
		AdmissionWait: time.Nanosecond,
	})
	s := New(ix, eng, nil)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); eng.Close(); ix.Close() })

	body, err := json.Marshal(map[string]any{"query": queryJSON(t), "k": 10, "alpha": 0.5, "algo": "basic"})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	type outcome struct {
		code       int
		retryAfter string
		results    int
	}
	burst := func() []outcome {
		start := make(chan struct{})
		outcomes := make([]outcome, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/aknn", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				o := outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
				if resp.StatusCode == http.StatusOK {
					var q QueryResponse
					if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
						t.Errorf("decoding 200 body: %v", err)
					}
					o.results = len(q.Results)
				}
				outcomes[i] = o
			}(i)
		}
		close(start)
		wg.Wait()
		return outcomes
	}

	// One burst nearly always produces both outcomes; if the scheduler
	// serialises a whole burst, run another — sheds and successes only
	// accumulate, so the metric checks below stay exact.
	var ok200, shed429 int
	deadline := time.Now().Add(10 * time.Second)
	for (ok200 == 0 || shed429 == 0) && time.Now().Before(deadline) {
		for i, o := range burst() {
			switch o.code {
			case http.StatusOK:
				ok200++
				if o.results == 0 {
					t.Fatalf("client %d: 200 with no results", i)
				}
			case http.StatusTooManyRequests:
				shed429++
				if o.retryAfter == "" {
					t.Fatalf("client %d: 429 without Retry-After", i)
				}
			default:
				t.Fatalf("client %d: unexpected status %d", i, o.code)
			}
		}
	}
	if ok200 == 0 {
		t.Fatal("no request completed during saturation")
	}
	if shed429 == 0 {
		t.Fatal("no request was shed with 429 during saturation")
	}

	// The sheds are visible on /metrics, as engine sheds and HTTP 429s.
	page := scrape(t, ts.URL)
	if got := seriesValue(t, page, "fuzzyknn_engine_overloaded_total"); got != float64(shed429) {
		t.Fatalf("overloaded_total = %v, want %d", got, shed429)
	}
	if got := seriesValue(t, page, `fuzzyknn_http_requests_total{code="429",endpoint="POST /aknn"}`); got != float64(shed429) {
		t.Fatalf("http 429 counter = %v, want %d", got, shed429)
	}
}

// TestServePprofOptIn checks pprof is absent by default and mounted (and
// exempt from the request deadline) with EnablePprof.
func TestServePprofOptIn(t *testing.T) {
	ts, _, _ := newTestServer(t) // default options: no pprof
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("default /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5)}
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	s := New(ix, eng, &Options{EnablePprof: true, RequestTimeout: time.Nanosecond})
	ts2 := httptest.NewServer(s)
	t.Cleanup(func() { ts2.Close(); eng.Close(); ix.Close() })

	// The nanosecond deadline would kill any profile if applied; the pprof
	// exemption keeps this 200.
	resp, err = http.Get(ts2.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof goroutine = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof body does not look like a profile: %.100s", body)
	}
}

// TestWriteErrorsAlwaysJSON sweeps the client-visible error paths and
// checks each one sets Content-Type: application/json.
func TestWriteErrorsAlwaysJSON(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"malformed body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/aknn", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"missing query", func() (*http.Response, error) {
			return http.Post(ts.URL+"/aknn", "application/json", strings.NewReader(`{"k": 3, "alpha": 0.5}`))
		}, http.StatusBadRequest},
		{"unknown query_id", func() (*http.Response, error) {
			return http.Post(ts.URL+"/aknn", "application/json", strings.NewReader(`{"query_id": 999, "k": 3, "alpha": 0.5}`))
		}, http.StatusNotFound},
		{"invalid k", func() (*http.Response, error) {
			return http.Post(ts.URL+"/rknn", "application/json", strings.NewReader(`{"query_id": 1, "k": 0, "alpha_start": 0.2, "alpha_end": 0.4}`))
		}, http.StatusBadRequest},
		{"delete unknown id", func() (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/objects/424242", nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}, http.StatusNotFound},
		{"delete bad id", func() (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/objects/notanumber", nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}, http.StatusBadRequest},
		{"empty batch", func() (*http.Response, error) {
			return http.Post(ts.URL+"/objects:batch", "application/json", strings.NewReader(`{}`))
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("%s: body is not a JSON error (%v)", tc.name, err)
		}
		resp.Body.Close()
	}
}

// TestServeExplain: ?explain=1 adds the query.Stats counters "stats"
// leaves out and the engine's queue/service split to /aknn, /rknn and
// /range replies; without it (or with another value) the reply has no
// explain member and the same answer.
func TestServeExplain(t *testing.T) {
	ts, _, _ := newTestServer(t)
	bodies := map[string]any{
		"/aknn":  AKNNRequest{Query: queryJSON(t), K: 3, Alpha: 0.5},
		"/rknn":  RKNNRequest{Query: queryJSON(t), K: 2, AlphaStart: 0.3, AlphaEnd: 1},
		"/range": RangeRequest{Query: queryJSON(t), Alpha: 0.5, Radius: 3},
	}
	type reply struct {
		Results json.RawMessage `json:"results"`
		Stats   StatsJSON       `json:"stats"`
		Explain *ExplainJSON    `json:"explain"`
	}
	for path, body := range bodies {
		var plain, off, ex reply
		for url, dst := range map[string]*reply{path: &plain, path + "?explain=0": &off, path + "?explain=1": &ex} {
			if status := postJSON(t, ts.URL+url, body, dst); status != http.StatusOK {
				t.Fatalf("%s: status %d", url, status)
			}
		}
		if plain.Explain != nil || off.Explain != nil {
			t.Fatalf("%s: explain member without ?explain=1: %+v, %+v", path, plain.Explain, off.Explain)
		}
		if !bytes.Equal(plain.Results, ex.Results) || !bytes.Equal(plain.Results, off.Results) {
			t.Fatalf("%s: answers differ with explain:\n%s\n%s\n%s", path, plain.Results, off.Results, ex.Results)
		}
		e := ex.Explain
		if e == nil {
			t.Fatalf("%s?explain=1: no explain member", path)
		}
		// The query ran inside its service time, after its queue wait.
		if d := ex.Stats.DurationNs; e.QueueNs < 0 || d <= 0 || e.ServiceNs < d {
			t.Errorf("%s: queue %d ns, service %d ns, query %d ns", path, e.QueueNs, e.ServiceNs, d)
		}
		if rknn := e.AKNNCalls > 0 && e.Candidates > 0 && e.Pieces > 0 && e.ProfilesBuilt > 0; rknn != (path == "/rknn") {
			t.Errorf("%s: explain %+v", path, *e)
		}
	}
}
