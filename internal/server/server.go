// Package server exposes a fuzzyknn index over JSON/HTTP, backed by the
// concurrent query engine.
//
// Endpoints (request/response bodies are JSON):
//
//	POST   /aknn          {query|query_id, k, alpha, algo?}                → {results, stats}
//	POST   /rknn          {query|query_id, k, alpha_start, alpha_end, algo?} → {results, stats}
//	POST   /range         {query|query_id, alpha, radius}                  → {results, stats}
//	POST   /aknn?explain=1 (also /rknn, /range)                            → {results, stats, explain}
//	POST   /objects       {object}                                        → {id, objects, object_accesses}
//	POST   /objects:batch {objects: [...], delete_ids?: [...]}            → {results, applied, failed, objects}
//	DELETE /objects/{id}                                                  → {id, objects, object_accesses}
//	POST   /checkpoint    {} (body optional)                              → {shards}
//	GET    /stats         index size + engine lifetime totals
//	GET    /metrics       Prometheus text exposition (engine + HTTP series)
//	GET    /healthz       liveness probe; reports degraded mode (always 200)
//	GET    /debug/pprof/* runtime profiles (opt-in via Options.EnablePprof)
//	GET    /replication/checkpoint  binary bootstrap snapshot (leader role)
//	GET    /replication/log         committed frame stream, long-poll (leader role)
//
// With Options.Replication set the server is a replication leader: the two
// /replication/ endpoints (binary, not JSON — see internal/replica for the
// wire format) let followers bootstrap and tail the index's committed
// mutations. With Options.Follower set it is a read-only replica: the full
// query surface stays up, mutation endpoints answer 403 pointing at the
// leader, and /stats + /metrics report the applied sequence and frame lag.
//
// The mutation endpoints require a mutable index (in-memory or log-backed);
// on a read-only index they answer 500. A duplicate insert id or malformed
// object is the client's fault (400), deleting an id that is not live is
// 404. Mutations are dispatched through the engine like queries, so they
// share its worker pool, cancellation and lifetime statistics, and every
// query in flight during a mutation keeps its consistent snapshot.
//
// When the index's storage fail-stops (a failed fsync poisons the store),
// the server enters degraded read-only mode: every query keeps serving from
// the last published snapshot, mutations and checkpoints answer 503 with
// the fail-stop reason, /healthz stays 200 (the process is alive and
// useful) but reports {"status": "degraded", "reason": ...}, and /stats and
// /metrics expose the state for alerting (fuzzyknn_degraded,
// fuzzyknn_storage_faults_total). The condition is sticky — recovery is
// restarting the process on healthy storage.
//
// Error taxonomy beyond that: a request body over the 16 MiB cap is 413, a
// request that outlives Options.RequestTimeout is 504, and a request the
// engine sheds because its queue stayed full past the admission budget is
// 429 with a Retry-After header — the signal a well-behaved client backs
// off on. Every handler runs under a recover middleware: a panic becomes a
// logged JSON 500 (and a fuzzyknn_http_panics_total increment) instead of
// a severed connection. All error bodies are JSON with Content-Type set.
//
// Requests slower than Options.SlowRequestThreshold are logged as one
// structured line (slow_request method=… endpoint=… status=… duration=…),
// giving tail-latency forensics without a tracing dependency.
//
// POST /objects:batch ingests many objects (and optionally retires ids) in
// one request: the items flow into the engine's write coalescer together,
// so the whole batch typically lands as one group commit — one snapshot
// publish and one fsync on a log-backed index — instead of N. The response
// always reports per item: each entry carries the id, the operation, and
// an error string for the items that failed (invalid object, duplicate id,
// unknown delete id); valid items commit even when others fail. The
// request itself only 400s when the body is malformed or the batch is
// empty.
//
// POST /checkpoint cuts a durable checkpoint of every shard's log store
// while the server keeps answering queries and mutations: a snapshot of
// the live set, plus a fresh log holding only the records written since
// the cut. The next process start then loads the snapshots and replays
// only those logs, restarting in time proportional to live data. On an
// index whose store cannot checkpoint (in-memory or read-only) it answers
// 501. GET /stats reports each shard's checkpoint generation, size and age.
//
// The query object is given inline ({"points": [{"p": [x, y], "mu": 0.8},
// ...]}) or as a stored id ({"query_id": 7}; resolving it counts as one
// object access, like any store probe). Algorithm names match the CLI tools:
// basic | lb | lb-lp | lb-lp-ub for AKNN (default lb-lp-ub) and
// basic | rss | rss-icr for RKNN (default rss-icr); "naive", whose cost
// grows with every membership level in the window, answers 400.
//
// A body is one JSON value — after it only whitespace may follow — with no
// field the endpoint does not have. Bodies written the canonical way (these
// lower-case keys, each once, plain numbers) are read by a scanner straight
// into the object's storage (wirescan.go); every other body is read by
// encoding/json, which alone decides what is accepted and words each 400.
//
// Each HTTP request becomes one engine request, so the engine's Parallelism
// bounds concurrent query execution no matter how many connections are open,
// and a client that disconnects cancels its queued query.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/metrics"
)

// Options tunes the server's operational behavior. The zero value (or a nil
// pointer to New) serves with no deadline, no slow-request log and no pprof
// — the pre-observability defaults.
type Options struct {
	// RequestTimeout is the per-request deadline, threaded as a context
	// deadline through Engine.Do: it bounds queue wait and execution
	// together, and an expired request answers 504 instead of occupying a
	// handler goroutine indefinitely. Zero disables it. pprof endpoints are
	// exempt (profiles legitimately run for tens of seconds).
	RequestTimeout time.Duration
	// SlowRequestThreshold, when > 0, logs one structured line for every
	// request whose total wall time reaches it.
	SlowRequestThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so operators opt in.
	EnablePprof bool
	// Logf receives panic and slow-request log lines. Nil selects a no-op
	// in tests' favor; cmd/fuzzyserve wires log.Printf.
	Logf func(format string, args ...any)
	// Replication, when non-nil, makes this server a replication leader:
	// GET /replication/checkpoint and GET /replication/log serve the
	// bootstrap snapshot and committed-frame feed of the index's
	// replication log (see fuzzyknn.Index.EnableReplication). These
	// endpoints are exempt from RequestTimeout — tailing is a long-poll.
	Replication *fuzzyknn.Replication
	// Follower, when non-nil, marks this server a read-only replica fed by
	// the given follower: mutation endpoints answer 403 (writes go to the
	// leader), and /stats + /metrics report the apply position and lag.
	// The caller drives the follower loop (Follower.Run) itself.
	Follower *fuzzyknn.Follower
}

// Server is an http.Handler serving one index through one engine. Both are
// borrowed: closing them remains the caller's responsibility and must happen
// after the server stops.
type Server struct {
	ix   *fuzzyknn.Index
	eng  *fuzzyknn.Engine
	mux  *http.ServeMux
	opts Options

	// reg holds the HTTP-layer series (request counts/latency by endpoint
	// and status, panics, index size); GET /metrics renders it followed by
	// the engine's registry.
	reg    *metrics.Registry
	panics *metrics.Counter
	repl   replState
}

// runtimeGauge returns a sampler of one uint64 runtime/metrics series.
func runtimeGauge(name string) func() int64 {
	return func() int64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
}

// New builds the handler. opts may be nil for defaults.
func New(ix *fuzzyknn.Index, eng *fuzzyknn.Engine, opts *Options) *Server {
	s := &Server{ix: ix, eng: eng, mux: http.NewServeMux(), reg: metrics.NewRegistry()}
	if opts != nil {
		s.opts = *opts
	}
	s.panics = s.reg.Counter("fuzzyknn_http_panics_total",
		"Handler panics recovered into JSON 500 responses.")
	s.reg.GaugeFunc("fuzzyknn_index_objects",
		"Live objects in the served index.",
		func() int64 { return int64(ix.Len()) })
	s.reg.GaugeFunc("fuzzyknn_degraded",
		"1 while the index is in sticky degraded read-only mode after a storage fail-stop, else 0.",
		func() int64 {
			if ix.Degraded() != nil {
				return 1
			}
			return 0
		})
	s.reg.CounterFunc("fuzzyknn_storage_faults_total",
		"Store operations refused by fail-stopped storage (the triggering fault plus every rejected retry).",
		ix.StorageFaults)
	// The process's memory, read from runtime/metrics at scrape time only.
	s.reg.GaugeFunc("fuzzyknn_go_heap_live_bytes",
		"Heap bytes the last garbage collection found live.",
		runtimeGauge("/gc/heap/live:bytes"))
	s.reg.GaugeFunc("fuzzyknn_go_heap_goal_bytes",
		"Heap size at which the next garbage collection starts.",
		runtimeGauge("/gc/heap/goal:bytes"))
	s.reg.GaugeFunc("fuzzyknn_go_memory_bytes",
		"All memory the Go runtime has mapped for the process (heap, stacks, runtime metadata).",
		runtimeGauge("/memory/classes/total:bytes"))
	// One cache vocabulary for both caching layers: the block cache holds
	// index pages (cache="pages"), the store LRU holds decoded object
	// payloads (cache="objects"). Families register only for the layers the
	// index actually has, so in-memory deployments scrape no dead series.
	if _, ok := ix.PageCacheStats(); ok {
		pc := func(pick func(fuzzyknn.CacheStats) int64) func() int64 {
			return func() int64 {
				cs, _ := ix.PageCacheStats()
				return pick(cs)
			}
		}
		s.reg.CounterFunc("fuzzyknn_cache_hits_total",
			"Cache lookups served without touching the layer below, by cache.",
			pc(func(c fuzzyknn.CacheStats) int64 { return c.Hits }), "cache", "pages")
		s.reg.CounterFunc("fuzzyknn_cache_misses_total",
			"Cache lookups that fell through to the layer below, by cache.",
			pc(func(c fuzzyknn.CacheStats) int64 { return c.Misses }), "cache", "pages")
		s.reg.CounterFunc("fuzzyknn_cache_evictions_total",
			"Entries dropped to stay under capacity, by cache.",
			pc(func(c fuzzyknn.CacheStats) int64 { return c.Evictions }), "cache", "pages")
		s.reg.GaugeFunc("fuzzyknn_cache_resident_bytes",
			"Bytes held resident, by cache.",
			pc(func(c fuzzyknn.CacheStats) int64 { return c.ResidentBytes }), "cache", "pages")
		s.reg.GaugeFunc("fuzzyknn_cache_capacity_bytes",
			"Configured capacity in bytes, by cache.",
			pc(func(c fuzzyknn.CacheStats) int64 { return c.CapacityBytes }), "cache", "pages")
	}
	if _, _, ok := ix.ObjectCacheStats(); ok {
		s.reg.CounterFunc("fuzzyknn_cache_hits_total",
			"Cache lookups served without touching the layer below, by cache.",
			func() int64 { h, _, _ := ix.ObjectCacheStats(); return h }, "cache", "objects")
		s.reg.CounterFunc("fuzzyknn_cache_misses_total",
			"Cache lookups that fell through to the layer below, by cache.",
			func() int64 { _, m, _ := ix.ObjectCacheStats(); return m }, "cache", "objects")
	}
	s.mux.HandleFunc("POST /aknn", s.handleAKNN)
	s.mux.HandleFunc("POST /rknn", s.handleRKNN)
	s.mux.HandleFunc("POST /range", s.handleRange)
	s.mux.HandleFunc("POST /objects", s.handleInsert)
	s.mux.HandleFunc("POST /objects:batch", s.handleBatchMutate)
	s.mux.HandleFunc("DELETE /objects/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.registerReplication()
	if s.opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// statusRecorder captures the response status (and whether anything was
// written) so the middleware can record metrics and avoid double-writing
// after a handler panic.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ServeHTTP implements http.Handler. Every request passes through one
// middleware layer doing four jobs: per-request deadline injection, panic
// recovery into a JSON 500, per-endpoint request/latency metrics, and the
// slow-request log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			// http.ErrAbortHandler is net/http's sanctioned way to drop a
			// connection — pass it through.
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			s.panics.Inc()
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !rec.wrote {
				writeError(rec, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}
		s.observe(r, rec, time.Since(start))
	}()
	if s.opts.RequestTimeout > 0 && !strings.HasPrefix(r.URL.Path, "/debug/pprof") &&
		!strings.HasPrefix(r.URL.Path, "/replication/") {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(rec, r)
}

// observe books one finished request into the HTTP metric families and the
// slow-request log. The endpoint label is the mux pattern (bounded
// cardinality), never the raw path.
func (s *Server) observe(r *http.Request, rec *statusRecorder, elapsed time.Duration) {
	pattern := r.Pattern // what the mux matched
	if pattern == "" {
		pattern = "unmatched"
	}
	status := rec.status
	if status == 0 {
		status = http.StatusOK // handler returned without writing
	}
	s.reg.Counter("fuzzyknn_http_requests_total",
		"HTTP requests by endpoint pattern and status code.",
		"endpoint", pattern, "code", strconv.Itoa(status)).Inc()
	durBounds, durScale := metrics.DurationBuckets()
	s.reg.Histogram("fuzzyknn_http_request_duration_seconds",
		"Total request wall time by endpoint pattern.",
		durBounds, durScale, "endpoint", pattern).ObserveDuration(elapsed)
	if s.opts.SlowRequestThreshold > 0 && elapsed >= s.opts.SlowRequestThreshold {
		s.logf("slow_request method=%s path=%s endpoint=%q status=%d duration=%s",
			r.Method, r.URL.Path, pattern, status, elapsed)
	}
}

// handleMetrics renders the HTTP-layer registry followed by the engine's:
// two registries, one page. Families are disjoint by construction
// (fuzzyknn_http_*/fuzzyknn_index_* here, fuzzyknn_*/fuzzyknn_engine_*
// there), so concatenation is valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	_ = s.eng.WriteMetrics(w)
}

// --- wire types ---

// PointJSON is one weighted point of a query object.
type PointJSON struct {
	P  []float64 `json:"p"`
	Mu float64   `json:"mu"`
}

// ObjectJSON is an inline fuzzy object.
type ObjectJSON struct {
	ID     uint64      `json:"id,omitempty"`
	Points []PointJSON `json:"points"`
}

// AKNNRequest is the body of POST /aknn.
type AKNNRequest struct {
	Query   *ObjectJSON `json:"query,omitempty"`
	QueryID *uint64     `json:"query_id,omitempty"`
	K       int         `json:"k"`
	Alpha   float64     `json:"alpha"`
	Algo    string      `json:"algo,omitempty"`
}

// RKNNRequest is the body of POST /rknn.
type RKNNRequest struct {
	Query      *ObjectJSON `json:"query,omitempty"`
	QueryID    *uint64     `json:"query_id,omitempty"`
	K          int         `json:"k"`
	AlphaStart float64     `json:"alpha_start"`
	AlphaEnd   float64     `json:"alpha_end"`
	Algo       string      `json:"algo,omitempty"`
}

// RangeRequest is the body of POST /range.
type RangeRequest struct {
	Query   *ObjectJSON `json:"query,omitempty"`
	QueryID *uint64     `json:"query_id,omitempty"`
	Alpha   float64     `json:"alpha"`
	Radius  float64     `json:"radius"`
}

// InsertRequest is the body of POST /objects. The object's id must be
// unique among live objects.
type InsertRequest struct {
	Object *ObjectJSON `json:"object"`
}

// MutationResponse is the body of successful /objects responses: the id
// acted on, the live object count afterwards and the object accesses the
// write charged (a delete's locate probe; an insert probes nothing).
type MutationResponse struct {
	ID             uint64 `json:"id"`
	Objects        int    `json:"objects"`
	ObjectAccesses int    `json:"object_accesses,omitempty"`
}

// BatchMutateRequest is the body of POST /objects:batch: objects to insert
// and, optionally, ids to delete. Inserts apply before deletes.
type BatchMutateRequest struct {
	Objects   []*ObjectJSON `json:"objects,omitempty"`
	DeleteIDs []uint64      `json:"delete_ids,omitempty"`
}

// BatchItemJSON reports one batch item's outcome. Error is empty for items
// that committed; ObjectAccesses is what the item charged, as in a
// MutationResponse.
type BatchItemJSON struct {
	Op             string `json:"op"` // "insert" | "delete"
	ID             uint64 `json:"id"`
	Error          string `json:"error,omitempty"`
	ObjectAccesses int    `json:"object_accesses,omitempty"`
}

// BatchMutateResponse is the body of a POST /objects:batch response:
// per-item outcomes in request order (inserts, then deletes), the
// applied/failed tally, and the live object count afterwards.
type BatchMutateResponse struct {
	Results []BatchItemJSON `json:"results"`
	Applied int             `json:"applied"`
	Failed  int             `json:"failed"`
	Objects int             `json:"objects"`
}

// ResultJSON is one AKNN or range-search answer.
type ResultJSON struct {
	ID    uint64  `json:"id"`
	Dist  float64 `json:"dist"`
	Exact bool    `json:"exact"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// IntervalJSON is one qualifying sub-range of an RKNN answer.
type IntervalJSON struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	LoOpen bool    `json:"lo_open,omitempty"`
	HiOpen bool    `json:"hi_open,omitempty"`
}

// RangedResultJSON is one RKNN answer.
type RangedResultJSON struct {
	ID         uint64         `json:"id"`
	Qualifying []IntervalJSON `json:"qualifying"`
	Text       string         `json:"text"` // human-readable form of the range
}

// StatsJSON mirrors query.Stats.
type StatsJSON struct {
	ObjectAccesses int    `json:"object_accesses"`
	NodeAccesses   int    `json:"node_accesses"`
	DistanceEvals  int    `json:"distance_evals"`
	PageReads      int    `json:"page_reads,omitempty"`
	PageCacheHits  int    `json:"page_cache_hits,omitempty"`
	LazyDeferred   int    `json:"lazy_deferred,omitempty"`
	LazyAdmitted   int    `json:"lazy_admitted,omitempty"`
	LazyBufferPeak int    `json:"lazy_buffer_peak,omitempty"`
	DurationNs     int64  `json:"duration_ns"`
	Duration       string `json:"duration"`
}

// ExplainJSON is the "explain" member of a query reply asked for with
// ?explain=1: the query.Stats counters that "stats" leaves out (so the two
// members together carry all of them), and the engine's split of the
// request's latency at its claim into queue wait and service time.
type ExplainJSON struct {
	ProfilesBuilt int   `json:"profiles_built"`
	ProfilePoints int   `json:"profile_points"`
	AKNNCalls     int   `json:"aknn_calls"`
	Candidates    int   `json:"candidates"`
	Pieces        int   `json:"pieces"`
	QueueNs       int64 `json:"queue_ns"`
	ServiceNs     int64 `json:"service_ns"`
}

// QueryResponse is the body of successful /aknn and /range responses.
type QueryResponse struct {
	Results []ResultJSON `json:"results"`
	Stats   StatsJSON    `json:"stats"`
	Explain *ExplainJSON `json:"explain,omitempty"`
}

// RKNNResponse is the body of a successful /rknn response.
type RKNNResponse struct {
	Results []RangedResultJSON `json:"results"`
	Stats   StatsJSON          `json:"stats"`
	Explain *ExplainJSON       `json:"explain,omitempty"`
}

// CheckpointRequest is the (optional) body of POST /checkpoint. It has no
// fields: a body that names one is refused with 400.
type CheckpointRequest struct{}

// CheckpointShardJSON is one shard's checkpoint state, in POST /checkpoint
// responses and (when the store supports checkpoints) in GET /stats shards.
type CheckpointShardJSON struct {
	Generation   uint64  `json:"generation"`
	Objects      int     `json:"objects"`
	Bytes        int64   `json:"bytes"`
	LogBytes     int64   `json:"log_bytes"`
	LogTailBytes int64   `json:"log_tail_bytes"`
	AgeSeconds   float64 `json:"age_seconds"`
}

// CheckpointResponse is the body of a successful POST /checkpoint.
type CheckpointResponse struct {
	Shards []CheckpointShardJSON `json:"shards"`
}

// ShardJSON is one shard's physical state in GET /stats. Checkpoint is nil
// for stores that cannot checkpoint (in-memory or read-only indexes).
type ShardJSON struct {
	Objects        int                  `json:"objects"`
	Dims           int                  `json:"dims"`
	TreeHeight     int                  `json:"tree_height"`
	ObjectAccesses int64                `json:"object_accesses"`
	Checkpoint     *CheckpointShardJSON `json:"checkpoint,omitempty"`
}

// CacheJSON is one cache's lifetime counters in GET /stats. The page cache
// reports resident and capacity bytes too; the object LRU counts entries,
// not bytes, so those fields stay zero for it.
type CacheJSON struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	CapacityBytes int64 `json:"capacity_bytes,omitempty"`
}

// StatsResponse is the body of GET /stats. Shards always has one entry per
// shard (a single entry for an unsharded index), so dashboards can watch
// per-shard size, tree depth and access skew. PageCache appears for paged
// indexes (block cache over index pages), ObjectCache when Config.CacheSize
// interposed an LRU over object payloads — two distinct layers.
type StatsResponse struct {
	Objects             int              `json:"objects"`
	Dims                int              `json:"dims"`
	Parallelism         int              `json:"parallelism"`
	TotalObjectAccesses int64            `json:"total_object_accesses"`
	Shards              []ShardJSON      `json:"shards"`
	Requests            map[string]int64 `json:"requests"`
	Failures            int64            `json:"failures"`
	EngineStats         StatsJSON        `json:"engine_stats"`
	PageCache           *CacheJSON       `json:"page_cache,omitempty"`
	ObjectCache         *CacheJSON       `json:"object_cache,omitempty"`
	Replication         *ReplicationJSON `json:"replication,omitempty"`
	Degraded            *DegradedJSON    `json:"degraded,omitempty"`
}

// DegradedJSON appears in /stats and /healthz while the index is in sticky
// degraded read-only mode after a storage fail-stop.
type DegradedJSON struct {
	// Reason is the first fail-stop error observed.
	Reason string `json:"reason"`
	// Since is when the index entered degraded mode (RFC 3339).
	Since string `json:"since"`
	// StorageFaults counts store operations refused by fail-stopped
	// storage.
	StorageFaults int64 `json:"storage_faults"`
}

// HealthzResponse is the body of GET /healthz. Status is "ok" or
// "degraded"; the HTTP status is 200 either way — a degraded server is
// alive and still answers every query, so liveness probes must not kill
// it. Alert on Status (or the fuzzyknn_degraded metric) instead.
type HealthzResponse struct {
	Status string `json:"status"`
	// Reason and Since are set while degraded: the first fail-stop error
	// and when it was observed (RFC 3339).
	Reason string `json:"reason,omitempty"`
	Since  string `json:"since,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) handleAKNN(w http.ResponseWriter, r *http.Request) {
	var req AKNNRequest
	scanned, ok := decodeBody(w, r, &req, wireFields{
		object: "query", queryID: &req.QueryID, k: &req.K, alpha: &req.Alpha, algo: &req.Algo})
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, inlineOf(scanned, req.Query), req.QueryID)
	if !ok {
		return
	}
	algo, err := fuzzyknn.ParseAKNNAlgorithm(req.Algo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := s.eng.Do(r.Context(), fuzzyknn.BatchRequest{
		Kind: fuzzyknn.BatchAKNNKind, Q: q, K: req.K, Alpha: req.Alpha, AKNNAlgo: algo,
	})
	if resp.Err != nil {
		writeQueryError(w, resp.Err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Results: toResults(resp.Results),
		Stats:   toStats(resp.Stats),
		Explain: explain(r, &resp),
	})
}

func (s *Server) handleRKNN(w http.ResponseWriter, r *http.Request) {
	var req RKNNRequest
	scanned, ok := decodeBody(w, r, &req, wireFields{
		object: "query", queryID: &req.QueryID, k: &req.K,
		alphaStart: &req.AlphaStart, alphaEnd: &req.AlphaEnd, algo: &req.Algo})
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, inlineOf(scanned, req.Query), req.QueryID)
	if !ok {
		return
	}
	algo, err := fuzzyknn.ParseRKNNAlgorithm(req.Algo)
	if err == nil && algo == fuzzyknn.Naive {
		// One exact kNN per membership level in the window: no deadline
		// can bound that, so Naive stays the library's reference.
		err = errors.New(`rknn: "naive" is not served over HTTP (one kNN per membership level in the window); use "rss-icr"`)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := s.eng.Do(r.Context(), fuzzyknn.BatchRequest{
		Kind: fuzzyknn.BatchRKNNKind, Q: q, K: req.K,
		AlphaStart: req.AlphaStart, AlphaEnd: req.AlphaEnd, RKNNAlgo: algo,
	})
	if resp.Err != nil {
		writeQueryError(w, resp.Err)
		return
	}
	out := RKNNResponse{Results: make([]RangedResultJSON, len(resp.Ranged)), Stats: toStats(resp.Stats), Explain: explain(r, &resp)}
	for i, rr := range resp.Ranged {
		ivs := rr.Qualifying.Intervals()
		rj := RangedResultJSON{ID: rr.ID, Qualifying: make([]IntervalJSON, len(ivs)), Text: rr.Qualifying.String()}
		for j, iv := range ivs {
			rj.Qualifying[j] = IntervalJSON{Lo: iv.Lo, Hi: iv.Hi, LoOpen: iv.LoOpen, HiOpen: iv.HiOpen}
		}
		out.Results[i] = rj
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	scanned, ok := decodeBody(w, r, &req, wireFields{
		object: "query", queryID: &req.QueryID, alpha: &req.Alpha, radius: &req.Radius})
	if !ok {
		return
	}
	q, ok := s.resolveQuery(w, inlineOf(scanned, req.Query), req.QueryID)
	if !ok {
		return
	}
	resp := s.eng.Do(r.Context(), fuzzyknn.BatchRequest{
		Kind: fuzzyknn.BatchRangeKind, Q: q, Alpha: req.Alpha, Radius: req.Radius,
	})
	if resp.Err != nil {
		writeQueryError(w, resp.Err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Results: toResults(resp.Results),
		Stats:   toStats(resp.Stats),
		Explain: explain(r, &resp),
	})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	var req InsertRequest
	scanned, ok := decodeBody(w, r, &req, wireFields{object: "object"})
	if !ok {
		return
	}
	in := inlineOf(scanned, req.Object)
	if in == nil {
		writeError(w, http.StatusBadRequest, errMissingObject)
		return
	}
	if in.err != nil {
		writeError(w, http.StatusBadRequest, in.err)
		return
	}
	resp := s.eng.Do(r.Context(), fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchInsertKind, Obj: in.obj})
	if resp.Err != nil {
		writeMutationError(w, resp.Err)
		return
	}
	writeJSON(w, http.StatusCreated, MutationResponse{ID: in.id, Objects: s.ix.Len(), ObjectAccesses: resp.Stats.ObjectAccesses})
}

func (s *Server) handleBatchMutate(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	var req BatchMutateRequest
	objs, ok := decodeBody(w, r, &req, wireFields{objects: true, deleteIDs: &req.DeleteIDs})
	if !ok {
		return
	}
	for _, oj := range req.Objects { // the ones encoding/json read
		objs = append(objs, inlineFromJSON(oj))
	}
	if len(objs)+len(req.DeleteIDs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: give objects and/or delete_ids"))
		return
	}
	out := BatchMutateResponse{Results: make([]BatchItemJSON, 0, len(objs)+len(req.DeleteIDs))}

	// Malformed objects get their per-item verdict locally; well-formed
	// items are submitted together so the engine's write coalescer can land
	// them as one group commit. reqs[k] answers out.Results[resultPos[k]].
	var reqs []fuzzyknn.BatchRequest
	var resultPos []int
	for _, in := range objs {
		item := BatchItemJSON{Op: "insert", ID: in.id}
		if in.err != nil {
			item.Error = in.err.Error()
			out.Results = append(out.Results, item)
			continue
		}
		resultPos = append(resultPos, len(out.Results))
		out.Results = append(out.Results, item)
		reqs = append(reqs, fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchInsertKind, Obj: in.obj})
	}
	for _, id := range req.DeleteIDs {
		resultPos = append(resultPos, len(out.Results))
		out.Results = append(out.Results, BatchItemJSON{Op: "delete", ID: id})
		reqs = append(reqs, fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchDeleteKind, ID: id})
	}
	var degradedErr error
	for k, resp := range s.eng.DoBatch(r.Context(), reqs) {
		out.Results[resultPos[k]].ObjectAccesses = resp.Stats.ObjectAccesses
		if resp.Err != nil {
			out.Results[resultPos[k]].Error = resp.Err.Error()
			if errors.Is(resp.Err, fuzzyknn.ErrDegraded) {
				degradedErr = resp.Err
			}
		}
	}
	// A degraded index refuses the batch as one unit (the group commit
	// shares the outcome); answer 503 like the other mutation endpoints
	// instead of burying the refusal in per-item verdicts.
	if degradedErr != nil {
		writeError(w, http.StatusServiceUnavailable, degradedErr)
		return
	}
	for _, item := range out.Results {
		if item.Error == "" {
			out.Applied++
		} else {
			out.Failed++
		}
	}
	out.Objects = s.ix.Len()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid object id: %w", err))
		return
	}
	resp := s.eng.Do(r.Context(), fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchDeleteKind, ID: id})
	if resp.Err != nil {
		writeMutationError(w, resp.Err)
		return
	}
	writeJSON(w, http.StatusOK, MutationResponse{ID: id, Objects: s.ix.Len(), ObjectAccesses: resp.Stats.ObjectAccesses})
}

// handleCheckpoint cuts a durable checkpoint of every shard's store while
// the server keeps serving. Indexes whose store cannot checkpoint answer 501.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	sc, ok := readBody(w, r)
	if !ok {
		return
	}
	var req CheckpointRequest
	err := unmarshalStrict(sc.body.Bytes(), &req)
	sc.release()
	if err != nil && !errors.Is(err, io.EOF) { // an empty body is fine
		writeDecodeError(w, err)
		return
	}
	infos, err := s.eng.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, fuzzyknn.ErrCheckpointUnsupported):
			status = http.StatusNotImplemented
		case errors.Is(err, fuzzyknn.ErrDegraded):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	out := CheckpointResponse{Shards: make([]CheckpointShardJSON, len(infos))}
	for i := range infos {
		out.Shards[i] = toCheckpointJSON(&infos[i])
	}
	writeJSON(w, http.StatusOK, out)
}

func toCheckpointJSON(info *fuzzyknn.CheckpointInfo) CheckpointShardJSON {
	cj := CheckpointShardJSON{
		Generation:   info.Generation,
		Objects:      info.Objects,
		Bytes:        info.Bytes,
		LogBytes:     info.LogBytes,
		LogTailBytes: info.TailBytes,
	}
	if info.Generation > 0 {
		cj.AgeSeconds = time.Since(info.CreatedAt).Seconds()
	}
	return cj
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t := s.eng.Totals()
	info := s.ix.ShardInfo()
	shards := make([]ShardJSON, len(info))
	for i, sh := range info {
		shards[i] = ShardJSON{
			Objects:        sh.Objects,
			Dims:           sh.Dims,
			TreeHeight:     sh.TreeHeight,
			ObjectAccesses: sh.ObjectAccesses,
		}
		if sh.Checkpoint != nil {
			cj := toCheckpointJSON(sh.Checkpoint)
			shards[i].Checkpoint = &cj
		}
	}
	resp := StatsResponse{
		Objects:             s.ix.Len(),
		Dims:                s.ix.Dims(),
		Parallelism:         s.eng.Parallelism(),
		TotalObjectAccesses: s.ix.TotalObjectAccesses(),
		Shards:              shards,
		Requests:            t.Requests,
		Failures:            t.Failures,
		EngineStats:         toStats(t.Stats),
	}
	if cs, ok := s.ix.PageCacheStats(); ok {
		resp.PageCache = &CacheJSON{
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Evictions:     cs.Evictions,
			ResidentBytes: cs.ResidentBytes,
			CapacityBytes: cs.CapacityBytes,
		}
	}
	if hits, misses, ok := s.ix.ObjectCacheStats(); ok {
		resp.ObjectCache = &CacheJSON{Hits: hits, Misses: misses}
	}
	resp.Replication = s.replicationStats()
	resp.Degraded = s.degradedStats()
	writeJSON(w, http.StatusOK, resp)
}

// degradedStats snapshots the index's degraded state for /stats, or nil
// while healthy.
func (s *Server) degradedStats() *DegradedJSON {
	d := s.ix.Degraded()
	if d == nil {
		return nil
	}
	return &DegradedJSON{
		Reason:        d.Reason,
		Since:         d.Since.UTC().Format(time.RFC3339Nano),
		StorageFaults: s.ix.StorageFaults(),
	}
}

// handleHealthz answers the liveness probe. A degraded index still serves
// its whole query surface, so the status code stays 200 — orchestrators
// must not restart-loop a replica that is alive and useful. The body tells
// operators (and readiness-style checks that parse it) the truth.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok"}
	if d := s.ix.Degraded(); d != nil {
		resp.Status = "degraded"
		resp.Reason = d.Reason
		resp.Since = d.Since.UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- helpers ---

// maxBodyBytes caps request bodies; large inline query objects fit with
// room to spare, while an abusive multi-gigabyte POST cannot balloon the
// process.
const maxBodyBytes = 16 << 20

// decode is the encoding/json path of decodeBody, and the definition of
// what a request body may be: one JSON value of dst's shape with no unknown
// field. On failure it has answered 400.
func decode(w http.ResponseWriter, body []byte, dst any) bool {
	if err := unmarshalStrict(body, dst); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// unmarshalStrict is json.Unmarshal refusing unknown fields: after the
// value only whitespace may follow. An empty body is io.EOF.
func unmarshalStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	for _, c := range body[dec.InputOffset():] {
		if !isSpace(c) {
			return fmt.Errorf("invalid character %q after top-level value", c)
		}
	}
	return nil
}

// writeDecodeError distinguishes a body over the size cap (413 — the
// client must shrink or split the request, retrying as-is cannot succeed)
// from a malformed one (400). MaxBytesReader surfaces the former as a
// *http.MaxBytesError, so unwrap with errors.As rather than string
// matching.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
}

// objectFromJSON validates and builds a fuzzy object from its wire form.
func objectFromJSON(obj *ObjectJSON) (*fuzzyknn.Object, error) {
	pts := make([]fuzzyknn.WeightedPoint, len(obj.Points))
	for i, p := range obj.Points {
		pts[i] = fuzzyknn.WeightedPoint{P: fuzzyknn.Point(p.P), Mu: p.Mu}
	}
	return fuzzyknn.NewObject(obj.ID, pts)
}

// resolveQuery materializes the query object from an inline definition or a
// stored id. Exactly one of the two must be present.
func (s *Server) resolveQuery(w http.ResponseWriter, in *inlineObject, id *uint64) (*fuzzyknn.Object, bool) {
	switch {
	case in != nil && id != nil:
		writeError(w, http.StatusBadRequest, errors.New("give either query or query_id, not both"))
		return nil, false
	case id != nil:
		q, err := s.ix.Object(*id)
		if err != nil {
			status := http.StatusInternalServerError // e.g. store corruption
			if errors.Is(err, fuzzyknn.ErrNotFound) {
				status = http.StatusNotFound
			}
			writeError(w, status, fmt.Errorf("query_id %d: %w", *id, err))
			return nil, false
		}
		return q, true
	case in != nil:
		if in.err != nil {
			writeError(w, http.StatusBadRequest, in.err)
			return nil, false
		}
		return in.obj, true
	default:
		writeError(w, http.StatusBadRequest, errors.New("missing query or query_id"))
		return nil, false
	}
}

// writeLoadError maps the engine's load signals, shared by queries and
// mutations: a shed request is 429 with Retry-After (back off, then the
// same request is expected to succeed), an expired per-request deadline is
// 504. Returns false when err is neither.
func writeLoadError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, fuzzyknn.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("request deadline exceeded: %w", err))
	default:
		return false
	}
	return true
}

// writeQueryError maps engine/query failures: validation errors from the
// query layer are the client's fault, load shedding is 429, a blown
// deadline is 504, everything else is a 500.
func writeQueryError(w http.ResponseWriter, err error) {
	if writeLoadError(w, err) {
		return
	}
	status := http.StatusInternalServerError
	if errors.Is(err, fuzzyknn.ErrInvalidQuery) {
		status = http.StatusBadRequest
	}
	writeError(w, status, err)
}

// writeMutationError maps Insert/Delete failures onto the same taxonomy:
// invalid or duplicate objects are the client's fault (400), deleting a
// dead id is 404, load signals as in writeLoadError, a write refused by a
// degraded (fail-stopped) store is 503 — retrying against this process
// cannot succeed, the client should fail over — and a read-only store
// (server configuration) is a 500.
func writeMutationError(w http.ResponseWriter, err error) {
	if writeLoadError(w, err) {
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, fuzzyknn.ErrDegraded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, fuzzyknn.ErrInvalidQuery), errors.Is(err, fuzzyknn.ErrDuplicate):
		status = http.StatusBadRequest
	case errors.Is(err, fuzzyknn.ErrNotFound):
		status = http.StatusNotFound
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func toResults(rs []fuzzyknn.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = ResultJSON{ID: r.ID, Dist: r.Dist, Exact: r.Exact, Lower: r.Lower, Upper: r.Upper}
	}
	return out
}

// explain returns the explain member of resp's reply if the request asked
// for one with ?explain=1, else nil, which leaves the reply as it is.
func explain(r *http.Request, resp *fuzzyknn.BatchResponse) *ExplainJSON {
	if r.URL.RawQuery == "" || r.URL.Query().Get("explain") != "1" {
		return nil
	}
	st := resp.Stats
	return &ExplainJSON{
		ProfilesBuilt: st.ProfilesBuilt,
		ProfilePoints: st.ProfilePoints,
		AKNNCalls:     st.AKNNCalls,
		Candidates:    st.Candidates,
		Pieces:        st.Pieces,
		QueueNs:       resp.Queue.Nanoseconds(),
		ServiceNs:     resp.Service.Nanoseconds(),
	}
}

func toStats(st fuzzyknn.Stats) StatsJSON {
	return StatsJSON{
		ObjectAccesses: st.ObjectAccesses,
		NodeAccesses:   st.NodeAccesses,
		DistanceEvals:  st.DistanceEvals,
		PageReads:      st.PageReads,
		PageCacheHits:  st.PageCacheHits,
		LazyDeferred:   st.LazyDeferred,
		LazyAdmitted:   st.LazyAdmitted,
		LazyBufferPeak: st.LazyBufferPeak,
		DurationNs:     st.Duration.Nanoseconds(),
		Duration:       st.Duration.String(),
	}
}
