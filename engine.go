package fuzzyknn

import (
	"context"
	"fmt"
	"io"

	"fuzzyknn/internal/engine"
)

// BatchRequest is one query in a mixed batch; see BatchAKNNKind and friends
// for the Kind values and Engine.DoBatch for execution.
type BatchRequest = engine.Request

// BatchResponse is the answer to one BatchRequest.
type BatchResponse = engine.Response

// BatchKind selects the query type of a BatchRequest.
type BatchKind = engine.Kind

// BatchRequest kinds. The mutation kinds (insert/delete) bypass the query
// worker pool for the engine's write coalescer, which commits queued
// mutations in groups; a mixed batch may still interleave reads and writes,
// and snapshot isolation keeps concurrent queries consistent.
const (
	BatchAKNNKind   = engine.AKNN
	BatchRKNNKind   = engine.RKNN
	BatchRangeKind  = engine.RangeSearch
	BatchInsertKind = engine.Insert
	BatchDeleteKind = engine.Delete
)

// EngineTotals is a snapshot of an Engine's lifetime activity.
type EngineTotals = engine.Totals

// ErrEngineClosed is returned for work submitted to a closed Engine.
var ErrEngineClosed = engine.ErrClosed

// ErrOverloaded is returned when a request could not be admitted because
// the engine's queue stayed full past the admission budget
// (EngineConfig.AdmissionWait). It signals load, not an invalid request:
// back off and retry. The HTTP server maps it to 429 with a Retry-After
// header.
var ErrOverloaded = engine.ErrOverloaded

// DefaultAdmissionWait is the admission budget used when
// EngineConfig.AdmissionWait is zero.
const DefaultAdmissionWait = engine.DefaultAdmissionWait

// EngineConfig tunes an Engine: worker count, queue depth, write-group size,
// automatic checkpoints and the admission budget. The zero value (or nil)
// picks defaults.
type EngineConfig = engine.Options

// Engine executes queries concurrently against one Index through a bounded
// worker pool. It is safe for concurrent use; create with Index.NewEngine
// and release with Close. The Index must outlive the Engine.
type Engine struct {
	inner *engine.Engine
}

// NewEngine starts a concurrent query engine over the index. Queries run
// against immutable index snapshots and writers serialize inside the index,
// so any number of engines (and direct Index calls) can coexist.
func (ix *Index) NewEngine(cfg *EngineConfig) *Engine {
	var opts EngineConfig
	if cfg != nil {
		opts = *cfg
	}
	return &Engine{inner: engine.New(ix.inner, opts)}
}

// WriteMetrics renders the engine's metrics — per-kind request counters and
// latency histograms, queue-depth and in-flight gauges, write-coalescer
// batch sizes, checkpoint counts/durations, lifetime query-work totals —
// in the Prometheus text exposition format. Recording is lock-free atomic
// work on the request path; rendering happens only here, at scrape time.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.inner.Metrics().WritePrometheus(w)
}

// Parallelism returns the worker count the engine runs with.
func (e *Engine) Parallelism() int { return e.inner.Parallelism() }

// Do executes one request, blocking until it completes. A request still
// queued when ctx cancels fails with the ctx error; one that cannot even
// enter the queue within the engine's admission budget
// (EngineConfig.AdmissionWait) fails with ErrOverloaded.
func (e *Engine) Do(ctx context.Context, req BatchRequest) BatchResponse {
	return e.inner.Do(ctx, req)
}

// DoBatch executes a mixed batch across the worker pool, returning responses
// in request order. Per-request failures land in BatchResponse.Err; the
// batch itself always completes. The admission budget gates batch entry
// only: if the first job cannot enter the queue within it, every response
// carries ErrOverloaded; once any job is admitted, the rest wait for queue
// slots without shedding (a batch draining through a smaller queue is
// progress, not overload).
func (e *Engine) DoBatch(ctx context.Context, reqs []BatchRequest) []BatchResponse {
	return e.inner.DoBatch(ctx, reqs)
}

// BatchAKNN answers one AKNN query per element of queries, concurrently,
// with shared k, alpha and algorithm. Results and stats are in query order.
// The first failure is returned as the error (annotated with its position);
// remaining queries still run, and failed positions hold nil results.
func (e *Engine) BatchAKNN(ctx context.Context, queries []*Object, k int, alpha float64, algo AKNNAlgorithm) ([][]Result, []Stats, error) {
	reqs := make([]BatchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = BatchRequest{Kind: BatchAKNNKind, Q: q, K: k, Alpha: alpha, AKNNAlgo: algo}
	}
	return collectBatch(e.DoBatch(ctx, reqs), func(r BatchResponse) []Result { return r.Results })
}

// BatchRKNN answers one RKNN query per element of queries, concurrently,
// with shared k, threshold range and algorithm. Error semantics match
// BatchAKNN.
func (e *Engine) BatchRKNN(ctx context.Context, queries []*Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([][]RangedResult, []Stats, error) {
	reqs := make([]BatchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = BatchRequest{
			Kind: BatchRKNNKind, Q: q, K: k,
			AlphaStart: alphaStart, AlphaEnd: alphaEnd, RKNNAlgo: algo,
		}
	}
	return collectBatch(e.DoBatch(ctx, reqs), func(r BatchResponse) []RangedResult { return r.Ranged })
}

// BatchRangeSearch answers one α-range query per element of queries,
// concurrently. Error semantics match BatchAKNN.
func (e *Engine) BatchRangeSearch(ctx context.Context, queries []*Object, alpha, radius float64) ([][]Result, []Stats, error) {
	reqs := make([]BatchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = BatchRequest{Kind: BatchRangeKind, Q: q, Alpha: alpha, Radius: radius}
	}
	return collectBatch(e.DoBatch(ctx, reqs), func(r BatchResponse) []Result { return r.Results })
}

// BatchInsert adds the objects through the engine's write coalescer:
// queued insert requests collapse into group commits (one tree clone, one
// snapshot publish and — log-backed — one fsync per group of up to
// EngineConfig.MaxWriteBatch), so bulk ingest runs an order of magnitude
// faster than an Insert loop while every request keeps its own verdict.
// The returned slice has one entry per object (nil on success); the error
// annotates the first failure, if any. Failed inserts do not abort the
// rest of the batch.
func (e *Engine) BatchInsert(ctx context.Context, objs []*Object) ([]error, error) {
	reqs := make([]BatchRequest, len(objs))
	for i, o := range objs {
		reqs[i] = BatchRequest{Kind: BatchInsertKind, Obj: o}
	}
	errs, _, err := collectBatch(e.DoBatch(ctx, reqs), func(r BatchResponse) error { return r.Err })
	return errs, err
}

// BatchDelete retires the ids through the engine's write coalescer.
// Semantics match BatchInsert.
func (e *Engine) BatchDelete(ctx context.Context, ids []uint64) ([]error, error) {
	reqs := make([]BatchRequest, len(ids))
	for i, id := range ids {
		reqs[i] = BatchRequest{Kind: BatchDeleteKind, ID: id}
	}
	errs, _, err := collectBatch(e.DoBatch(ctx, reqs), func(r BatchResponse) error { return r.Err })
	return errs, err
}

// collectBatch unpacks per-query results and stats in request order,
// annotating the first failure with its position. Later queries still ran;
// failed positions hold the picked field's zero value.
func collectBatch[T any](resps []BatchResponse, pick func(BatchResponse) T) ([]T, []Stats, error) {
	results := make([]T, len(resps))
	stats := make([]Stats, len(resps))
	var err error
	for i, r := range resps {
		results[i], stats[i] = pick(r), r.Stats
		if r.Err != nil && err == nil {
			err = fmt.Errorf("fuzzyknn: batch query %d: %w", i, r.Err)
		}
	}
	return results, stats, err
}

// Checkpoint cuts a durable checkpoint of the index's store through the
// engine (recorded in Totals under the "checkpoint" kind). See
// Index.Checkpoint for semantics; it is safe to call concurrently with the
// periodic EngineConfig.CheckpointEvery trigger.
func (e *Engine) Checkpoint() ([]CheckpointInfo, error) {
	return e.inner.Checkpoint()
}

// Totals returns a snapshot of the engine's aggregate request counts and
// summed query statistics.
func (e *Engine) Totals() EngineTotals { return e.inner.Totals() }

// Shutdown stops accepting work and waits for queued and in-flight
// requests until ctx is done; then it answers the still-queued ones with
// ErrEngineClosed and returns how many requests it left behind (those and
// the ones still running, which finish in the background). The underlying
// Index stays usable.
func (e *Engine) Shutdown(ctx context.Context) int { return e.inner.Shutdown(ctx) }

// Close is Shutdown with no deadline: it stops accepting work, waits for
// in-flight queries, and releases the workers. Idempotent. The underlying
// Index stays usable.
func (e *Engine) Close() { e.inner.Close() }

// BatchAKNN answers many AKNN queries concurrently using a transient engine
// with default parallelism. For repeated batches, or to tune parallelism,
// create an Engine with NewEngine and reuse it.
func (ix *Index) BatchAKNN(queries []*Object, k int, alpha float64, algo AKNNAlgorithm) ([][]Result, []Stats, error) {
	e := ix.NewEngine(nil)
	defer e.Close()
	return e.BatchAKNN(context.Background(), queries, k, alpha, algo)
}

// BatchRKNN answers many RKNN queries concurrently using a transient engine
// with default parallelism. See BatchAKNN.
func (ix *Index) BatchRKNN(queries []*Object, k int, alphaStart, alphaEnd float64, algo RKNNAlgorithm) ([][]RangedResult, []Stats, error) {
	e := ix.NewEngine(nil)
	defer e.Close()
	return e.BatchRKNN(context.Background(), queries, k, alphaStart, alphaEnd, algo)
}
