package engine

import (
	"time"

	"fuzzyknn/internal/metrics"
)

// numKinds is the count of real request kinds; kindSlots adds one overflow
// slot so an out-of-range Kind in a malformed request records under
// kind="other" instead of indexing out of bounds.
const (
	numKinds  = int(Delete) + 1
	kindSlots = numKinds + 1
)

// kindSlot maps a Kind onto its metrics array slot.
func kindSlot(k Kind) int {
	if k < 0 || int(k) >= numKinds {
		return numKinds
	}
	return int(k)
}

// engineMetrics is the engine's pre-registered metric set. Every series the
// request path touches is resolved to a pointer at engine construction, so
// recording a finished request is array indexing plus atomic adds — no map
// lookups, no locks, no allocation. Scrape-time-only series (queue depths,
// lifetime stats totals) are sampled lazily via Gauge/CounterFuncs.
type engineMetrics struct {
	reg *metrics.Registry

	requests  [kindSlots]*metrics.Counter
	failures  [kindSlots]*metrics.Counter
	latency   [kindSlots]*metrics.Histogram
	queue     [kindSlots]*metrics.Histogram
	service   [kindSlots]*metrics.Histogram
	cancelled [kindSlots][numStages]*metrics.Counter

	inflightQueries *metrics.Gauge
	inflightWrites  *metrics.Gauge
	shed            *metrics.Counter
	batchSize       *metrics.Histogram

	checkpoints        *metrics.Counter
	checkpointFailures *metrics.Counter
	checkpointDur      *metrics.Histogram
}

// newEngineMetrics registers the engine's metric families on a fresh
// registry. The per-kind families are fully pre-registered (all kinds plus
// the "other" overflow) so scrapes see every series from the first page,
// zeros included — absent-until-first-hit series make rate() queries lie.
func newEngineMetrics(e *Engine) *engineMetrics {
	reg := metrics.NewRegistry()
	m := &engineMetrics{reg: reg}

	durBounds, durScale := metrics.DurationBuckets()
	kindName := func(slot int) string {
		if slot == numKinds {
			return "other"
		}
		return Kind(slot).String()
	}
	for slot := 0; slot < kindSlots; slot++ {
		kind := kindName(slot)
		m.requests[slot] = reg.Counter("fuzzyknn_requests_total",
			"Finished engine requests by kind, failures included.", "kind", kind)
		m.failures[slot] = reg.Counter("fuzzyknn_request_failures_total",
			"Engine requests that returned an error, by kind.", "kind", kind)
		m.latency[slot] = reg.Histogram("fuzzyknn_request_duration_seconds",
			"End-to-end request latency (queue wait + execution) by kind.",
			durBounds, durScale, "kind", kind)
		m.queue[slot] = reg.Histogram("fuzzyknn_request_queue_seconds",
			"Time a request a worker (or, for a write, the writer) answered spent queued before it was claimed, by kind.",
			durBounds, durScale, "kind", kind)
		m.service[slot] = reg.Histogram("fuzzyknn_request_service_seconds",
			"Time from a request's claim by a worker (or, for a write, the writer) to its answer, by kind; with the queue time it makes the request's duration.",
			durBounds, durScale, "kind", kind)
		for stage, name := range [numStages]string{stageQueued: "queued", stageRunning: "running"} {
			m.cancelled[slot][stage] = reg.Counter("fuzzyknn_requests_cancelled_total",
				"Requests answered with their context's error (or ErrClosed at shutdown) before their worker answered them, by kind and by the stage they were abandoned in: a queued one is skipped, a running one runs on and its result is dropped.",
				"kind", kind, "stage", name)
		}
	}

	m.inflightQueries = reg.Gauge("fuzzyknn_engine_inflight",
		"Requests executing right now, by queue.", "queue", "query")
	m.inflightWrites = reg.Gauge("fuzzyknn_engine_inflight",
		"Requests executing right now, by queue.", "queue", "write")
	reg.GaugeFunc("fuzzyknn_engine_queue_depth",
		"Accepted-but-not-yet-running requests, by queue.",
		func() int64 { return int64(len(e.jobs)) }, "queue", "query")
	reg.GaugeFunc("fuzzyknn_engine_queue_depth",
		"Accepted-but-not-yet-running requests, by queue.",
		func() int64 { return int64(len(e.writes)) }, "queue", "write")
	reg.GaugeFunc("fuzzyknn_engine_queue_capacity",
		"Queue capacity, by queue.",
		func() int64 { return int64(cap(e.jobs)) }, "queue", "query")
	reg.GaugeFunc("fuzzyknn_engine_queue_capacity",
		"Queue capacity, by queue.",
		func() int64 { return int64(cap(e.writes)) }, "queue", "write")
	m.shed = reg.Counter("fuzzyknn_engine_overloaded_total",
		"Requests shed with ErrOverloaded: the queue stayed full past the admission budget.")

	sizeBounds, sizeScale := metrics.SizeBuckets(1024)
	m.batchSize = reg.Histogram("fuzzyknn_engine_write_batch_size",
		"Mutations per coalesced group commit.", sizeBounds, sizeScale)

	m.checkpoints = reg.Counter("fuzzyknn_engine_checkpoints_total",
		"Checkpoints cut (explicit and periodic), failures included.")
	m.checkpointFailures = reg.Counter("fuzzyknn_engine_checkpoint_failures_total",
		"Checkpoints that returned an error.")
	m.checkpointDur = reg.Histogram("fuzzyknn_engine_checkpoint_duration_seconds",
		"Wall time of one checkpoint across all shards.", durBounds, durScale)

	// Lifetime query-work totals already accumulated in Totals; sampled
	// under the totals mutex only at scrape time.
	sample := func(pick func(Totals) int64) func() int64 {
		return func() int64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return pick(e.totals)
		}
	}
	reg.CounterFunc("fuzzyknn_engine_object_accesses_total",
		"Store object probes summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.ObjectAccesses) }))
	reg.CounterFunc("fuzzyknn_engine_lazy_deferred_total",
		"Leaf entries the lazy AKNN variants deferred into their probe buffer, summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.LazyDeferred) }))
	reg.CounterFunc("fuzzyknn_engine_lazy_admitted_total",
		"AKNN results the lazy variants admitted unprobed on their upper bound, summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.LazyAdmitted) }))
	reg.CounterFunc("fuzzyknn_engine_node_accesses_total",
		"R-tree node visits summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.NodeAccesses) }))
	reg.CounterFunc("fuzzyknn_engine_distance_evals_total",
		"Exact distance evaluations summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.DistanceEvals) }))
	reg.CounterFunc("fuzzyknn_engine_profile_points_total",
		"Points swept by distance staircases (both objects' cuts at each staircase's floor) summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.ProfilePoints) }))
	reg.CounterFunc("fuzzyknn_engine_page_reads_total",
		"Index pages read from disk (block-cache misses) summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.PageReads) }))
	reg.CounterFunc("fuzzyknn_engine_page_cache_hits_total",
		"Index page loads served by the block cache summed across every executed request.",
		sample(func(t Totals) int64 { return int64(t.Stats.PageCacheHits) }))

	return m
}

// observe records one finished request: counter bumps plus one latency
// histogram sample — atomic adds only, safe on the zero-allocation path.
func (m *engineMetrics) observe(k Kind, ok bool, elapsed time.Duration) {
	slot := kindSlot(k)
	m.requests[slot].Inc()
	if !ok {
		m.failures[slot].Inc()
	}
	m.latency[slot].ObserveDuration(elapsed)
}

// observeSplit records where an answered request's time went: queued
// before its claim, in service after it.
func (m *engineMetrics) observeSplit(k Kind, queued, service time.Duration) {
	slot := kindSlot(k)
	m.queue[slot].ObserveDuration(queued)
	m.service[slot].ObserveDuration(service)
}
