// Package engine executes batches of fuzzy-object queries concurrently
// against one shared query.Searcher — a single-tree query.Index or a
// sharded query.ShardedIndex; the engine is agnostic.
//
// The paper's algorithms are single-query: one traversal of the R-tree, one
// stats record. Serving workloads — classification back-ends issuing one
// AKNN per unlabeled object, filter-verify pipelines, HTTP fan-in — need
// many logically independent queries in flight at once. Because the index
// serves every query from an immutable snapshot (verified by the race tests
// in internal/query and here), queries parallelize without locking; the
// engine adds the missing machinery: a bounded worker pool, per-request
// context cancellation, and aggregate statistics across all requests it has
// executed. Mutations (Insert/Delete kinds) flow through a dedicated write
// coalescer instead of the pool: queued mutation requests collapse into
// group commits (Searcher.ApplyBatch, the only way a mutation moves — one
// writer-lock acquisition, one tree clone, one snapshot publish, one fsync
// per group) while the index keeps readers on their snapshots; each request
// still gets its own verdict and its own statistics, exactly as if applied
// alone.
//
// An Engine is cheap enough to keep for the life of a process. Submit work
// with Do (one request) or DoBatch (many, answered in order); both are safe
// for concurrent use from any number of goroutines, so an HTTP handler can
// call Do per connection while a batch job calls DoBatch elsewhere.
//
// A caller's context bounds its wait, not the work: when it is done, Do and
// DoBatch answer every request not yet finished with the context's error
// and return. A request abandoned while queued is skipped by the worker
// that dequeues it; one abandoned while running runs to completion (queries
// are not interruptible), its result dropped. Each job carries a state
// that the caller and the worker move by compare-and-swap, so exactly one
// of them answers it and no worker writes a response after its caller
// has returned.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/metrics"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// Kind selects the query or mutation type of a Request.
type Kind int

// Supported request kinds. Insert and Delete are index mutations: they
// bypass the worker pool for the write coalescer (see Engine), so a mixed
// batch can interleave reads and writes; the index's snapshot isolation
// keeps the concurrently executing queries consistent.
const (
	AKNN Kind = iota
	RKNN
	RangeSearch
	Insert
	Delete
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case AKNN:
		return "aknn"
	case RKNN:
		return "rknn"
	case RangeSearch:
		return "range"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Request describes one query or mutation. Fields beyond Kind, Q and K are
// read per-kind: Alpha (AKNN, RangeSearch), AKNNAlgo (AKNN),
// AlphaStart/AlphaEnd and RKNNAlgo (RKNN), Radius (RangeSearch), Obj
// (Insert), ID (Delete).
type Request struct {
	Kind Kind
	Q    *fuzzy.Object
	K    int

	Alpha    float64
	AKNNAlgo query.AKNNAlgorithm

	AlphaStart, AlphaEnd float64
	RKNNAlgo             query.RKNNAlgorithm

	Radius float64

	Obj *fuzzy.Object // object to add (Insert)
	ID  uint64        // object to retire (Delete)
}

// Response is the answer to one Request. Results carries AKNN and
// RangeSearch answers; Ranged carries RKNN answers. Exactly one of the two
// is set on success; both are nil when Err is non-nil. Queue and Service
// split an answered request's latency at its claim: the wait before a
// worker or the writer took it up, and the time after. Both are zero on a
// request answered without running (shed, abandoned or cancelled).
type Response struct {
	Results []query.Result
	Ranged  []query.RangedResult
	Stats   query.Stats
	Err     error
	Queue   time.Duration
	Service time.Duration
}

// Totals aggregates the engine's lifetime activity, by kind and overall.
type Totals struct {
	// Requests counts finished requests per Kind.String(), failed and
	// rejected-at-submission ones included.
	Requests map[string]int64
	// Failures counts requests that returned an error — validation
	// failures, cancellations and post-Close rejections alike.
	Failures int64
	// Stats sums the per-request statistics of every executed request,
	// failed ones included: a request that probed the store before failing
	// (e.g. a delete of a tombstoned id) really performed those accesses,
	// so counting them keeps the invariant "store access total == summed
	// per-request stats" exact for mixed workloads.
	Stats query.Stats
}

// Options configures an Engine.
type Options struct {
	// Parallelism is the number of worker goroutines, i.e. the maximum
	// number of queries executing at once. Values < 1 select
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// QueueDepth bounds the number of accepted-but-not-yet-running
	// requests; submission blocks (or honors ctx cancellation) beyond it.
	// Values < 1 select 2×Parallelism.
	QueueDepth int
	// MaxWriteBatch caps how many queued mutations one group commit
	// absorbs (see the writer goroutine): larger groups amortize the
	// per-commit costs (fsync, tree clone, snapshot publish) further but
	// raise the latency of the requests at the front of a full group.
	// Values < 1 select 256.
	MaxWriteBatch int
	// CheckpointEvery, when > 0, has the writer goroutine start a durable
	// checkpoint after every N committed write groups, bounding both
	// restart replay cost and log growth without any operator
	// intervention. The checkpoint runs on a goroutine of its own, so
	// writes keep committing beside it, and a trigger that finds the
	// previous one still running is skipped. Zero disables the policy;
	// explicit Checkpoint calls work either way. Only meaningful for
	// indexes whose store supports checkpoints — the periodic trigger is
	// skipped (and counted as a failure) otherwise.
	CheckpointEvery int
	// AdmissionWait bounds how long a submission may wait for queue space
	// before the engine sheds it with ErrOverloaded. Zero selects
	// DefaultAdmissionWait; negative waits indefinitely (bounded only by
	// the request context), the pre-admission-control behavior. A bounded
	// wait is what keeps a saturated engine returning fast, actionable
	// rejections (HTTP 429 upstream) instead of accumulating blocked
	// submitter goroutines without limit.
	AdmissionWait time.Duration
}

// DefaultAdmissionWait is the admission budget when Options.AdmissionWait
// is zero: long enough to ride out a queue-full blip while a worker drains
// one slot, short enough that a truly saturated engine answers within
// operator-reflex time.
const DefaultAdmissionWait = time.Second

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is returned when a request could not be admitted because
// its queue stayed full past the admission budget (Options.AdmissionWait).
// It is a load signal, not a failure of the request itself: the caller
// should back off and retry. The HTTP layer maps it to 429 + Retry-After.
var ErrOverloaded = errors.New("engine: overloaded: queue full past admission budget")

type job struct {
	ctx   context.Context
	req   Request
	resp  *Response
	state *atomic.Int32 // jobQueued → jobRunning → jobDone, or → jobAbandoned by the caller
	done  chan<- struct{}
	start time.Time // when its DoBatch began; latency histograms measure from here
	ran   time.Time // when a worker or the writer claimed it: queue time before, service time after
}

// Job states. The worker claims a queued job (jobQueued → jobRunning) and
// answers it (jobRunning → jobDone: it writes the response, then signals
// done); the caller abandons a queued or running one (→ jobAbandoned) and
// answers it itself. Whoever wins the compare-and-swap owns the response.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
	jobAbandoned
)

// Stages at which a request can be abandoned, for the cancelled-requests
// counter.
const (
	stageQueued = iota
	stageRunning
	numStages
)

// Engine is a bounded worker pool over one shared index, plus a dedicated
// write coalescer: queries fan out across the pool, while Insert/Delete
// requests flow through a separate queue that a single writer goroutine
// drains in groups and lands through Searcher.ApplyBatch — one writer-lock
// acquisition, one tree clone, one snapshot publish and (log-backed) one
// fsync per group instead of per request. Create with New, release with
// Close.
type Engine struct {
	ix              query.Searcher
	jobs            chan job // queries
	writes          chan job // mutations, drained in groups by the writer
	workers         sync.WaitGroup
	parallelism     int
	maxWriteBatch   int
	checkpointEvery int           // cut a checkpoint every N write groups (0 = never)
	checkpointing   atomic.Bool   // a periodic checkpoint is running
	admissionWait   time.Duration // queue-full budget before ErrOverloaded (<0 = unbounded)
	metrics         *engineMetrics

	// lifecycle serializes channel sends against Close: submitters hold the
	// read side across their send, so Close can only close the channels once
	// no send is in flight and the closed flag is visible to later
	// submitters.
	lifecycle sync.RWMutex
	closed    bool

	mu     sync.Mutex // guards totals
	totals Totals
}

// New starts an engine over ix — any Searcher: per-request parallelism
// (the worker pool) composes with a sharded index's per-query fan-out.
func New(ix query.Searcher, opts Options) *Engine {
	p := opts.Parallelism
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth < 1 {
		depth = 2 * p
	}
	maxBatch := opts.MaxWriteBatch
	if maxBatch < 1 {
		maxBatch = 256
	}
	wait := opts.AdmissionWait
	if wait == 0 {
		wait = DefaultAdmissionWait
	}
	e := &Engine{
		ix:   ix,
		jobs: make(chan job, depth),
		// The write queue holds enough for the writer to drain a full group
		// while the next one accumulates; mutations beyond it block in
		// submit like queries do.
		writes:          make(chan job, 2*maxBatch),
		parallelism:     p,
		maxWriteBatch:   maxBatch,
		checkpointEvery: opts.CheckpointEvery,
		admissionWait:   wait,
	}
	e.totals.Requests = map[string]int64{}
	e.metrics = newEngineMetrics(e)
	e.workers.Add(p + 1)
	for i := 0; i < p; i++ {
		go e.worker()
	}
	go e.writer()
	return e
}

// Index returns the index the engine executes against.
func (e *Engine) Index() query.Searcher { return e.ix }

// Parallelism returns the worker count.
func (e *Engine) Parallelism() int { return e.parallelism }

// Metrics returns the engine's metric registry for exposition (e.g. a
// Prometheus /metrics endpoint). Callers may register additional families
// of their own on it; the engine's are all prefixed fuzzyknn_.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics.reg }

func (e *Engine) worker() {
	defer e.workers.Done()
	for j := range e.jobs {
		if err := j.ctx.Err(); err != nil {
			e.abandon(j, err)
			continue
		}
		if !j.state.CompareAndSwap(jobQueued, jobRunning) {
			continue // abandoned while queued: it has been answered
		}
		j.ran = time.Now()
		e.metrics.inflightQueries.Add(1)
		resp := e.execute(j)
		e.metrics.inflightQueries.Add(-1)
		e.finish(j, resp)
	}
}

// finish answers a job its worker ran and books it — unless the caller
// abandoned it meanwhile and answered it already; then only the work it did
// is booked, so the lifetime stats still sum every store access.
func (e *Engine) finish(j job, resp Response) {
	if !j.state.CompareAndSwap(jobRunning, jobDone) {
		e.mu.Lock()
		e.totals.Stats.Add(resp.Stats)
		e.mu.Unlock()
		return
	}
	e.record(j.req.Kind, resp.Stats, resp.Err == nil, j.start)
	resp.Queue, resp.Service = j.ran.Sub(j.start), time.Since(j.ran)
	e.metrics.observeSplit(j.req.Kind, resp.Queue, resp.Service)
	*j.resp = resp
	j.done <- struct{}{}
}

// abandon answers a job with err in place of its worker, if no worker has
// answered it yet, and reports whether it did. The caller gives up on its
// jobs this way, a worker on a job whose context ended while it was queued,
// and Shutdown on the jobs left in the queues.
func (e *Engine) abandon(j job, err error) bool {
	stage := stageQueued
	if !j.state.CompareAndSwap(jobQueued, jobAbandoned) {
		if !j.state.CompareAndSwap(jobRunning, jobAbandoned) {
			return false
		}
		stage = stageRunning
	}
	e.metrics.cancelled[kindSlot(j.req.Kind)][stage].Inc()
	e.record(j.req.Kind, query.Stats{}, false, j.start)
	*j.resp = Response{Err: err}
	j.done <- struct{}{}
	return true
}

// writer is the engine's single write coalescer. Mutations queue on
// e.writes; the writer takes one, opportunistically drains everything else
// already waiting (up to MaxWriteBatch) and commits the whole group at
// once. Because the index serializes writers internally anyway, dedicating
// one goroutine loses no parallelism — it converts "N requests, N commits"
// into "N requests, ~N/batch commits" exactly when the queue is busy, and
// degrades to per-op behavior when it is idle.
func (e *Engine) writer() {
	defer e.workers.Done()
	groups := 0
	commit := func(group []job) {
		e.metrics.inflightWrites.Add(int64(len(group)))
		e.metrics.batchSize.Observe(int64(len(group)))
		e.executeWrites(group)
		e.metrics.inflightWrites.Add(-int64(len(group)))
		groups++
		if e.checkpointEvery > 0 && groups >= e.checkpointEvery {
			groups = 0
			// The periodic cut runs beside the writer, so the groups
			// queued meanwhile commit while it streams its snapshot;
			// Shutdown waits for it like for a worker.
			if e.checkpointing.CompareAndSwap(false, true) {
				e.workers.Add(1)
				go func() {
					defer e.workers.Done()
					defer e.checkpointing.Store(false)
					e.Checkpoint()
				}()
			}
		}
	}
	for j := range e.writes {
		group := []job{j}
		for len(group) < e.maxWriteBatch {
			select {
			case next, ok := <-e.writes:
				if !ok {
					commit(group)
					return
				}
				group = append(group, next)
			default:
				goto drained
			}
		}
	drained:
		commit(group)
	}
}

// Checkpoint cuts a durable checkpoint of the index's store and records
// the outcome in the engine totals under the "checkpoint" kind. It may be
// called concurrently with the writer's periodic trigger — the store
// serializes checkpoints internally.
func (e *Engine) Checkpoint() ([]store.CheckpointInfo, error) {
	start := time.Now()
	infos, err := e.ix.Checkpoint()
	e.metrics.checkpoints.Inc()
	e.metrics.checkpointDur.ObserveDuration(time.Since(start))
	if err != nil {
		e.metrics.checkpointFailures.Inc()
	}
	e.mu.Lock()
	e.totals.Requests["checkpoint"]++
	if err != nil {
		e.totals.Failures++
	}
	e.mu.Unlock()
	return infos, err
}

// executeWrites commits one drained group of mutation requests through
// Searcher.ApplyBatch. A validation rejection (query.BatchError — nothing
// was applied) falls back to committing each request as a group of its own,
// in arrival order, so every request keeps exactly the verdict it would
// have gotten unbatched while valid groupmates still commit — each as
// durably as any other group. Per-request statistics keep the accounting
// invariant (store access total == Σ per-request stats): batch validation
// probes are folded into the owning request even when the group retries
// request by request.
func (e *Engine) executeWrites(group []job) {
	answered := make([]bool, len(group))
	finish := func(i int, st query.Stats, err error) {
		if answered[i] {
			return
		}
		answered[i] = true
		e.finish(group[i], Response{Stats: st, Err: err})
	}
	defer func() {
		// A panicking mutation must cost its callers one response each, not
		// the writer goroutine (and with it every future mutation).
		if p := recover(); p != nil {
			err := fmt.Errorf("engine: mutation panicked: %v", p)
			for i := range group {
				finish(i, query.Stats{}, err)
			}
		}
	}()

	var inserts []*fuzzy.Object
	var deletes []uint64
	var insJob, delJob []int
	ran := time.Now()
	for i := range group {
		j := &group[i]
		if err := j.ctx.Err(); err != nil {
			e.abandon(*j, err)
		}
		if !j.state.CompareAndSwap(jobQueued, jobRunning) {
			answered[i] = true // abandoned while queued: never applied
			continue
		}
		j.ran = ran
		switch j.req.Kind {
		case Insert:
			inserts = append(inserts, j.req.Obj)
			insJob = append(insJob, i)
		case Delete:
			deletes = append(deletes, j.req.ID)
			delJob = append(delJob, i)
		default:
			finish(i, query.Stats{}, fmt.Errorf("engine: unknown mutation kind %d (%w)", int(j.req.Kind), query.ErrInvalidArgument))
		}
	}
	// applyAlone commits request i as a group of one; its outcome is the
	// request's own verdict.
	applyAlone := func(i int) (query.Stats, error) {
		if group[i].req.Kind == Insert {
			return query.Insert(e.ix, group[i].req.Obj)
		}
		return query.Delete(e.ix, group[i].req.ID)
	}
	// order maps ApplyBatch's combined item order (inserts, then deletes)
	// back onto group positions.
	order := slices.Concat(insJob, delJob)
	switch len(order) {
	case 0:
		return
	case 1:
		// Nothing to fall back to: a refusal already is this request's
		// verdict, so it is validated once.
		st, err := applyAlone(order[0])
		finish(order[0], st, err)
		return
	}
	stats, err := e.ix.ApplyBatch(inserts, deletes)
	// A refusal that did no work at all (a degraded index) returns no stats
	// — those entries stay zero.
	accrued := make([]query.Stats, len(group))
	for k, i := range order {
		if k < len(stats) {
			accrued[i] = stats[k]
		}
	}
	var be *query.BatchError
	if errors.As(err, &be) {
		// Validation rejected the group and NOTHING was applied. Commit each
		// request alone, in arrival order, so invalid items get their
		// precise error and valid ones still land with sequential
		// semantics. The probes the failed validation performed are folded
		// into the owning requests on top of whatever the retry costs.
		for i := range group {
			if answered[i] {
				continue
			}
			st, err := applyAlone(i)
			st.Add(accrued[i])
			finish(i, st, err)
		}
		return
	}
	// Success — or a commit-phase failure (I/O class): every request in the
	// group shares the outcome. No request-by-request retry after a commit
	// error: the store's state is suspect, and re-applying could
	// double-commit a half-landed sharded group.
	for _, i := range order {
		finish(i, accrued[i], err)
	}
}

// execute runs one claimed job and returns its response. A query is not
// interrupted once it runs: its worker checked its context before claiming
// it.
func (e *Engine) execute(j job) (resp Response) {
	defer func() {
		// Workers outlive any one request; a panicking query must cost its
		// caller one response, not the process (handler goroutines would get
		// net/http's recover — pool goroutines have only this one).
		if p := recover(); p != nil {
			resp.Results, resp.Ranged = nil, nil
			resp.Err = fmt.Errorf("engine: query panicked: %v", p)
		}
	}()
	r := &j.req
	switch r.Kind {
	case AKNN:
		resp.Results, resp.Stats, resp.Err = e.ix.AKNN(r.Q, r.K, r.Alpha, r.AKNNAlgo)
	case RKNN:
		resp.Ranged, resp.Stats, resp.Err = e.ix.RKNN(r.Q, r.K, r.AlphaStart, r.AlphaEnd, r.RKNNAlgo)
	case RangeSearch:
		resp.Results, resp.Stats, resp.Err = e.ix.RangeSearch(r.Q, r.Alpha, r.Radius)
	default:
		resp.Err = fmt.Errorf("engine: unknown request kind %d (%w)", int(r.Kind), query.ErrInvalidArgument)
	}
	return resp
}

// record books one finished request: latency and outcome onto the atomic
// metric series (lock-free), then the lifetime totals under their mutex.
// start is when the request's DoBatch began, so the histogram measures
// what the caller experienced — queue wait included.
func (e *Engine) record(k Kind, st query.Stats, ok bool, start time.Time) {
	e.metrics.observe(k, ok, time.Since(start))
	e.mu.Lock()
	defer e.mu.Unlock()
	e.totals.Requests[k.String()]++
	if !ok {
		e.totals.Failures++
	}
	e.totals.Stats.Add(st)
}

// Totals returns a snapshot of the engine's aggregate statistics.
func (e *Engine) Totals() Totals {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.totals
	t.Requests = make(map[string]int64, len(e.totals.Requests))
	for k, v := range e.totals.Requests {
		t.Requests[k] = v
	}
	return t
}

// Do executes one request, blocking until it completes or ctx is done.
func (e *Engine) Do(ctx context.Context, req Request) Response {
	resps := e.DoBatch(ctx, []Request{req})
	return resps[0]
}

// DoBatch executes the requests across the worker pool and returns their
// responses in request order. It blocks until every request has run or ctx
// is done; then every request not yet answered is abandoned with ctx's
// error (see the package comment). Per-request failures land in
// Response.Err rather than aborting the batch.
//
// The admission budget gates batch ENTRY, not every job: until a first job
// is admitted, each submission may shed with ErrOverloaded — and one shed
// fails the whole remaining batch, since the queue already stayed full past
// the budget. Once any job is in, the rest submit blocking (bounded only by
// ctx): a batch's later jobs waiting while its own earlier jobs drain is
// progress, not overload, and shedding them would turn a batch merely
// larger than the queue into spurious failures.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) []Response {
	if ctx == nil {
		ctx = context.Background()
	}
	resps := make([]Response, len(reqs))
	states := make([]atomic.Int32, len(reqs))
	done := make(chan struct{}, len(reqs))
	start := time.Now()
	jobAt := func(i int) job {
		return job{ctx: ctx, req: reqs[i], resp: &resps[i], state: &states[i], done: done, start: start}
	}
	wait := e.admissionWait
	shed := false
	admitted := 0
	for i := range reqs {
		j := jobAt(i)
		var err error
		if shed {
			err = ErrOverloaded
			e.metrics.shed.Inc()
		} else if err = e.submit(j, wait); err == nil {
			wait = -1 // admitted: the rest stream in behind it
		} else if errors.Is(err, ErrOverloaded) {
			shed = true
		}
		if err != nil {
			states[i].Store(jobDone)
			resps[i].Err = err
			e.record(reqs[i].Kind, query.Stats{}, false, j.start)
		} else {
			admitted++
		}
	}
	// Every admitted job signals done once, after its response is written:
	// from the worker that answered it or from whoever abandoned it.
	for ; admitted > 0; admitted-- {
		select {
		case <-done:
		case <-ctx.Done():
			for i := range reqs {
				e.abandon(jobAt(i), ctx.Err())
			}
			for ; admitted > 0; admitted-- {
				<-done
			}
			return resps
		}
	}
	return resps
}

// submit enqueues a job — mutations onto the write-coalescing queue,
// everything else onto the query pool — failing fast on a closed engine or
// a context that cancels while the queue is full. Holding lifecycle.RLock
// across the send keeps Close from closing the channel mid-send; workers
// keep draining until the channel actually closes, so a full queue cannot
// deadlock Close.
//
// Admission control lives here: a queue that stays full past the wait
// budget sheds the request with ErrOverloaded instead of parking the
// submitter indefinitely. Before this bound, a client with no context
// deadline waited forever on a saturated engine — every such connection
// pinned a goroutine, and overload looked like infinite latency instead of
// an explicit, retryable rejection. A negative wait blocks until queue
// space or ctx cancellation (DoBatch uses it for jobs behind an already
// admitted batchmate).
func (e *Engine) submit(j job, wait time.Duration) error {
	e.lifecycle.RLock()
	defer e.lifecycle.RUnlock()
	if e.closed {
		return ErrClosed
	}
	queue := e.jobs
	if j.req.Kind == Insert || j.req.Kind == Delete {
		queue = e.writes
	}
	// Fast path: queue has room — no timer, no extra branches.
	select {
	case queue <- j:
		return nil
	default:
	}
	if wait < 0 { // unbounded: blocking submission
		select {
		case queue <- j:
			return nil
		case <-j.ctx.Done():
			return j.ctx.Err()
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case queue <- j:
		return nil
	case <-j.ctx.Done():
		return j.ctx.Err()
	case <-timer.C:
		e.metrics.shed.Inc()
		return ErrOverloaded
	}
}

// Shutdown stops accepting new work and waits, until ctx is done, for
// queued and running requests to finish and the workers and the writer to
// exit. If ctx ends the wait, every request still queued is answered with
// ErrClosed and skipped; requests still running finish in the background
// and answer their callers (or are dropped if those gave up). It returns
// how many requests it left behind: those abandoned in the queue and those
// still running. It may be called again, and by Close.
func (e *Engine) Shutdown(ctx context.Context) int {
	e.lifecycle.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
		close(e.writes)
	}
	e.lifecycle.Unlock()
	stopped := make(chan struct{})
	go func() {
		e.workers.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
		return 0
	case <-ctx.Done():
	}
	left := 0
	for _, queue := range []chan job{e.jobs, e.writes} {
		for j := range queue {
			if e.abandon(j, ErrClosed) {
				left++
			}
		}
	}
	return left + int(e.metrics.inflightQueries.Value()+e.metrics.inflightWrites.Value())
}

// Close stops accepting new work, waits for queued and in-flight requests
// to finish, and releases the workers and the writer: Shutdown with no
// deadline. It is idempotent.
func (e *Engine) Close() { e.Shutdown(context.Background()) }
