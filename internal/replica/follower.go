package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// fpFetch intercepts every replication fetch on the follower side,
// modeling a faulty network: error drops the connection, short truncates
// the body, torn flips payload bits (caught downstream by the wire CRCs),
// stall delays the response.
var fpFetch = fault.P("replica.fetch")

// Applier is the follower's view of its local index: frames and snapshot
// diffs are applied through the same group-commit path the leader used, so
// each call is one snapshot publish per shard. Len counts the live
// objects: a follower starts only on an empty index.
type Applier interface {
	ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error
	Len() int
}

// A running follower asks the leader to hold each /replication/log request
// open for up to pollWait, and for at most maxPollBytes of frames.
const (
	pollWait     = 20 * time.Second
	maxPollBytes = 4 << 20
)

// Options tunes a Follower. The zero value (or nil) picks the defaults.
type Options struct {
	// Client issues the HTTP requests. The default client has no global
	// timeout (long-polls outlive any sane one); per-request contexts bound
	// each call instead.
	Client *http.Client
	// MinBackoff/MaxBackoff bound the reconnect backoff after transport
	// errors (defaults 100ms and 2s). Retry n of a failure streak sleeps a
	// full-jitter duration drawn uniformly from [MinBackoff, ceiling],
	// where the ceiling starts at MinBackoff (so the first retry is
	// exactly MinBackoff) and doubles per consecutive failure up to
	// MaxBackoff; any success resets the ceiling. Jitter keeps a fleet of
	// followers from reconnecting in lockstep after a leader restart.
	MinBackoff, MaxBackoff time.Duration
	// BackoffSeed seeds the jitter stream; 0 derives a seed from the
	// clock. Tests pin it to make retry schedules deterministic.
	BackoffSeed uint64
	// Logf receives re-bootstrap and reconnect log lines; nil discards.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Client == nil {
		out.Client = &http.Client{}
	}
	if out.MinBackoff <= 0 {
		out.MinBackoff = 100 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 2 * time.Second
	}
	return out
}

// Stats is a point-in-time view of a follower's replication state.
type Stats struct {
	// Generation is the leader incarnation the follower last bootstrapped
	// from (0 before the first bootstrap).
	Generation uint64
	// AppliedSeq is the last frame sequence applied locally.
	AppliedSeq uint64
	// LeaderSeq is the leader's latest committed sequence as last observed.
	LeaderSeq uint64
	// LagFrames is max(0, LeaderSeq-AppliedSeq) at observation time.
	LagFrames int64
	// Reconnects counts transport failures that forced a backoff+retry.
	Reconnects int64
	// Bootstraps counts full snapshot bootstraps (>= 1 once syncing).
	Bootstraps int64
	// BytesStreamed counts replication payload bytes received.
	BytesStreamed int64
}

// Follower tails a leader's replication feed and applies it to a local
// index, which starts empty. Lifecycle: bootstrap from GET
// /replication/checkpoint, then tail GET /replication/log long-poll style,
// one ApplyBatch — one snapshot publish per shard — per committed leader
// frame, so follower reads are snapshot-isolated and byte-identical to the
// leader at the same applied sequence. Any truncation (410), generation
// change or apply failure triggers a fresh bootstrap, applied as the
// difference between the tracked local state and the new snapshot; any
// transport error a backoff and retry. Run drives that loop until its
// context ends; Sync performs one converge-and-return pass for tests and
// startup gating. Run/Sync/SyncTo must not be called concurrently with
// each other; Stats is safe from any goroutine.
type Follower struct {
	leader string
	target Applier
	opts   Options

	// state maps live object id -> wire CRC, mirroring everything applied
	// to target. It lets a re-bootstrap apply only the difference between
	// the local state and the leader snapshot. Guarded by mu (Stats readers
	// never touch it).
	mu           sync.Mutex
	state        map[uint64]uint32
	bootstrapped bool

	gen           atomic.Uint64
	applied       atomic.Uint64
	leaderSeq     atomic.Uint64
	reconnects    atomic.Int64
	bootstraps    atomic.Int64
	bytesStreamed atomic.Int64
}

// NewFollower builds a follower feeding target, which must be empty, from
// the leader's base URL. Nothing else should mutate target while the
// follower runs: the leader's frame sequence is the only write source a
// replica can stay byte-identical under.
func NewFollower(leaderURL string, target Applier, opts *Options) (*Follower, error) {
	u, err := url.Parse(leaderURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica: invalid leader URL %q", leaderURL)
	}
	if n := target.Len(); n != 0 {
		return nil, fmt.Errorf("replica: a follower starts on an empty index, this one holds %d objects", n)
	}
	return &Follower{
		leader: u.Scheme + "://" + u.Host,
		target: target,
		opts:   opts.withDefaults(),
		state:  make(map[uint64]uint32),
	}, nil
}

// Leader returns the leader base URL.
func (f *Follower) Leader() string { return f.leader }

// Stats reports the follower's replication position and lifetime counters.
func (f *Follower) Stats() Stats {
	st := Stats{
		Generation:    f.gen.Load(),
		AppliedSeq:    f.applied.Load(),
		LeaderSeq:     f.leaderSeq.Load(),
		Reconnects:    f.reconnects.Load(),
		Bootstraps:    f.bootstraps.Load(),
		BytesStreamed: f.bytesStreamed.Load(),
	}
	if st.LeaderSeq > st.AppliedSeq {
		st.LagFrames = int64(st.LeaderSeq - st.AppliedSeq)
	}
	return st
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// fetch issues one GET and returns the whole body, counting streamed bytes.
// The replica.fetch failpoint sits on this path: every replication request
// — bootstrap or log poll — crosses it exactly once.
func (f *Follower) fetch(ctx context.Context, url string) ([]byte, int, error) {
	spec, fire := fpFetch.Eval()
	if fire {
		switch spec.Action {
		case fault.ActError:
			return nil, 0, fmt.Errorf("replica: injected connection drop: %w", spec.InjectedErr())
		case fault.ActStall:
			spec.Pause()
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if fire {
		switch spec.Action {
		case fault.ActShort:
			body = body[:len(body)/2]
		case fault.ActTorn:
			fault.Corrupt(body)
		}
	}
	f.bytesStreamed.Add(int64(len(body)))
	return body, resp.StatusCode, nil
}

// bootstrap fetches the leader snapshot and converges the local index onto
// it as (at most) one delete batch plus one insert batch, then adopts the
// snapshot's generation and sequence. The tracked state is updated after
// each successful apply, so a mid-way failure retries from a consistent
// view.
func (f *Follower) bootstrap(ctx context.Context) error {
	body, status, err := f.fetch(ctx, f.leader+"/replication/checkpoint")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("replica: leader checkpoint returned status %d", status)
	}
	snap, err := DecodeSnapshot(body)
	if err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	want := make(map[uint64]uint32, len(snap.Objects))
	for i, o := range snap.Objects {
		want[o.ID()] = snap.CRCs[i]
	}
	var deletes []uint64
	for id, crc := range f.state {
		if w, ok := want[id]; !ok || w != crc {
			deletes = append(deletes, id)
		}
	}
	sort.Slice(deletes, func(i, j int) bool { return deletes[i] < deletes[j] })
	var inserts []*fuzzy.Object
	var insertCRCs []uint32
	for i, o := range snap.Objects {
		if have, ok := f.state[o.ID()]; !ok || have != snap.CRCs[i] {
			inserts = append(inserts, o)
			insertCRCs = append(insertCRCs, snap.CRCs[i])
		}
	}
	// A changed object appears in both halves (delete the stale version,
	// insert the new one); the store's batch validation forbids an id on
	// both sides of one batch, so apply as two group commits.
	if len(deletes) > 0 {
		if err := f.target.ApplyBatch(nil, deletes); err != nil {
			return fmt.Errorf("replica: bootstrap delete batch: %w", err)
		}
		for _, id := range deletes {
			delete(f.state, id)
		}
	}
	if len(inserts) > 0 {
		if err := f.target.ApplyBatch(inserts, nil); err != nil {
			return fmt.Errorf("replica: bootstrap insert batch: %w", err)
		}
		for i, o := range inserts {
			f.state[o.ID()] = insertCRCs[i]
		}
	}
	f.gen.Store(snap.Gen)
	f.applied.Store(snap.Seq)
	// Older leaderSeq observations may belong to a previous generation;
	// the snapshot's sequence is the only current truth.
	f.leaderSeq.Store(snap.Seq)
	f.bootstrapped = true
	f.bootstraps.Add(1)
	f.logf("replica: bootstrapped from %s at gen %d seq %d (%d objects, %d deleted, %d inserted)",
		f.leader, snap.Gen, snap.Seq, len(snap.Objects), len(deletes), len(inserts))
	return nil
}

// pollOnce issues one /replication/log request from the current applied
// position and applies the returned frames in order, stopping early once
// applied reaches upTo (0 = no bound). wait > 0 asks the leader to hold
// the request open until a frame arrives. Returns the number of frames
// applied; ErrDiverged/ErrTruncated demand a re-bootstrap.
func (f *Follower) pollOnce(ctx context.Context, wait time.Duration, upTo uint64) (int, error) {
	from := f.applied.Load() + 1
	u := fmt.Sprintf("%s/replication/log?from=%d&max_bytes=%d&wait_ms=%d",
		f.leader, from, maxPollBytes, wait.Milliseconds())
	reqCtx := ctx
	if wait > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(ctx, wait+10*time.Second)
		defer cancel()
	}
	body, status, err := f.fetch(reqCtx, u)
	if err != nil {
		return 0, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusGone:
		return 0, ErrTruncated
	default:
		return 0, fmt.Errorf("replica: leader log returned status %d", status)
	}
	gen, latest, frames, err := DecodeStream(body)
	if err != nil {
		return 0, err
	}
	if g := f.gen.Load(); g != 0 && gen != g {
		return 0, ErrDiverged
	}
	f.leaderSeq.Store(latest)

	applied := 0
	for _, fr := range frames {
		cur := f.applied.Load()
		if upTo != 0 && cur >= upTo {
			break
		}
		if fr.Seq <= cur {
			continue // already applied (duplicate delivery)
		}
		if fr.Seq != cur+1 {
			return applied, fmt.Errorf("%w: frame gap (have %d, got %d)", ErrTruncated, cur, fr.Seq)
		}
		f.mu.Lock()
		if err := f.target.ApplyBatch(fr.Inserts, fr.Deletes); err != nil {
			f.mu.Unlock()
			// The local index disagrees with the leader's history (e.g. a
			// duplicate id); treat as divergence and re-bootstrap.
			return applied, fmt.Errorf("%w: apply frame %d: %v", ErrDiverged, fr.Seq, err)
		}
		for i, o := range fr.Inserts {
			f.state[o.ID()] = fr.InsertCRCs[i]
		}
		for _, id := range fr.Deletes {
			delete(f.state, id)
		}
		f.mu.Unlock()
		f.applied.Store(fr.Seq)
		applied++
	}
	return applied, nil
}

// needsBootstrap reports whether the follower has ever bootstrapped.
func (f *Follower) needsBootstrap() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.bootstrapped
}

func (f *Follower) markUnbootstrapped() {
	f.mu.Lock()
	f.bootstrapped = false
	f.mu.Unlock()
}

// needsRebootstrap reports whether err demands a re-bootstrap (as opposed
// to a plain retry).
func needsRebootstrap(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrDiverged) || errors.Is(err, ErrCorrupt)
}

// Sync bootstraps if necessary and applies frames without long-polling
// until the follower has fully caught up with the leader's committed
// sequence as observed during the pass. It retries transport errors until
// ctx expires.
func (f *Follower) Sync(ctx context.Context) error {
	return f.follow(ctx, false, 0)
}

// SyncTo is Sync but stops as soon as the applied sequence reaches seq,
// leaving later retained frames unapplied — the hook the frame-boundary
// catch-up tests use to park a follower mid-history.
func (f *Follower) SyncTo(ctx context.Context, seq uint64) error {
	if seq == 0 {
		return errors.New("replica: SyncTo requires seq >= 1")
	}
	return f.follow(ctx, false, seq)
}

// Run drives the follower until ctx ends: bootstrap (with retry), then
// long-poll tail, re-bootstrapping on truncation/divergence and backing
// off on transport errors. Always returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	return f.follow(ctx, true, 0)
}

// follow is the one bootstrap, poll and backoff loop. Run (run) long-polls
// until ctx ends and then answers ctx.Err(); a sync polls without waiting,
// stops once the applied sequence reaches upTo (0: the leader's sequence
// seen in the pass) and, if ctx ends first, answers the error of the request
// ctx cut short (else ctx.Err()) wrapping the last bootstrap or poll failure
// before it, so a sync that never converged says why.
func (f *Follower) follow(ctx context.Context, run bool, upTo uint64) error {
	backoff := newJitterBackoff(f.opts.MinBackoff, f.opts.MaxBackoff, f.opts.BackoffSeed)
	var wait time.Duration
	if run {
		wait = pollWait
	}
	var last error // the last failed bootstrap or poll
	// ended returns the error that ends the loop once ctx has: err is the
	// request ctx cut short, or ctx.Err().
	ended := func(err error) error {
		if run {
			return ctx.Err()
		}
		if last == nil {
			return err
		}
		return fmt.Errorf("%w (last failure: %w)", err, last)
	}
	// retry counts a failed request and sleeps before the next one; it
	// reports the error that ends the loop, if ctx has ended.
	retry := func(what string, err error) error {
		if ctx.Err() != nil {
			return ended(err)
		}
		last = fmt.Errorf("%s %s failed: %w", what, f.leader, err)
		f.reconnects.Add(1)
		f.logf("replica: %v (retrying)", last)
		if !sleepCtx(ctx, backoff.next()) {
			return ended(ctx.Err())
		}
		return nil
	}
	reached := func() bool { return upTo != 0 && f.applied.Load() >= upTo }
	for {
		if err := ctx.Err(); err != nil {
			return ended(err)
		}
		if f.needsBootstrap() {
			if err := f.bootstrap(ctx); err != nil {
				if err := retry("bootstrap from", err); err != nil {
					return err
				}
				continue
			}
			backoff.reset()
		}
		if reached() {
			return nil
		}
		n, err := f.pollOnce(ctx, wait, upTo)
		switch {
		case err == nil:
			if !run && (reached() || n == 0 && f.applied.Load() >= f.leaderSeq.Load()) {
				return nil // converged
			}
			backoff.reset()
		case needsRebootstrap(err):
			last = err
			f.logf("replica: %v; re-bootstrapping", err)
			f.markUnbootstrapped()
		default:
			if err := retry("poll", err); err != nil {
				return err
			}
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ParseWaitMS parses a wait_ms query parameter, clamping to [0, max].
// Shared by the server handler so the bound lives next to the client that
// relies on it.
func ParseWaitMS(s string, max time.Duration) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("invalid wait_ms %q", s)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > max {
		d = max
	}
	return d, nil
}
