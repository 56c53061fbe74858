// Package conform is the one statement of the paper's contract, as a
// checker that any package's tests can replay: every read family answers
// exactly what a scan of the live objects answers, in every deployment
// shape, after any history of mutations, refusals, restarts and storage
// faults. Only _test.go files import it.
//
// A history is a generator byte, an initial population and (op, arg) pairs
// (see OpInsert and the rest). It runs against a model — a map of the live
// objects — and against every mutable shape at once: in-memory (NewIndex)
// and log-backed (OpenLogIndex, with an object LRU, reopened at each
// checkpoint step; STR-built logs never fsync, incrementally built ones
// fsync every commit), each at every shard count, each built by STR and by
// repeated insertion. A query step adds, per build mode and shard count, a
// read-only index built from scratch over the model saved to a store file
// (OpenIndex, with an object LRU) and its trees saved to page files and
// reopened behind a block cache of a few pages.
//
// Two mutable shapes are replication leaders, each serving the real
// /replication/ endpoints of server.New on its own URL: the in-memory STR
// shape at the first shard count, with the default frame window, and the
// incrementally built log at the last, which keeps two frames. Each is
// tailed by followers (NewIndex(nil)) at every shard count. A restarted
// leader keeps its URL: the handler behind it is swapped.
//
// Two more shapes are served, through Index.NewEngine and server.New on an
// httptest URL, and mutated only over HTTP: "served" in memory at one
// shard, "served-sharded" log-backed at the last shard count (see post,
// refuseOver and fetchAll for what goes over the wire).
//
// At each write the checker asserts:
//   - a committed call charges no object access per insert and one per
//     delete, and appends exactly one frame on a leader (none when empty);
//     over HTTP each item's reply says so;
//   - a write drawn to fail answers its error class through Insert or
//     Delete and through a one-item ApplyBatch alike, only ApplyBatch
//     answers a *BatchError, its items name exactly the drawn positions,
//     and it changes no population and appends no frame; over HTTP a batch
//     refuses exactly the drawn items and commits the rest;
//   - a log shape whose store fails a write or an fsync fail-stops: every
//     later write and Checkpoint answers ErrDegraded (503 over HTTP), its
//     reads answer the scan of what it published, a degraded leader
//     bootstraps no follower while its followers hold the population before
//     the failed write, and after a reopen each shard holds its part of the
//     population before the write or of the one after it;
//   - a checkpoint that commits race — a batch, then the re-insert of an id
//     it deleted, both landing between a log shape's cut and its commit —
//     leaves every shape reading the model's objects, and each deleted id's
//     last version, before its reopen, and holding the model after it.
//
// After every mutation each shard's tree passes the invariant check, every
// id sits in the shard that owns it, and every shape holds exactly the
// model's population.
//
// At each query step the checker asserts:
//   - AKNN (all four algorithms, lazy answers after Refine) and
//     LinearScanAKNN equal a scan with AlphaDistance ranked by (distance,
//     id), and one tree's lazy answer refines to it through every shape;
//     before the Refine, every exact result of a lazy answer sits at the
//     scan's distance and every other one's [Lower, Upper] encloses it;
//     range search equals the scan with d ≤ r; ReverseKNN,
//     ExpectedDistKNN, DistanceJoin and KClosestPairs (self-joins, and
//     joins of two different shapes) equal their scans; all four RKNN
//     algorithms equal Naive over a from-scratch NewIndex of the model;
//   - shapes of one build mode answer and cost alike: AKNN under all four
//     algorithms, every RKNN algorithm and range search give the same raw
//     answer, bounds and exact flags included, at the same cost in every
//     counter but node visits, and a lazy AKNN probes exactly the entries
//     it deferred and did not admit;
//   - Basic and LB AKNN, range search, RSS and RSS-ICR read exactly as many
//     objects as the oracle's cost model says they read (oracle.Reads,
//     RangeReads, RSSReads) on every shape;
//   - a paged shape answers byte for byte like the tree it was saved from,
//     bounds included, at the same logical cost down to node visits; it
//     shows page I/O and counts its evictions, and its resident bytes stay
//     within capacity; an in-memory shape reports no page cache;
//   - the per-call object accesses sum to the index's total and to the
//     per-shard sums;
//   - a served shape's replies equal its library answers bit for bit,
//     bounds, RKNN interval ends and ?explain=1 counters included, and
//     every exact result sits at the scan's distance;
//   - every follower, after Sync, sits at its leader's last sequence with
//     no lag, holds the model's objects and answers every read family as
//     the model does; one follower of the default-window leader first steps
//     through every committed sequence with SyncTo, holding the model's
//     population of each; a follower re-bootstraps exactly when it fell
//     off its leader's window or the leader restarted.
//
// After every step a served shape's /healthz, /stats and /metrics count
// exactly what the checker sent and received (see counters).
//
// The generator byte picks continuous objects (random blobs, memberships
// in eighths) or the tie lattice: points on a small integer grid,
// memberships k/8, queries on grid points, α on membership levels and
// radii and join ε at attained distances — so many objects share the k-th
// distance exactly and every boundary rule (the (distance, id) order, the
// inclusive range, join and reverse-kNN radii, §3.3 admission) is decided
// by a tie. Inserts sometimes re-issue a deleted id, with a new object.
package conform

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	. "fuzzyknn"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/oracle"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/server"
)

// The history ops. An op byte is read modulo numOps; each op takes one
// argument byte.
const (
	OpInsert     = iota // arg%4 + 1 fresh objects, one Insert each
	OpDelete            // Delete the live object at arg mod population
	OpBatch             // one ApplyBatch: arg%6 fresh objects, arg/6%4 deletes
	OpCheckpoint        // close and reopen every log after no checkpoint (arg%3 = 0), a checkpoint (1), or a checkpoint writes race (2; see raced)
	OpQuery             // every read family on every shape and follower, with parameters drawn from arg
	OpRefuse            // a write drawn to fail (see refuse)
	OpRestart           // close and reopen the log leader, which replicates anew
	OpFailStop          // one batch that fail-stops a log shape (see failStop)
	OpRace              // writes beside readers (see race)
	numOps
)

// lattice is the generator byte's low bit: 0 draws continuous objects, 1
// the tie lattice. The byte's other bits salt every draw.
const lattice = 1

// Shapes says what a history runs against.
type Shapes struct {
	// Shards are the library shapes' shard counts; served-sharded runs at
	// the last.
	Shards []int
	// ServedOnly leaves the library shapes out, and with them the leaders,
	// the followers and the read-only shapes.
	ServedOnly bool
	// OpenPagedTiny opens a paged index behind a block cache of a few pages;
	// without it a query step builds no paged shape.
	OpenPagedTiny func(storePath, pagePath string, cfg Config) (*Index, error)
	// CheckInvariants checks an index's trees and shard routing; without it
	// no tree is checked.
	CheckInvariants func(*Index) error
}

// Run runs one history against the model and the shapes.
func Run(t *testing.T, history []byte, shapes Shapes) {
	c := newChecker(t, history, shapes)
	defer c.close()
	c.run()
}

// Bounds on one history, so that a long fuzz input stays a quick one.
const (
	maxOps  = 40
	maxLive = 60
)

// shape is one deployment of the model's population.
type shape struct {
	name  string
	cfg   Config
	ix    *Index
	log   string // a log shape's path ("" for any other shape)
	paged bool
	lead  *leader // set on a replication leader
	web   *front  // set on a served shape
}

// leader is a shape's replication feed: the frames it must have appended
// since it (re)started, the URL its followers tail and the followers.
type leader struct {
	repl      *Replication
	window    int    // RetainFrames; 0 keeps the default window
	seq       uint64 // the frames committed calls appended since the feed began
	srv       *httptest.Server
	feed      atomic.Pointer[server.Server] // what srv serves; a restart swaps it
	tails     []*tail
	restarted bool                 // since the followers last synced
	pops      []map[uint64]*Object // the population at each sequence (default window only)
}

// tail is one follower of a leader.
type tail struct {
	*shape
	f     *Follower
	boots int64 // the bootstraps it must have counted
}

// checker runs one history against the model and the shapes.
type checker struct {
	t      *testing.T
	data   []byte
	pos    int
	dir    string
	salt   uint64
	lat    bool
	shards []int
	hooks  Shapes
	model  map[uint64]*Object
	live   []uint64          // the model's ids, for picking victims
	dead   []uint64          // deleted ids, for re-issuing and for refused deletes
	issued map[uint64]uint64 // times an id was re-issued, which salts its object
	next   uint64            // the next unused id
	shapes []*shape          // the mutable shapes
	at     string            // the step being checked, for failure messages
	window *oracle.Window    // over the mutable shapes, while readers race the writes
}

// input reads the input's next byte; past its end every byte reads as 0.
func (c *checker) input() byte {
	c.pos++
	if c.pos > len(c.data) {
		return 0
	}
	return c.data[c.pos-1]
}

func newChecker(t *testing.T, data []byte, shapes Shapes) *checker {
	shards := shapes.Shards
	c := &checker{t: t, data: data, dir: t.TempDir(), shards: shards, hooks: shapes, model: make(map[uint64]*Object), issued: make(map[uint64]uint64), next: 1}
	g := c.input()
	c.lat, c.salt = g&lattice != 0, uint64(g>>1)
	c.at = "initial population"
	objs := c.fresh(nil, int(c.input())%(maxLive/2))
	for _, inc := range []bool{false, true} {
		for _, n := range shards {
			if shapes.ServedOnly {
				break
			}
			cfg := Config{NodeMin: 2, NodeMax: 6, Incremental: inc, Shards: n}
			name := fmt.Sprintf("%s/shards=%d", map[bool]string{false: "str", true: "incremental"}[inc], n)
			mem, err := NewIndex(objs, &cfg)
			c.must(err, "mem/"+name)
			c.shapes = append(c.shapes, &shape{name: "mem/" + name, cfg: cfg, ix: mem})
			lc := cfg
			lc.CacheSize = 8
			if !inc {
				lc.Fsync = FsyncOff // STR logs never fsync; incremental ones fsync every commit
			}
			path := filepath.Join(c.dir, fmt.Sprintf("log-%d-%v.fzl", n, inc))
			lg, err := OpenLogIndex(path, 2, &lc)
			c.must(err, "log/"+name)
			c.shapes = append(c.shapes, &shape{name: "log/" + name, cfg: lc, ix: lg, log: path})
			if len(objs) > 0 {
				c.must(lg.ApplyBatch(objs, nil), "log/"+name)
			}
		}
	}
	// The served shapes take their initial population as one POST
	// /objects:batch.
	for i, n := range []int{1, shards[len(shards)-1]} {
		s := &shape{name: "served", cfg: Config{NodeMin: 2, NodeMax: 6, Shards: n}}
		var err error
		if i == 0 {
			s.ix, err = NewIndex(nil, &s.cfg)
		} else {
			s.name, s.log = "served-sharded", filepath.Join(c.dir, "served.fzl")
			s.cfg.Incremental, s.cfg.CacheSize = true, 8
			s.ix, err = OpenLogIndex(s.log, 2, &s.cfg)
		}
		c.must(err, s.name)
		c.serve(s)
		c.shapes = append(c.shapes, s)
		if len(objs) > 0 {
			c.must(c.mutate(s, objs, nil, false), s.name)
		}
	}
	c.admit(objs, nil)
	for _, s := range c.shapes {
		switch s.name {
		case fmt.Sprintf("mem/str/shards=%d", shards[0]):
			c.lead(s, 0)
		case fmt.Sprintf("log/incremental/shards=%d", shards[len(shards)-1]):
			c.lead(s, 2)
		}
	}
	return c
}

// lead makes s a replication leader keeping window frames, served on its
// own URL, and bootstraps its followers, one per shard count.
func (c *checker) lead(s *shape, window int) {
	l := &leader{window: window}
	s.lead = l
	l.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { l.feed.Load().ServeHTTP(w, r) }))
	c.replicate(s)
	if window == 0 {
		l.pops = []map[uint64]*Object{maps.Clone(c.model)}
	}
	for _, n := range c.shards {
		cfg := Config{Shards: n}
		ix, err := NewIndex(nil, &cfg)
		c.must(err, "a follower")
		f, err := ix.NewFollower(l.srv.URL, nil)
		c.must(err, "a follower")
		t := &tail{shape: &shape{name: fmt.Sprintf("follower/shards=%d of %s", n, s.name), cfg: cfg, ix: ix}, f: f, boots: 1}
		l.tails = append(l.tails, t)
		c.must(f.Sync(c.ctx(5*time.Second)), t.name)
		c.holds(t.shape, c.model, "after its bootstrap")
	}
}

// replicate enables replication on a leader's (re)opened index and serves
// its feed through server.New. The followers reach only the replication
// endpoints, which need no engine.
func (c *checker) replicate(s *shape) {
	l := s.lead
	repl, err := s.ix.EnableReplication(&ReplicationConfig{RetainFrames: l.window})
	c.must(err, s.name+": EnableReplication")
	l.repl, l.seq = repl, 0
	l.feed.Store(server.New(s.ix, nil, &server.Options{Replication: repl}))
}

// ctx is a context that ends after d, and with the test.
func (c *checker) ctx(d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	c.t.Cleanup(cancel)
	return ctx
}

func (c *checker) close() {
	for _, s := range c.shapes {
		if l := s.lead; l != nil {
			l.srv.Close()
			for _, t := range l.tails {
				t.ix.Close()
			}
		}
		if s.web != nil {
			s.web.srv.Close()
			s.web.eng.Close()
		}
		s.ix.Close()
	}
}

func (c *checker) must(err error, where string) {
	c.t.Helper()
	if err != nil {
		c.t.Fatalf("%s: %s: %v", c.at, where, err)
	}
}

// object is the object the generator draws for id: the same id draws the
// same object until it is re-issued.
func (c *checker) object(id uint64) *Object {
	return c.blob(rand.New(rand.NewPCG(id, c.salt+c.issued[id]<<8)), id)
}

// blob draws one object. On the lattice: one to four points on a 6×6 grid
// around a kernel point, memberships k/8. Continuous: ten points scattered
// around a kernel in a 12×12 square, memberships in eighths.
func (c *checker) blob(rng *rand.Rand, id uint64) *Object {
	var pts []WeightedPoint
	if c.lat {
		x, y := float64(rng.IntN(6)), float64(rng.IntN(6))
		pts = append(pts, WeightedPoint{P: Point{x, y}, Mu: 1})
		for i := rng.IntN(4); i > 0; i-- {
			dx, dy := float64(rng.IntN(3)-1), float64(rng.IntN(3)-1)
			pts = append(pts, WeightedPoint{P: Point{x + dx, y + dy}, Mu: float64(1+rng.IntN(8)) / 8})
		}
	} else {
		x, y := rng.Float64()*12, rng.Float64()*12
		pts = append(pts, WeightedPoint{P: Point{x, y}, Mu: 1})
		for i := 0; i < 9; i++ {
			dx, dy := rng.NormFloat64(), rng.NormFloat64()
			pts = append(pts, WeightedPoint{P: Point{x + dx, y + dy}, Mu: float64(1+rng.IntN(8)) / 8})
		}
	}
	o, err := NewObject(id, pts)
	if err != nil {
		panic(err)
	}
	return o
}

// level draws a threshold: a membership level on the lattice, anything in
// (0, 1] otherwise.
func (c *checker) level(rng *rand.Rand) float64 {
	if c.lat {
		return float64(1+rng.IntN(8)) / 8
	}
	return 1 - rng.Float64()
}

// fresh draws n objects under ids that are not live, at most up to
// maxLive: an unused id, or, one time in four when rng is given, a deleted
// id re-issued with a new object.
func (c *checker) fresh(rng *rand.Rand, n int) []*Object {
	n = min(n, maxLive-len(c.model))
	objs := make([]*Object, 0, max(n, 0))
	for i := 0; i < n; i++ {
		if rng != nil && len(c.dead) > 0 && rng.IntN(4) == 0 {
			j := rng.IntN(len(c.dead))
			id := c.dead[j]
			c.dead = slices.Delete(c.dead, j, j+1)
			c.issued[id]++
			objs = append(objs, c.object(id))
			continue
		}
		objs = append(objs, c.object(c.next))
		c.next++
	}
	return objs
}

// write lands one committed mutation on every mutable shape but skip —
// Insert or Delete for a single item, else ApplyBatch — and admits it to
// the model. Each call must charge one object access per delete and none
// per insert (unless readers race it), and append exactly one frame on a
// leader, none when empty.
func (c *checker) write(ins []*Object, dels []uint64, single bool, skip *shape) {
	c.t.Helper()
	for i, s := range c.shapes {
		if s != skip {
			c.writeTo(i, s, ins, dels, single)
		}
	}
	c.admit(ins, dels)
}

// writeTo lands one committed mutation on the i-th mutable shape, s.
func (c *checker) writeTo(i int, s *shape, ins []*Object, dels []uint64, single bool) {
	c.t.Helper()
	before, replied := s.ix.TotalObjectAccesses(), s.web.charged()
	c.must(c.window.Commit(i, 1, func() error { return c.post(s, ins, dels, single) }), s.name)
	got := s.ix.TotalObjectAccesses() - before
	if c.window == nil && (got != int64(len(dels)) || s.web != nil && s.web.charged()-replied != got) {
		c.t.Fatalf("%s: %s: %d inserts and %d deletes charged %d object accesses, replied %d, want one per delete", c.at, s.name, len(ins), len(dels), got, s.web.charged()-replied)
	}
	c.framed(s, len(ins)+len(dels) > 0)
}

// framed checks a leader's frame log after one call on s: one more frame
// when the call committed a mutation, none otherwise.
func (c *checker) framed(s *shape, committed bool) {
	c.t.Helper()
	l := s.lead
	if l == nil {
		return
	}
	if committed {
		l.seq++
	}
	if got := l.repl.LastSeq(); got != l.seq {
		c.t.Fatalf("%s: %s: the feed is at sequence %d, want %d", c.at, s.name, got, l.seq)
	}
}

// admit applies a mutation to the model and checks every shape holds it.
func (c *checker) admit(inserts []*Object, deletes []uint64) {
	c.t.Helper()
	c.apply(inserts, deletes)
	for _, s := range c.shapes {
		c.checkPopulation(s)
	}
}

// apply applies a mutation to the model, and records the population at
// each sequence the default-window leader has no population for yet.
func (c *checker) apply(inserts []*Object, deletes []uint64) {
	for _, o := range inserts {
		c.model[o.ID()] = o
		c.live = append(c.live, o.ID())
	}
	for _, id := range deletes {
		delete(c.model, id)
		c.live = slices.DeleteFunc(c.live, func(x uint64) bool { return x == id })
		c.dead = append(c.dead, id)
	}
	for _, s := range c.shapes {
		if l := s.lead; l != nil && l.pops != nil && uint64(len(l.pops)) <= l.seq {
			l.pops = append(l.pops, maps.Clone(c.model))
		}
	}
}

// checkPopulation asserts s holds the model's population in sound trees.
func (c *checker) checkPopulation(s *shape) {
	c.t.Helper()
	if s.ix.Len() != len(c.model) || len(c.model) > 0 && s.ix.Dims() != 2 {
		c.t.Fatalf("%s: %s holds %d objects of %d dimensions, the model %d", c.at, s.name, s.ix.Len(), s.ix.Dims(), len(c.model))
	}
	if check := c.hooks.CheckInvariants; check != nil {
		if err := check(s.ix); err != nil {
			c.t.Fatalf("%s: %s: %v", c.at, s.name, err)
		}
	}
	sum := 0
	for _, si := range s.ix.ShardInfo() {
		sum += si.Objects
	}
	if sum != len(c.model) {
		c.t.Fatalf("%s: %s's shards hold %d objects, the model %d", c.at, s.name, sum, len(c.model))
	}
}

// holds asserts s holds exactly the objects of pop.
func (c *checker) holds(s *shape, pop map[uint64]*Object, when string) {
	c.t.Helper()
	if s.ix.Len() != len(pop) {
		c.t.Fatalf("%s: %s holds %d objects %s, want %d", c.at, s.name, s.ix.Len(), when, len(pop))
	}
	for id, o := range pop {
		got, err := s.ix.Object(id)
		if err != nil || fmt.Sprint(got.WeightedPoints()) != fmt.Sprint(o.WeightedPoints()) {
			c.t.Fatalf("%s: %s holds %v (%v) for id %d %s, want %v", c.at, s.name, got, err, id, when, o.WeightedPoints())
		}
	}
}

// victims picks m distinct live ids.
func (c *checker) victims(rng *rand.Rand, m int) []uint64 {
	m = min(m, len(c.live))
	var ids []uint64
	for _, i := range rng.Perm(len(c.live))[:m] {
		ids = append(ids, c.live[i])
	}
	return ids
}

func (c *checker) run() {
	for step := 0; step < maxOps && c.pos < len(c.data); step++ {
		op, arg := c.input()%numOps, c.input()
		rng := rand.New(rand.NewPCG(uint64(arg), c.salt^uint64(step)<<8))
		switch op {
		case OpInsert:
			for _, o := range c.fresh(rng, int(arg%4)+1) {
				c.at = fmt.Sprintf("step %d: insert %d", step, o.ID())
				c.write([]*Object{o}, nil, true, nil)
			}
		case OpDelete:
			if len(c.live) == 0 {
				continue
			}
			id := c.live[int(arg)%len(c.live)]
			c.at = fmt.Sprintf("step %d: delete %d", step, id)
			c.write(nil, []uint64{id}, true, nil)
		case OpBatch:
			objs, dels := c.fresh(rng, int(arg%6)), c.victims(rng, int(arg/6%4))
			c.at = fmt.Sprintf("step %d: batch of %d inserts, %d deletes", step, len(objs), len(dels))
			c.write(objs, dels, false, nil)
		case OpCheckpoint:
			c.at = fmt.Sprintf("step %d: reopen after %s", step, []string{"no checkpoint", "a checkpoint", "a checkpoint writes race"}[arg%3])
			if arg%3 == 2 {
				c.raced(rng, arg)
			} else {
				c.reopen(arg%3 == 1)
			}
		case OpQuery:
			c.at = fmt.Sprintf("step %d: query %d", step, arg)
			c.query(rng)
		case OpRefuse:
			c.at = fmt.Sprintf("step %d: refuse %d", step, arg)
			c.refuse(rng, arg)
		case OpRestart:
			c.at = fmt.Sprintf("step %d: restart", step)
			for _, s := range c.shapes {
				if s.lead != nil && s.log != "" {
					c.reopenShape(s)
					c.checkPopulation(s)
				}
			}
		case OpFailStop:
			c.failStop(rng, arg, step)
		case OpRace:
			c.at = fmt.Sprintf("step %d: race %d", step, arg)
			c.race(rng, arg)
		}
		for _, s := range c.shapes {
			if s.web != nil {
				c.counters(s, len(c.model))
			}
		}
	}
}

// reopen closes and reopens every log shape, after a checkpoint if cut;
// an in-memory shape must refuse to checkpoint.
func (c *checker) reopen(cut bool) {
	for _, s := range c.shapes {
		if cut {
			n, err := c.checkpoint(s)
			c.checkpointed(s, n, err)
		}
		if s.log != "" {
			c.reopenShape(s)
			c.checkPopulation(s)
		}
	}
}

// checkpointed checks s's answer to a checkpoint, n infos and err: a log
// shape cuts one checkpoint per shard, an in-memory shape refuses.
func (c *checker) checkpointed(s *shape, n int, err error) {
	c.t.Helper()
	switch {
	case s.log == "" && !errors.Is(err, ErrCheckpointUnsupported):
		c.t.Fatalf("%s: %s: Checkpoint = %v, want ErrCheckpointUnsupported", c.at, s.name, err)
	case s.log != "" && err != nil:
		c.t.Fatalf("%s: %s: %v", c.at, s.name, err)
	case s.log != "" && n != s.ix.NumShards():
		c.t.Fatalf("%s: %s: %d checkpoint infos for %d shards", c.at, s.name, n, s.ix.NumShards())
	}
}

// raced checkpoints every shape while two commits land between a log
// shape's cut and its commit: a batch of arg/3%4 fresh inserts and
// 2+arg/12%2 deletes, then the re-insert, under a new object, of the first
// id it deleted. The checkpoint's snapshot write (store.ckpt.write, after
// the cut) stalls until both have committed, so the suffix that moves
// into the new log generation holds puts, tombstones and an id that was
// live at the cut and changed since. Every shape must then read the
// model's objects, and each deleted id's last version, before its reopen,
// and hold the model after it.
func (c *checker) raced(rng *rand.Rand, arg byte) {
	ins, dels := c.fresh(rng, int(arg/3%4)), c.victims(rng, 2+int(arg/12%2))
	groups := []group{{ins, dels}}
	gone := map[uint64]*Object{}
	if len(dels) > 0 {
		for _, id := range dels[1:] {
			gone[id] = c.model[id]
		}
		c.issued[dels[0]]++
		groups = append(groups, group{ins: []*Object{c.object(dels[0])}})
	}
	for i, s := range c.shapes {
		c.checkpointBeside(i, s, groups)
	}
	for _, g := range groups {
		c.apply(g.ins, g.dels)
	}
	if len(dels) > 0 {
		c.dead = slices.DeleteFunc(c.dead, func(id uint64) bool { return id == dels[0] })
	}
	for _, s := range c.shapes {
		c.checkPopulation(s)
		c.holds(s, c.model, "after a checkpoint writes raced")
		for id, o := range gone {
			if got, err := s.ix.Object(id); err != nil || fmt.Sprint(got.WeightedPoints()) != fmt.Sprint(o.WeightedPoints()) {
				c.t.Fatalf("%s: %s reads deleted id %d as %v (%v), want its last version %v", c.at, s.name, id, got, err, o.WeightedPoints())
			}
		}
		if s.log != "" {
			c.reopenShape(s)
			c.checkPopulation(s)
			c.holds(s, c.model, "after its reopen")
		}
	}
}

// group is one commit's inserts and deletes.
type group struct {
	ins  []*Object
	dels []uint64
}

// checkpointBeside checkpoints s and lands the groups' commits on it while
// a log shape's checkpoint is held between its cut and its commit: its
// snapshot write stalls (fault.Spec.Until) until the commits are in. An
// in-memory shape refuses the checkpoint and takes the commits after.
func (c *checker) checkpointBeside(i int, s *shape, groups []group) {
	c.t.Helper()
	cut, wrote, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer fault.Enable("store.ckpt.write", fault.Spec{Action: fault.ActStall, Nth: 1, Until: func() {
		close(cut)
		<-wrote
	}})()
	var n int
	var err error
	go func() {
		defer close(done)
		n, err = c.checkpoint(s)
	}()
	finish := sync.OnceFunc(func() {
		close(wrote)
		<-done
	})
	defer finish() // also when a check below fails the test
	select {
	case <-cut:
	case <-done:
		if s.log != "" {
			c.t.Fatalf("%s: %s: the checkpoint returned (%v) without writing a snapshot", c.at, s.name, err)
		}
	}
	for _, g := range groups {
		c.writeTo(i, s, g.ins, g.dels, false)
	}
	finish()
	c.checkpointed(s, n, err)
}

// reopenShape closes and reopens a log shape. A leader restarts: it
// replicates under a new generation, served at the same URL, and so does a
// served shape's server, with a new engine.
func (c *checker) reopenShape(s *shape) {
	if s.web != nil {
		s.web.eng.Close()
	}
	c.must(s.ix.Close(), s.name)
	ix, err := OpenLogIndex(s.log, 0, &s.cfg)
	c.must(err, s.name+" reopen")
	s.ix = ix
	if s.web != nil {
		c.serve(s)
	}
	if s.lead != nil {
		c.replicate(s)
		s.lead.restarted = true
	}
}

// refuse draws one write that must fail — a live id inserted again, a dead
// or never-issued id deleted, a nil or a 3-D object inserted, or, in a
// batch, one live id deleted twice — and runs it on every mutable shape:
// as an Insert or Delete and as its one-item ApplyBatch (arg/5 even), or
// inside a batch of valid items (odd), which from arg 128 on carries a
// second refused item in the same half: a nil object or a never-issued id.
// It must change no population and append no frame.
func (c *checker) refuse(rng *rand.Rand, arg byte) {
	var bad *Object
	item := BatchItemError{Op: BatchInsertOp, Err: ErrInvalidQuery}
	var badID uint64
	repeat := false
	switch kind := arg % 5; {
	case kind == 0 && len(c.live) > 0:
		bad, item.Err = c.model[c.live[rng.IntN(len(c.live))]], ErrDuplicate
	case kind == 1:
		item, badID = BatchItemError{Op: BatchDeleteOp, Err: ErrNotFound}, c.next+1<<20
		if len(c.dead) > 0 && rng.IntN(2) == 0 {
			badID = c.dead[rng.IntN(len(c.dead))]
		}
	case kind == 3 && len(c.model) > 0:
		var err error
		bad, err = NewObject(c.next+1<<21, []WeightedPoint{{P: Point{1, 2, 3}, Mu: 1}})
		c.must(err, "a 3-D object")
	case kind == 4 && len(c.live) > 0:
		item.Op, repeat = BatchDeleteOp, true
	}
	items := []BatchItemError{item}
	var ins []*Object
	var dels []uint64
	if arg/5%2 == 1 || repeat {
		// Valid items around the drawn one, under ids no other item names.
		for i := range rng.IntN(3) {
			ins = append(ins, c.object(c.next+uint64(i)))
		}
		n := rng.IntN(3)
		if repeat {
			n++
		}
		for _, id := range c.victims(rng, n) {
			if bad == nil || id != bad.ID() {
				dels = append(dels, id)
			}
		}
		switch {
		case repeat:
			first := rng.IntN(len(dels))
			items[0].Pos = first + 1 + rng.IntN(len(dels)-first)
			dels = slices.Insert(dels, items[0].Pos, dels[first])
		case item.Op == BatchDeleteOp:
			items[0].Pos = rng.IntN(len(dels) + 1)
			dels = slices.Insert(dels, items[0].Pos, badID)
		default:
			items[0].Pos = rng.IntN(len(ins) + 1)
			ins = slices.Insert(ins, items[0].Pos, bad)
		}
		if arg >= 128 {
			// A second refused item in the same half of the batch.
			second := BatchItemError{Op: item.Op, Err: ErrInvalidQuery}
			if item.Op == BatchDeleteOp {
				second.Pos, second.Err = rng.IntN(len(dels)+1), ErrNotFound
				dels = slices.Insert(dels, second.Pos, c.next+1<<20+1)
			} else {
				second.Pos = rng.IntN(len(ins) + 1)
				ins = slices.Insert(ins, second.Pos, nil)
			}
			if second.Pos <= items[0].Pos {
				items[0].Pos++
			}
			items = append(items, second)
			slices.SortFunc(items, func(a, b BatchItemError) int { return a.Pos - b.Pos })
		}
	} else if item.Op == BatchDeleteOp {
		dels = []uint64{badID}
	} else {
		ins = []*Object{bad}
	}
	for _, s := range c.shapes {
		if s.web != nil {
			c.refuseOver(s, ins, dels, items)
			continue
		}
		charged := c.refused(s, ins, dels, false, items)
		if len(ins)+len(dels) == 1 {
			if single := c.refused(s, ins, dels, true, items); single != charged {
				c.t.Fatalf("%s: %s: the refusal charged %d object accesses through Insert/Delete, %d through ApplyBatch", c.at, s.name, single, charged)
			}
		}
		c.framed(s, false)
	}
	c.admit(nil, nil)
}

// refused runs one write on s that must be refused: through Insert or
// Delete (single) with the one item's own error, through ApplyBatch as a
// *BatchError naming exactly items, in order, each with its error class.
// It returns the object accesses the call charged.
func (c *checker) refused(s *shape, ins []*Object, dels []uint64, single bool, items []BatchItemError) int64 {
	c.t.Helper()
	before := s.ix.TotalObjectAccesses()
	err := c.mutate(s, ins, dels, single)
	var be *BatchError
	isBatch := errors.As(err, &be)
	switch {
	case slices.ContainsFunc(items, func(it BatchItemError) bool { return !errors.Is(err, it.Err) }):
		c.t.Fatalf("%s: %s: %d inserts, %d deletes (single %v) answer %v, want %v", c.at, s.name, len(ins), len(dels), single, err, items)
	case single && isBatch:
		c.t.Fatalf("%s: %s: Insert or Delete answers a *BatchError: %v", c.at, s.name, err)
	case !single && (!isBatch || !slices.EqualFunc(be.Items, items, func(got, want BatchItemError) bool {
		return got.Op == want.Op && got.Pos == want.Pos && errors.Is(got.Err, want.Err)
	})):
		c.t.Fatalf("%s: %s: ApplyBatch answers %v, want a *BatchError naming exactly %v", c.at, s.name, err, items)
	}
	return s.ix.TotalObjectAccesses() - before
}

// failStop runs one batch of fresh inserts and live deletes on every mutable
// shape, on one log shape with a log failpoint armed for its first call (a
// library log shape picked by arg below 128, else served-sharded, over
// HTTP): an fsync that fails (on a shape that syncs) or a write that fails,
// lands short or tears. That shape must fail-stop. Until it is reopened it
// answers ErrDegraded to every write and to Checkpoint, changes nothing, and
// answers every read family as a scan of what it published; a degraded
// leader bootstraps no new follower, and the followers that can still tail
// it hold the population from before the batch. Reopened, each of its shards
// holds its part of the population before the batch or of the one after it,
// and the checker lands the rest of the batch.
func (c *checker) failStop(rng *rand.Rand, arg byte, step int) {
	var logs []*shape
	s := c.shapes[len(c.shapes)-1] // served-sharded
	for _, l := range c.shapes {
		if l.log != "" && l.web == nil {
			logs = append(logs, l)
		}
	}
	if arg < 128 && len(logs) > 0 {
		s = logs[int(arg)%len(logs)]
	}
	point := "store.log.write"
	if s.cfg.Fsync == FsyncAlways && arg/8%2 == 0 {
		point = "store.log.sync"
	}
	action := [3]fault.Action{fault.ActError, fault.ActShort, fault.ActTorn}[arg/16%3]
	ins, dels := c.fresh(rng, 1+rng.IntN(4)), c.victims(rng, rng.IntN(3))
	if len(ins)+len(dels) == 0 {
		return // a full, empty model: nothing to write
	}
	c.at = fmt.Sprintf("step %d: %s=%s under %s's batch of %d inserts, %d deletes", step, point, action, s.name, len(ins), len(dels))
	before, after := maps.Clone(c.model), maps.Clone(c.model)
	for _, o := range ins {
		after[o.ID()] = o
	}
	for _, id := range dels {
		delete(after, id)
	}

	disarm := fault.Enable(point, fault.Spec{Action: action, Nth: 1})
	err := c.mutate(s, ins, dels, false)
	disarm()
	if !errors.Is(err, ErrDegraded) || s.ix.Degraded() == nil {
		c.t.Fatalf("%s: ApplyBatch = %v, Degraded = %v; want a fail-stop", c.at, err, s.ix.Degraded())
	}
	held := c.shardwise(s, before, after)
	c.degraded(s, held, rng)
	if l := s.lead; l != nil {
		f, err := NewIndex(nil, nil)
		c.must(err, "a fresh follower")
		defer f.Close()
		fol, err := f.NewFollower(l.srv.URL, nil)
		c.must(err, "a fresh follower")
		if err := fol.Sync(c.ctx(100 * time.Millisecond)); err == nil || fol.Stats().Bootstraps != 0 || f.Len() != 0 {
			c.t.Fatalf("%s: a fresh follower of a degraded leader: Sync = %v, %+v, %d objects", c.at, err, fol.Stats(), f.Len())
		}
		for _, t := range l.tails {
			if applied := t.f.Stats().AppliedSeq; l.restarted || l.window > 0 && l.seq > applied+uint64(l.window) {
				continue // it must re-bootstrap, which the leader refuses
			}
			c.must(t.f.Sync(c.ctx(5*time.Second)), t.name)
			if got := t.f.Stats().AppliedSeq; got != l.seq {
				c.t.Fatalf("%s: %s applied sequence %d of %d", c.at, t.name, got, l.seq)
			}
			c.holds(t.shape, before, "behind a degraded leader")
		}
	}

	c.reopenShape(s)
	held = c.shardwise(s, before, after)
	rest := slices.DeleteFunc(slices.Clone(ins), func(o *Object) bool { return held[o.ID()] != nil })
	gone := slices.DeleteFunc(slices.Clone(dels), func(id uint64) bool { return held[id] == nil })
	c.must(c.mutate(s, rest, gone, false), s.name+": the rest of the batch")
	c.framed(s, len(rest)+len(gone) > 0)
	c.write(ins, dels, false, s)
}

// shardwise reads the population s serves and asserts that each of its
// shards holds its part of before or its part of after.
func (c *checker) shardwise(s *shape, before, after map[uint64]*Object) map[uint64]*Object {
	c.t.Helper()
	rs, _, err := s.ix.LinearScanAKNN(c.object(0), len(before)+len(after)+1, 1)
	c.must(err, s.name+": a scan of what it serves")
	held := make(map[uint64]*Object)
	for _, r := range rs {
		held[r.ID] = cmp.Or(after[r.ID], before[r.ID])
	}
	n := s.ix.NumShards()
	for i := range n {
		part := func(pop map[uint64]*Object) string {
			ids := slices.Sorted(maps.Keys(pop))
			return fmt.Sprint(slices.DeleteFunc(ids, func(id uint64) bool { return query.ShardOf(id, n) != i }))
		}
		if got := part(held); got != part(before) && got != part(after) {
			c.t.Fatalf("%s: %s's shard %d holds %s, neither %s before the batch nor %s after it", c.at, s.name, i, got, part(before), part(after))
		}
	}
	return held
}

// degraded checks a fail-stopped shape holding held: a write to each of
// its shards, a delete, a batch and a checkpoint are refused as degraded
// and change nothing, and every read family answers the scan of held.
func (c *checker) degraded(s *shape, held map[uint64]*Object, rng *rand.Rand) {
	c.t.Helper()
	n := s.ix.NumShards()
	var probes []*Object
	for id := c.next + 1<<22; len(probes) < n; id++ {
		if query.ShardOf(id, n) == len(probes) {
			probes = append(probes, c.object(id))
		}
	}
	var errs []error
	for _, o := range probes {
		errs = append(errs, c.mutate(s, []*Object{o}, nil, true))
	}
	for id := range held {
		errs = append(errs, c.mutate(s, nil, []uint64{id}, true))
		break
	}
	_, err := c.checkpoint(s)
	errs = append(errs, c.mutate(s, probes, nil, false), err)
	for _, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			c.t.Fatalf("%s: %s: a write or checkpoint after the fail-stop answers %v, want ErrDegraded", c.at, s.name, err)
		}
	}
	c.framed(s, false)
	var objs []*Object
	for _, id := range slices.Sorted(maps.Keys(held)) {
		objs = append(objs, held[id])
	}
	p, pop, want := c.expect(objs, rng)
	c.fetchAll(s, p, want, scanOf(pop, p), c.answers(s, p, want))
	c.shardwise(s, held, held)
	if s.web != nil {
		c.counters(s, len(held))
	}
}

// race lands, on every mutable shape, a batch of arg%6 fresh inserts and
// arg/6%4 deletes, a checkpoint on the log shapes and one to
// three single inserts or deletes, while readers run every read family, a
// self-join and a join with a static index over the query on every
// mutable shape through the public Index (on a served shape only /aknn,
// /rknn and /range, over HTTP with the query inline, which must charge what
// its index counts) — each reader at least one pass
// over every (shape, read) pair, the writes starting once every reader
// reads. No reopen and no re-issued id falls inside the window. Each
// answer must be the reference over the population after some number of
// the window's writes between the writes its shape had finished when the
// read began and those begun when it ended (oracle.Window).
func (c *checker) race(rng *rand.Rand, arg byte) {
	memo := oracle.Memo{}
	pops := []*oracle.Population{oracle.New(c.objects(), memo)}
	p := c.draw(pops[0], rng)
	pin, err := NewObject(c.next+1<<23, p.q.WeightedPoints())
	c.must(err, "the static index's object")
	static, err := NewIndex([]*Object{pin}, nil)
	c.must(err, "the static index")
	defer static.Close()
	reads := append(slices.Clip(families), "self-join", "static-join")
	var names []string
	for _, s := range c.shapes {
		names = append(names, s.name)
	}
	var rs []oracle.Read
	for _, fam := range reads {
		rs = append(rs, oracle.Read{Name: fam})
	}
	// wants[k] is every read's answer over the population after k writes.
	wants := map[int]map[string]string{}
	c.window = oracle.NewWindow(names, rs, func(read, k int) string {
		if wants[k] == nil {
			wants[k] = c.want(pops[k], p)
			wants[k]["self-join"] = fmt.Sprint(oracle.Within(pops[k].Pairs(p.alpha, true), p.eps))
			wants[k]["static-join"] = fmt.Sprint(oracle.Within(pops[k].Join([]*Object{pin}, p.alpha), p.eps))
		}
		return wants[k][reads[read]]
	})
	defer func() { c.window = nil }()
	counted, replied := make([]int64, len(c.shapes)), make([]int64, len(c.shapes))
	for i, s := range c.shapes {
		counted[i], replied[i] = s.ix.TotalObjectAccesses(), s.web.charged()
	}
	log, err := c.window.Race(3, func(si, ri int) (string, error) {
		s, fam := c.shapes[si], reads[ri]
		if _, ok := wire[fam]; s.web != nil {
			if !ok {
				return "", oracle.Skip
			}
			a, _, err := c.fetch(s, p, fam, false)
			return a.got, err
		}
		ix := s.ix
		switch fam {
		case "self-join", "static-join":
			left := ix
			if fam == "static-join" {
				left = static
			}
			ps, _, err := DistanceJoin(left, ix, p.alpha, p.eps)
			return fmt.Sprint(ps), err
		default:
			a, err := readFamily(ix, p, fam)
			return a.got, err
		}
	}, func() {
		c.write(c.fresh(nil, int(arg%6)), c.victims(rng, int(arg/6%4)), false, nil)
		pops = append(pops, oracle.New(c.objects(), memo))
		for _, s := range c.shapes {
			if s.log != "" {
				_, err := c.checkpoint(s)
				c.must(err, s.name+": a checkpoint")
			}
		}
		for range 1 + rng.IntN(3) {
			if ins := c.fresh(nil, 1); len(c.live) == 0 || len(ins) > 0 && rng.IntN(2) == 0 {
				c.write(ins, nil, true, nil)
			} else {
				c.write(nil, c.victims(rng, 1), true, nil)
			}
			pops = append(pops, oracle.New(c.objects(), memo))
		}
	})
	if err != nil {
		c.t.Fatalf("%s (%v): %v", c.at, p, err)
	}
	c.t.Logf("%s: %s", c.at, log)
	for i, s := range c.shapes {
		if got, charged := s.ix.TotalObjectAccesses()-counted[i], s.web.charged()-replied[i]; s.web != nil && got != charged {
			c.t.Fatalf("%s: %s: the replies and refines beside the writes charged %d object accesses, the index counted %d", c.at, s.name, charged, got)
		}
	}
}

// objects lists the model's live objects in the order they were issued.
func (c *checker) objects() []*Object {
	objs := make([]*Object, 0, len(c.model))
	for _, id := range c.live {
		objs = append(objs, c.model[id])
	}
	return objs
}

// params are one query step's arguments.
type params struct {
	q             *Object
	k, kp         int
	alpha, as, ae float64
	radius, eps   float64
}

func (p params) String() string {
	return fmt.Sprintf("q=%d%v k=%d α=%v [%v, %v] r=%v ε=%v pairs=%d",
		p.q.ID(), p.q.WeightedPoints(), p.k, p.alpha, p.as, p.ae, p.radius, p.eps, p.kp)
}

// answer is one read on one shape: what it answered as the oracle prints it
// (lazy AKNN answers refined), the raw answer, and what the read cost.
// Answers are compared as fmt.Sprint prints them: %v prints the shortest
// representation that reads back to the same float, so equal strings mean
// bit-identical answers, and nil and empty print alike.
type answer struct {
	got, raw string
	st       Stats
	refineOA int      // object accesses of the Refine that resolved a lazy answer
	lazy     []Result // a lazy AKNN's raw answer, before the Refine
}

var (
	aknnAlgos = []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	rknnAlgos = []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR}
)

// expect draws one query step's parameters over objs and computes the
// reference answer to every single-index read family.
func (c *checker) expect(objs []*Object, rng *rand.Rand) (params, *oracle.Population, map[string]string) {
	pop := oracle.New(objs, nil)
	p := c.draw(pop, rng)
	return p, pop, c.want(pop, p)
}

// draw draws one query step's parameters over pop.
func (c *checker) draw(pop *oracle.Population, rng *rand.Rand) params {
	objs := pop.Objs
	p := params{k: 1 + rng.IntN(6), kp: 1 + rng.IntN(8), alpha: c.level(rng), as: c.level(rng), ae: c.level(rng)}
	if p.as > p.ae {
		p.as, p.ae = p.ae, p.as
	}
	if len(objs) > 0 && rng.IntN(3) == 0 {
		p.q = objs[rng.IntN(len(objs))] // a stored object as the query, as query_id sends it
	} else {
		p.q = c.blob(rng, uint64(rng.IntN(int(c.next)+1)))
	}
	p.radius, p.eps = rng.Float64()*8, rng.Float64()*4
	if c.lat {
		// At attained distances, so the inclusive boundaries decide.
		if toQ := pop.Ranked(p.q, p.alpha); len(toQ) > 0 {
			p.radius = toQ[rng.IntN(len(toQ))].Dist
		}
		if len(objs) > 1 {
			i := rng.IntN(len(objs))
			p.eps = pop.Pair(p.alpha)[i][(i+1+rng.IntN(len(objs)-1))%len(objs)]
		}
	}
	return p
}

// want is the reference answer over pop to every single-index read family.
func (c *checker) want(pop *oracle.Population, p params) map[string]string {
	ref, err := NewIndex(pop.Objs, nil)
	c.must(err, "Naive's reference index")
	naive, _, err := ref.RKNN(p.q, p.k, p.as, p.ae, Naive)
	c.must(err, "Naive over the reference index")
	want := map[string]string{
		"linear":  fmt.Sprint(asResults(pop.KNN(p.q, p.k, p.alpha))),
		"range":   fmt.Sprint(asResults(pop.Range(p.q, p.alpha, p.radius))),
		"reverse": fmt.Sprint(asResults(pop.Reverse(p.q, p.k, p.alpha))),
		"eknn":    fmt.Sprint(asResults(pop.KNN(p.q, p.k, oracle.Expected))),
	}
	for _, algo := range aknnAlgos {
		want["aknn/"+algo.String()] = want["linear"]
	}
	for _, algo := range rknnAlgos {
		want["rknn/"+algo.String()] = showRanged(naive)
	}
	return want
}

// query draws one step's parameters, computes the reference answers and
// checks every shape and every follower against them.
func (c *checker) query(rng *rand.Rand) {
	objs := c.objects()
	p, pop, want := c.expect(objs, rng)
	shapes := c.shapes
	if len(objs) > 0 {
		shapes = append(slices.Clip(shapes), c.pagedShapes(objs)...)
		defer func() {
			for _, s := range shapes[len(c.shapes):] {
				s.ix.Close()
			}
		}()
	}
	scan := scanOf(pop, p)
	runs := make([]map[string]answer, len(shapes))
	for i, s := range shapes {
		runs[i] = c.answers(s, p, want)
		for _, fam := range slices.Sorted(maps.Keys(runs[i])) {
			c.enclosed(s, p, fam, runs[i][fam].lazy, scan)
		}
		c.fetchAll(s, p, want, scan, runs[i])
	}
	c.costsAgree(shapes, runs, pop, p)
	for i := len(c.shapes); i < len(shapes); i++ {
		if shapes[i].paged {
			c.pagedAgrees(shapes[i], runs[i], shapes[i-1], runs[i-1])
		}
		c.checkPopulation(shapes[i])
	}
	// A lazy answer of one tree refines to the same answer through any
	// shape over the same population.
	lazy, _, err := shapes[0].ix.AKNN(p.q, p.k, p.alpha, LBLPUB)
	c.must(err, shapes[0].name)
	for _, s := range shapes {
		rs, _, err := s.ix.Refine(p.q, p.alpha, lazy)
		c.must(err, s.name+": refine "+shapes[0].name+"'s answer")
		if got := fmt.Sprint(rs); got != want["linear"] {
			c.t.Fatalf("%s (%v): %s refines %s's lazy answer to\n %s\nwant\n %s", c.at, p, s.name, shapes[0].name, got, want["linear"])
		}
	}
	c.joins(shapes, pop, p)
	for _, s := range c.shapes {
		if l := s.lead; l != nil {
			for _, t := range l.tails {
				c.follow(l, t, p, want)
			}
			l.restarted = false
		}
	}
}

// scanOf returns every object's α-distance to p's query, by id.
func scanOf(pop *oracle.Population, p params) map[uint64]float64 {
	scan := map[uint64]float64{}
	for _, sc := range pop.Ranked(p.q, p.alpha) {
		scan[sc.ID] = sc.Dist
	}
	return scan
}

// enclosed holds every result of a raw AKNN answer to the scan's distances
// (scan, by id): an exact result sits at its object's distance, and a
// non-exact one reports its lower bound as its distance, with its object's
// distance within [Lower, Upper]. Refine replaces a non-exact result by the
// exact one, so a false bound on an object that belongs to the answer shows
// only here.
func (c *checker) enclosed(s *shape, p params, fam string, rs []Result, scan map[uint64]float64) {
	c.t.Helper()
	for _, r := range rs {
		d, ok := scan[r.ID]
		if r.Exact && (!ok || r.Dist != d) || !r.Exact && (!ok || r.Dist != r.Lower || d < r.Lower || d > r.Upper) {
			c.t.Fatalf("%s (%v): %s: %s answers %+v, the scan's distance is %v", c.at, p, s.name, fam, r, d)
		}
	}
}

// follow brings one follower up to its leader — the default-window
// leader's first follower one committed sequence at a time, holding that
// sequence's population at each — and checks its position, its bootstrap
// count, its population and its answers to every read family.
func (c *checker) follow(l *leader, t *tail, p params, want map[string]string) {
	c.t.Helper()
	ctx := c.ctx(5 * time.Second)
	applied := t.f.Stats().AppliedSeq
	if l.restarted || l.window > 0 && l.seq > applied+uint64(l.window) {
		t.boots++
	}
	if l.pops != nil && t == l.tails[0] {
		for seq := applied + 1; seq <= l.seq; seq++ {
			c.must(t.f.SyncTo(ctx, seq), t.name)
			c.holds(t.shape, l.pops[seq], fmt.Sprintf("at sequence %d", seq))
		}
	}
	c.must(t.f.Sync(ctx), t.name)
	if st := t.f.Stats(); st.AppliedSeq != l.seq || st.LagFrames != 0 || st.Bootstraps != t.boots {
		c.t.Fatalf("%s: %s: %+v, want sequence %d, no lag, %d bootstraps", c.at, t.name, st, l.seq, t.boots)
	}
	c.checkPopulation(t.shape)
	c.holds(t.shape, c.model, "after a sync")
	c.answers(t.shape, p, want)
}

// pagedShapes saves the model to a store file and builds, per build mode
// and shard count, a static index over it (OpenIndex) and that index saved
// and reopened paged; each paged shape directly follows the index it was
// saved from (none without the OpenPagedTiny hook). Both are read-only:
// Insert, Delete and their one-item batches are refused alike.
func (c *checker) pagedShapes(objs []*Object) []*shape {
	storePath := filepath.Join(c.dir, "objects.fzs")
	c.must(SaveObjects(storePath, 2, objs), "SaveObjects")
	var out []*shape
	for _, s := range c.shapes {
		if s.log == "" || s.web != nil {
			continue
		}
		layout := s.name[len("log/"):]
		src, err := OpenIndex(storePath, &s.cfg)
		c.must(err, "static/"+layout)
		out = append(out, &shape{name: "static/" + layout, cfg: s.cfg, ix: src})
		if c.hooks.OpenPagedTiny == nil {
			continue
		}
		pagePath := filepath.Join(c.dir, fmt.Sprintf("index-%d-%v.fzp", s.cfg.Shards, s.cfg.Incremental))
		c.must(src.SavePaged(pagePath), "static/"+layout+" SavePaged")
		cfg := s.cfg
		cfg.CacheSize = 0
		px, err := c.hooks.OpenPagedTiny(storePath, pagePath, cfg)
		c.must(err, "paged/"+layout)
		out = append(out, &shape{name: "paged/" + layout, cfg: cfg, ix: px, paged: true})
	}
	for _, s := range out {
		for _, single := range []bool{true, false} {
			c.refused(s, objs[:1], nil, single, []BatchItemError{{Op: BatchInsertOp, Err: ErrReadOnly}})
			c.refused(s, nil, []uint64{objs[0].ID()}, single, []BatchItemError{{Op: BatchDeleteOp, Err: ErrReadOnly}})
		}
	}
	return out
}

// answers reads s and checks every family's answer against want.
func (c *checker) answers(s *shape, p params, want map[string]string) map[string]answer {
	c.t.Helper()
	runs := c.read(s, p)
	for fam, a := range runs {
		if a.got != want[fam] {
			c.t.Fatalf("%s (%v): %s: %s answers\n %s\nwant\n %s", c.at, p, s.name, fam, a.got, want[fam])
		}
	}
	return runs
}

// read runs every single-index read family on s and checks the access
// accounting: what the calls charged is what the index and its shards
// counted.
func (c *checker) read(s *shape, p params) map[string]answer {
	c.t.Helper()
	ix := s.ix
	out := make(map[string]answer)
	before := ix.TotalObjectAccesses()
	for _, fam := range families {
		a, err := readFamily(ix, p, fam)
		c.must(err, s.name+": "+fam)
		if a.st.Duration <= 0 {
			c.t.Fatalf("%s: %s: %s reports no duration", c.at, s.name, fam)
		}
		out[fam] = a
	}

	var charged int64
	for _, a := range out {
		charged += int64(a.st.ObjectAccesses + a.refineOA)
	}
	var perShard int64
	for _, si := range ix.ShardInfo() {
		perShard += si.ObjectAccesses
	}
	if total := ix.TotalObjectAccesses(); total-before != charged || perShard != total {
		c.t.Fatalf("%s: %s: the reads charged %d object accesses, the index counted %d, its shards %d in all",
			c.at, s.name, charged, total-before, perShard)
	}
	if _, _, ok := ix.ObjectCacheStats(); ok != (s.cfg.CacheSize > 0) {
		c.t.Fatalf("%s: %s: ObjectCacheStats ok = %v with CacheSize %d", c.at, s.name, ok, s.cfg.CacheSize)
	}
	if _, ok := ix.PageCacheStats(); ok != s.paged {
		c.t.Fatalf("%s: %s: PageCacheStats ok = %v", c.at, s.name, ok)
	}
	return out
}

// families names the single-index read families as the oracle keys them.
var families = func() []string {
	fams := []string{"linear", "range", "reverse", "eknn"}
	for _, algo := range aknnAlgos {
		fams = append(fams, "aknn/"+algo.String())
	}
	for _, algo := range rknnAlgos {
		fams = append(fams, "rknn/"+algo.String())
	}
	return fams
}()

// readFamily runs one read family on ix; a lazy AKNN answer is refined on
// ix, at the cost refineOA.
func readFamily(ix *Index, p params, fam string) (answer, error) {
	var rs []Result
	var st Stats
	var err error
	switch fam {
	case "linear":
		rs, st, err = ix.LinearScanAKNN(p.q, p.k, p.alpha)
	case "range":
		rs, st, err = ix.RangeSearch(p.q, p.alpha, p.radius)
	case "reverse":
		rs, st, err = ix.ReverseKNN(p.q, p.k, p.alpha)
	case "eknn":
		rs, st, err = ix.ExpectedDistKNN(p.q, p.k)
	}
	for _, algo := range rknnAlgos {
		if fam == "rknn/"+algo.String() {
			rr, st, err := ix.RKNN(p.q, p.k, p.as, p.ae, algo)
			return answer{got: showRanged(rr), raw: showRanged(rr), st: st}, err
		}
	}
	for _, algo := range aknnAlgos {
		if fam == "aknn/"+algo.String() {
			rs, st, err = ix.AKNN(p.q, p.k, p.alpha, algo)
			if err == nil && (algo == LBLP || algo == LBLPUB) {
				refined, rst, err := ix.Refine(p.q, p.alpha, rs)
				return answer{got: fmt.Sprint(refined), raw: fmt.Sprint(rs), st: st, refineOA: rst.ObjectAccesses, lazy: rs}, err
			}
		}
	}
	return answer{got: fmt.Sprint(rs), raw: fmt.Sprint(rs), st: st}, err
}

// logical is a read's cost with what may differ between shapes of one
// population zeroed: tree-node visits and page faults depend on how the
// population is cut into trees, and wall time on the machine.
func logical(st Stats) Stats {
	st.NodeAccesses, st.PageReads, st.PageCacheHits, st.Duration = 0, 0, 0, 0
	return st
}

// costsAgree checks the layout-invariant costs: within one build mode,
// every shape's AKNN under all four algorithms, every RKNN algorithm and
// range search answer byte for byte what the first shape (a single
// in-memory tree) answers, bounds and exact flags included, at the same
// cost in every counter but node visits. A lazy AKNN also probes exactly
// the entries it deferred and did not admit, and at most what LB probes.
// Basic, LB, range search, RSS and RSS-ICR read exactly as many objects as
// the oracle's cost model over pop says they read.
func (c *checker) costsAgree(shapes []*shape, runs []map[string]answer, pop *oracle.Population, p params) {
	c.t.Helper()
	rss := len(pop.RSSReads(p.q, p.k, p.as, p.ae))
	model := map[string]int{
		"aknn/" + Basic.String():  len(pop.Reads(p.q, p.k, p.alpha, false)),
		"aknn/" + LB.String():     len(pop.Reads(p.q, p.k, p.alpha, true)),
		"range":                   len(pop.RangeReads(p.q, p.alpha, p.radius)),
		"rknn/" + RSS.String():    rss,
		"rknn/" + RSSICR.String(): rss,
	}
	for i, s := range shapes {
		for fam, n := range model {
			if got := runs[i][fam].st.ObjectAccesses; got != n {
				c.t.Fatalf("%s (%v): %s: %s reads %d objects, the cost model %d", c.at, p, s.name, fam, got, n)
			}
		}
	}
	for _, inc := range []bool{false, true} {
		var ref map[string]answer
		for i, s := range shapes {
			if s.cfg.Incremental != inc {
				continue
			}
			if ref == nil {
				ref = runs[i]
			}
			for fam, a := range runs[i] {
				if !layoutInvariant(fam) {
					continue
				}
				if a.raw != ref[fam].raw {
					c.t.Fatalf("%s: %s: %s answers\n %s\nthe single tree\n %s", c.at, s.name, fam, a.raw, ref[fam].raw)
				}
				if got, want := logical(a.st), logical(ref[fam].st); got != want {
					c.t.Fatalf("%s: %s: %s costs %+v, the single tree %+v", c.at, s.name, fam, got, want)
				}
				if fam == "aknn/"+LBLP.String() || fam == "aknn/"+LBLPUB.String() {
					st, lb := a.st, runs[i]["aknn/"+LB.String()].st
					if st.ObjectAccesses != st.LazyDeferred-st.LazyAdmitted ||
						st.ObjectAccesses > lb.ObjectAccesses || st.DistanceEvals > lb.DistanceEvals {
						c.t.Fatalf("%s: %s: %s costs %+v, LB %+v", c.at, s.name, fam, st, lb)
					}
				}
			}
		}
	}
}

// layoutInvariant reports whether fam's raw answer and cost are the same on
// every shape of one build mode: AKNN under every algorithm, every RKNN
// algorithm and range search.
func layoutInvariant(fam string) bool {
	return fam == "range" || strings.HasPrefix(fam, "aknn/") || strings.HasPrefix(fam, "rknn/")
}

// pagedAgrees checks a paged shape against the tree it was saved from:
// the same raw answers, bounds included, at the same cost down to node
// visits, with the node visits served by page I/O through a block cache
// that evicts and stays within its capacity.
func (c *checker) pagedAgrees(px *shape, pruns map[string]answer, src *shape, sruns map[string]answer) {
	c.t.Helper()
	visits := 0
	for fam, a := range pruns {
		s := sruns[fam]
		if a.raw != s.raw {
			c.t.Fatalf("%s: %s: %s answers\n %s\nthe tree it was saved from\n %s", c.at, px.name, fam, a.raw, s.raw)
		}
		if logical(a.st) != logical(s.st) || a.st.NodeAccesses != s.st.NodeAccesses {
			c.t.Fatalf("%s: %s: %s costs %+v, the tree it was saved from %+v", c.at, px.name, fam, a.st, s.st)
		}
		if s.st.PageReads != 0 || s.st.PageCacheHits != 0 {
			c.t.Fatalf("%s: %s: %s charged page I/O: %+v", c.at, src.name, fam, s.st)
		}
		visits += a.st.PageReads + a.st.PageCacheHits
	}
	cs, _ := px.ix.PageCacheStats()
	if cs.ResidentBytes > cs.CapacityBytes {
		c.t.Fatalf("%s: %s: %d resident bytes exceed the capacity %d", c.at, px.name, cs.ResidentBytes, cs.CapacityBytes)
	}
	var misses int64
	for i, si := range px.ix.ShardInfo() {
		pc := si.PageCache
		if pc == nil {
			c.t.Fatalf("%s: %s: shard %d reports no page cache", c.at, px.name, i)
		}
		if si.TreeHeight > 1 && visits == 0 {
			c.t.Fatalf("%s: %s: shard %d of height %d shows no page I/O: %+v", c.at, px.name, i, si.TreeHeight, *pc)
		}
		if pc.Misses*pager.PageAlign > pc.CapacityBytes && pc.Evictions == 0 {
			c.t.Fatalf("%s: %s: shard %d missed %d pages into %d bytes and evicted none", c.at, px.name, i, pc.Misses, pc.CapacityBytes)
		}
		misses += pc.Misses
	}
	if misses != cs.Misses {
		c.t.Fatalf("%s: %s: %d misses by shard, %d in all", c.at, px.name, misses, cs.Misses)
	}
}

// joins checks DistanceJoin and KClosestPairs: a self-join on every shape
// (a paged shape also against the index it was saved from, cost included),
// and joins of two different shapes: single with sharded, sharded with
// single, sharded with sharded, paged with in-memory. On shapes of one
// shard count the same positions pair the two build modes, and a pair
// past the last shape is skipped.
func (c *checker) joins(shapes []*shape, pop *oracle.Population, p params) {
	c.t.Helper()
	type run struct {
		got string
		st  Stats
	}
	join := func(l, r *shape) [2]run {
		c.t.Helper()
		ps, st, err := DistanceJoin(l.ix, r.ix, p.alpha, p.eps)
		c.must(err, l.name+" ⋈ "+r.name)
		kp, kst, err := KClosestPairs(l.ix, r.ix, p.kp, p.alpha)
		c.must(err, l.name+" closest pairs "+r.name)
		all := pop.Pairs(p.alpha, l == r)
		want := [2]string{fmt.Sprint(oracle.Within(all, p.eps)), fmt.Sprint(all[:min(p.kp, len(all))])}
		out := [2]run{{fmt.Sprint(ps), st}, {fmt.Sprint(kp), kst}}
		for i, fam := range []string{"DistanceJoin", "KClosestPairs"} {
			if out[i].got != want[i] {
				c.t.Fatalf("%s (%v): %s of %s and %s answers\n %s\nwant\n %s", c.at, p, fam, l.name, r.name, out[i].got, want[i])
			}
		}
		return out
	}
	var prev [2]run
	for _, s := range shapes {
		got := join(s, s)
		if s.paged {
			for i := range got {
				if logical(got[i].st) != logical(prev[i].st) || got[i].st.NodeAccesses != prev[i].st.NodeAccesses {
					c.t.Fatalf("%s: %s: a self-join costs %+v, on the tree it was saved from %+v", c.at, s.name, got[i].st, prev[i].st)
				}
			}
		}
		prev = got
	}
	for _, lr := range [][2]int{{0, 3}, {2, 5}, {3, 6}, {len(shapes) - 1, 1}} {
		if lr[1] < len(shapes) {
			join(shapes[lr[0]], shapes[lr[1]])
		}
	}
}

// asResults turns a reference answer into the exact results an index
// answers.
func asResults(ss []oracle.Scored) []Result {
	rs := make([]Result, len(ss))
	for i, s := range ss {
		rs[i] = Result{ID: s.ID, Dist: s.Dist, Exact: true, Lower: s.Dist, Upper: s.Dist}
	}
	return rs
}

// showRanged prints RKNN results as ids and qualifying ranges, each with
// its intervals' ends and whether they are open, as /rknn carries them.
func showRanged(rs []RangedResult) string {
	s := "["
	for _, r := range rs {
		var ivs []server.IntervalJSON
		for _, iv := range r.Qualifying.Intervals() {
			ivs = append(ivs, server.IntervalJSON{Lo: iv.Lo, Hi: iv.Hi, LoOpen: iv.LoOpen, HiOpen: iv.HiOpen})
		}
		s += fmt.Sprintf(" %d:%s%v", r.ID, r.Qualifying.String(), ivs)
	}
	return s + " ]"
}
