package fuzzyknn

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// FuzzConformance is the one statement of the paper's contract: every read
// family answers exactly what a scan of the live objects answers, in every
// deployment shape, after any history of mutations. Each input is a
// generator byte, an initial population and a history of (op, arg) pairs.
// The history runs against a model — a map of the live objects — and
// against every mutable shape at once: in-memory (NewIndex) and log-backed
// (OpenLogIndex, with an object LRU, reopened at each checkpoint step),
// each at 1 and 4 shards, each built by STR and by repeated insertion. A
// query step adds, per build mode and shard count, a read-only index built
// from scratch over the model saved to a store file (OpenIndex, with an
// object LRU) and its trees saved to page files and reopened behind a
// block cache of a few pages.
//
// At each query step the checker asserts:
//   - AKNN (all four algorithms, lazy answers after Refine) and
//     LinearScanAKNN equal a scan with AlphaDistance ranked by (distance,
//     id), and one tree's lazy answer refines to it through every shape;
//     range search equals the scan with d ≤ r; ReverseKNN,
//     ExpectedDistKNN, DistanceJoin and KClosestPairs (self-joins, and
//     joins of two different shapes) equal their scans; all four RKNN
//     algorithms equal Naive over a from-scratch NewIndex of the model;
//   - shapes of one build mode cost alike: Basic and LB AKNN, every RKNN
//     algorithm and range search probe the same objects and evaluate the
//     same distances, and a sharded lazy AKNN costs what LB does;
//   - a paged shape answers byte for byte like the tree it was saved from,
//     bounds included, at the same logical cost down to node visits; it
//     shows page I/O and counts its evictions, and its resident bytes stay
//     within capacity; an in-memory shape reports no page cache;
//   - the per-call object accesses sum to the index's total and to the
//     per-shard sums.
//
// After every mutation each shard's tree passes CheckInvariants, every id
// sits in the shard that owns it, and every shape holds exactly the model's
// population.
//
// The generator byte picks continuous objects (random blobs, memberships
// in eighths) or the tie lattice: points on a small integer grid,
// memberships k/8, queries on grid points, α on membership levels and
// radii and join ε at attained distances — so many objects share the k-th
// distance exactly and every boundary rule (the (distance, id) order, the
// inclusive range, join and reverse-kNN radii, §3.3 admission) is decided
// by a tie. The seeds below are the time-boxed run; a nightly fuzz run
// shrinks any failure to a corpus file that replays it.
func FuzzConformance(f *testing.F) {
	for _, seed := range conformanceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { conform(t, data, 1, 4) })
}

// conform runs one history against the model and the shapes of the given
// shard counts.
func conform(t *testing.T, data []byte, shards ...int) {
	c := newChecker(t, data, shards)
	defer c.close()
	c.run()
}

// The tests below replay, through the same checker, histories aimed at
// one contract each.

// TestPublicShardedMatchesSingle: 4-shard shapes answer what single trees
// and the scan do, at the single tree's cost, through inserts, batches and
// deletes.
func TestPublicShardedMatchesSingle(t *testing.T) {
	conform(t, []byte{0, 24, opQuery, 11, opInsert, 3, opBatch, 17, opDelete, 5, opQuery, 12}, 1, 4)
}

// TestPublicShardedLogIndex: sharded log shapes, reopened plain, after a
// checkpoint and after a compacting one, keep answering what the scan does.
func TestPublicShardedLogIndex(t *testing.T) {
	conform(t, []byte{2, 20, opCheckpoint, 0, opQuery, 3, opBatch, 11, opCheckpoint, 1, opDelete, 2, opCheckpoint, 2, opQuery, 4}, 1, 4)
}

// TestCheckpointQueryEquivalence: at each shard count alone, a log index
// checkpointed, compacted and reopened between mutations answers every
// family like the in-memory index and the scan.
func TestCheckpointQueryEquivalence(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			conform(t, []byte{0, 20, opBatch, 9, opCheckpoint, 1, opQuery, 2, opInsert, 1, opCheckpoint, 2, opQuery, 3, opDelete, 3, opCheckpoint, 0, opQuery, 4}, n)
		})
	}
}

// TestPublicPagedMatchesMemory: paged shapes behind a three-page cache
// answer byte for byte like the static index they were saved from, on
// continuous objects and on the tie lattice.
func TestPublicPagedMatchesMemory(t *testing.T) {
	conform(t, []byte{0, 29, opQuery, 20, opQuery, 21}, 1, 4)
	conform(t, []byte{1, 29, opQuery, 22}, 1, 4)
}

// TestPublicDiskIndexMatchesMemory: static indexes over a store file,
// behind an object LRU, answer what the in-memory ones and the scan do.
func TestPublicDiskIndexMatchesMemory(t *testing.T) {
	conform(t, []byte{6, 25, opQuery, 30, opQuery, 31}, 1, 4)
}

// TestDynamicIndexMatchesRebuilt: indexes mutated by inserts, deletes and
// batches answer what indexes built from scratch over the same objects do.
func TestDynamicIndexMatchesRebuilt(t *testing.T) {
	conform(t, []byte{4, 10, opInsert, 3, opInsert, 2, opDelete, 1, opBatch, 20, opDelete, 6, opQuery, 5}, 1, 4)
}

// TestPublicDeterministicAcrossConfigs: on the tie lattice, STR and
// incremental builds at every shard count break every tie alike.
func TestPublicDeterministicAcrossConfigs(t *testing.T) {
	conform(t, []byte{3, 25, opQuery, 40, opBatch, 7, opQuery, 41}, 1, 4)
}

// TestBatchMatchesSequentialPublic: histories that mix ApplyBatch with
// single inserts and deletes leave every shape equal to the model.
func TestBatchMatchesSequentialPublic(t *testing.T) {
	conform(t, []byte{2, 0, opBatch, 5, opInsert, 3, opBatch, 23, opInsert, 2, opBatch, 17, opQuery, 6, opBatch, 22, opDelete, 4, opQuery, 7}, 1, 4)
}

// The history ops. An op byte is read modulo numOps; each op takes one
// argument byte.
const (
	opInsert     = iota // arg%4 + 1 fresh objects, one Insert each
	opDelete            // Delete the live object at arg mod population
	opBatch             // one ApplyBatch: arg%6 fresh objects, arg/6%4 deletes
	opCheckpoint        // close and reopen every log after no checkpoint (arg%3 = 0), a checkpoint (1) or a compacting one (2)
	opQuery             // every read family on every shape, with parameters drawn from arg
	numOps
)

// lattice is the generator byte's low bit: 0 draws continuous objects, 1
// the tie lattice. The byte's other bits salt every draw.
const lattice = 1

// conformanceSeeds: a generator byte, the initial population, then (op,
// arg) pairs.
var conformanceSeeds = [][]byte{
	// Continuous objects: bulk-loaded, churned, checkpointed and drained.
	{0, 29, opQuery, 1, opInsert, 3, opDelete, 4, opBatch, 23, opQuery, 2, opCheckpoint, 2, opDelete, 9, opQuery, 3},
	{2, 12, opBatch, 5, opBatch, 17, opCheckpoint, 0, opInsert, 2, opQuery, 7, opBatch, 22, opDelete, 0, opQuery, 8},
	{4, 3, opQuery, 4, opDelete, 0, opDelete, 0, opQuery, 5, opDelete, 0, opCheckpoint, 0, opQuery, 6, opInsert, 0, opQuery, 7},
	{6, 0, opBatch, 5, opBatch, 5, opBatch, 5, opBatch, 5, opInsert, 3, opInsert, 3, opCheckpoint, 1, opBatch, 23, opQuery, 30},
	// The tie lattice.
	{1, 28, opQuery, 1, opQuery, 2, opBatch, 23, opQuery, 3, opCheckpoint, 2, opQuery, 4},
	{3, 20, opInsert, 3, opQuery, 9, opDelete, 7, opCheckpoint, 0, opQuery, 10, opBatch, 11, opQuery, 12},
	{5, 29, opQuery, 13, opQuery, 14, opQuery, 15, opQuery, 16},
	{7, 6, opBatch, 5, opBatch, 11, opInsert, 3, opDelete, 1, opBatch, 17, opQuery, 20, opDelete, 2, opDelete, 3, opQuery, 21},
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
}

// checker runs one history against the model and the shapes.
type checker struct {
	t      *testing.T
	data   []byte
	pos    int
	dir    string
	salt   uint64
	lat    bool
	model  map[uint64]*Object
	live   []uint64 // the model's ids, for picking victims
	next   uint64   // the next unused id
	shapes []*shape // the mutable shapes
	at     string   // the step being checked, for failure messages
}

// input reads the input's next byte; past its end every byte reads as 0.
func (c *checker) input() byte {
	c.pos++
	if c.pos > len(c.data) {
		return 0
	}
	return c.data[c.pos-1]
}

func newChecker(t *testing.T, data []byte, shards []int) *checker {
	c := &checker{t: t, data: data, dir: t.TempDir(), model: make(map[uint64]*Object), next: 1}
	g := c.input()
	c.lat, c.salt = g&lattice != 0, uint64(g>>1)
	c.at = "initial population"
	objs := c.fresh(int(c.input()) % (maxLive / 2))
	for _, inc := range []bool{false, true} {
		for _, n := range shards {
			cfg := Config{NodeMin: 2, NodeMax: 6, Incremental: inc, Shards: n}
			name := fmt.Sprintf("%s/shards=%d", map[bool]string{false: "str", true: "incremental"}[inc], n)
			mem, err := NewIndex(objs, &cfg)
			c.must(err, "mem/"+name)
			c.shapes = append(c.shapes, &shape{name: "mem/" + name, cfg: cfg, ix: mem})
			lc := cfg
			lc.CacheSize = 8
			path := filepath.Join(c.dir, fmt.Sprintf("log-%d-%v.fzl", n, inc))
			lg, err := OpenLogIndex(path, 2, &lc)
			c.must(err, "log/"+name)
			c.shapes = append(c.shapes, &shape{name: "log/" + name, cfg: lc, ix: lg, log: path})
			if len(objs) > 0 {
				c.must(lg.ApplyBatch(objs, nil), "log/"+name)
			}
		}
	}
	c.admit(objs, nil)
	return c
}

func (c *checker) close() {
	for _, s := range c.shapes {
		s.ix.Close()
	}
}

func (c *checker) must(err error, where string) {
	c.t.Helper()
	if err != nil {
		c.t.Fatalf("%s: %s: %v", c.at, where, err)
	}
}

// object is the object the generator draws for id: the same id always
// draws the same object within one history.
func (c *checker) object(id uint64) *Object {
	return c.blob(rand.New(rand.NewPCG(id, c.salt)), id)
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

// fresh draws n objects under unused ids, at most up to maxLive.
func (c *checker) fresh(n int) []*Object {
	n = min(n, maxLive-len(c.model))
	objs := make([]*Object, 0, max(n, 0))
	for i := 0; i < n; i++ {
		objs = append(objs, c.object(c.next))
		c.next++
	}
	return objs
}

// admit applies a mutation to the model and checks every shape holds it.
func (c *checker) admit(inserts []*Object, deletes []uint64) {
	c.t.Helper()
	for _, o := range inserts {
		c.model[o.ID()] = o
		c.live = append(c.live, o.ID())
	}
	for _, id := range deletes {
		delete(c.model, id)
		c.live = slices.DeleteFunc(c.live, func(x uint64) bool { return x == id })
	}
	for _, s := range c.shapes {
		c.checkPopulation(s)
	}
}

// checkPopulation asserts s holds the model's population in sound trees.
func (c *checker) checkPopulation(s *shape) {
	c.t.Helper()
	if s.ix.Len() != len(c.model) {
		c.t.Fatalf("%s: %s holds %d objects, the model %d", c.at, s.name, s.ix.Len(), len(c.model))
	}
	// Every tree's structure, and on a sharded index every id in the shard
	// that owns it.
	if err := s.ix.forest.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		c.t.Fatalf("%s: %s: %v", c.at, s.name, err)
	}
	sum := 0
	for _, si := range s.ix.ShardInfo() {
		sum += si.Objects
	}
	if sum != len(c.model) {
		c.t.Fatalf("%s: %s's shards hold %d objects, the model %d", c.at, s.name, sum, len(c.model))
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
		case opInsert:
			objs := c.fresh(int(arg%4) + 1)
			c.at = fmt.Sprintf("step %d: insert %d", step, len(objs))
			for _, s := range c.shapes {
				for _, o := range objs {
					c.must(s.ix.Insert(o), s.name)
				}
			}
			c.admit(objs, nil)
		case opDelete:
			if len(c.live) == 0 {
				continue
			}
			id := c.live[int(arg)%len(c.live)]
			c.at = fmt.Sprintf("step %d: delete %d", step, id)
			for _, s := range c.shapes {
				c.must(s.ix.Delete(id), s.name)
			}
			c.admit(nil, []uint64{id})
		case opBatch:
			objs, dels := c.fresh(int(arg%6)), c.victims(rng, int(arg/6%4))
			c.at = fmt.Sprintf("step %d: batch of %d inserts, %d deletes", step, len(objs), len(dels))
			for _, s := range c.shapes {
				c.must(s.ix.ApplyBatch(objs, dels), s.name)
			}
			c.admit(objs, dels)
		case opCheckpoint:
			c.at = fmt.Sprintf("step %d: reopen after %s", step, [3]string{"no checkpoint", "a checkpoint", "a compacting checkpoint"}[arg%3])
			c.reopen(arg % 3)
		case opQuery:
			c.at = fmt.Sprintf("step %d: query %d", step, arg)
			c.query(rng)
		}
	}
}

// reopen closes and reopens every log shape, after no checkpoint (cut 0),
// a checkpoint (1) or a compacting checkpoint (2); an in-memory shape must
// refuse to checkpoint.
func (c *checker) reopen(cut byte) {
	for _, s := range c.shapes {
		if cut > 0 {
			infos, err := s.ix.Checkpoint(cut == 2)
			if s.log == "" {
				if !errors.Is(err, ErrCheckpointUnsupported) {
					c.t.Fatalf("%s: %s: Checkpoint = %v, want ErrCheckpointUnsupported", c.at, s.name, err)
				}
				continue
			}
			c.must(err, s.name)
			if len(infos) != s.ix.NumShards() {
				c.t.Fatalf("%s: %s: %d checkpoint infos for %d shards", c.at, s.name, len(infos), s.ix.NumShards())
			}
		}
		if s.log != "" {
			c.must(s.ix.Close(), s.name)
			ix, err := OpenLogIndex(s.log, 0, &s.cfg)
			c.must(err, s.name+" reopen")
			s.ix = ix
			c.checkPopulation(s)
		}
	}
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
	refineOA int // object accesses of the Refine that resolved a lazy answer
}

var (
	aknnAlgos = []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB}
	rknnAlgos = []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR}
)

// query draws one step's parameters, computes the oracle's answers and
// checks every shape against them.
func (c *checker) query(rng *rand.Rand) {
	objs := make([]*Object, 0, len(c.model))
	for _, id := range c.live {
		objs = append(objs, c.model[id])
	}
	p := params{k: 1 + rng.IntN(6), kp: 1 + rng.IntN(8), alpha: c.level(rng), as: c.level(rng), ae: c.level(rng)}
	if p.as > p.ae {
		p.as, p.ae = p.ae, p.as
	}
	if len(objs) > 0 && rng.IntN(3) == 0 {
		p.q = objs[rng.IntN(len(objs))] // a stored object as the query, as query_id sends it
	} else {
		p.q = c.blob(rng, uint64(rng.IntN(int(c.next)+1)))
	}
	o := newOracle(objs, p.q, p.alpha)
	p.radius, p.eps = rng.Float64()*8, rng.Float64()*4
	if c.lat {
		// At attained distances, so the inclusive boundaries decide.
		if len(o.toQ) > 0 {
			p.radius = o.toQ[rng.IntN(len(o.toQ))].d
		}
		if len(objs) > 1 {
			i := rng.IntN(len(objs))
			p.eps = o.pair[i][(i+1+rng.IntN(len(objs)-1))%len(objs)]
		}
	}

	ref, err := NewIndex(objs, nil)
	c.must(err, "Naive's reference index")
	naive, _, err := ref.RKNN(p.q, p.k, p.as, p.ae, Naive)
	c.must(err, "Naive over the reference index")
	want := map[string]string{
		"linear":  fmt.Sprint(o.aknn(p.k)),
		"range":   fmt.Sprint(o.rangeSearch(p.radius)),
		"reverse": fmt.Sprint(o.reverse(p.k)),
		"eknn":    fmt.Sprint(o.eknn(p.k)),
	}
	for _, algo := range aknnAlgos {
		want["aknn/"+algo.String()] = want["linear"]
	}
	for _, algo := range rknnAlgos {
		want["rknn/"+algo.String()] = showRanged(naive)
	}

	shapes := c.shapes
	if len(objs) > 0 {
		shapes = append(slices.Clip(shapes), c.pagedShapes(objs)...)
		defer func() {
			for _, s := range shapes[len(c.shapes):] {
				s.ix.Close()
			}
		}()
	}
	runs := make([]map[string]answer, len(shapes))
	for i, s := range shapes {
		runs[i] = c.read(s, p)
		for fam, a := range runs[i] {
			if a.got != want[fam] {
				c.t.Fatalf("%s (%v): %s: %s answers\n %s\nwant\n %s", c.at, p, s.name, fam, a.got, want[fam])
			}
		}
	}
	c.costsAgree(shapes, runs)
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
	c.joins(shapes, o, p)
}

// pagedShapes saves the model to a store file and builds, per build mode
// and shard count, a static index over it (OpenIndex) and that index saved
// and reopened paged; each paged shape directly follows the index it was
// saved from. Both are read-only.
func (c *checker) pagedShapes(objs []*Object) []*shape {
	storePath := filepath.Join(c.dir, "objects.fzs")
	c.must(SaveObjects(storePath, 2, objs), "SaveObjects")
	var out []*shape
	for _, s := range c.shapes {
		if s.log == "" {
			continue
		}
		layout := s.name[len("log/"):]
		src, err := OpenIndex(storePath, &s.cfg)
		c.must(err, "static/"+layout)
		out = append(out, &shape{name: "static/" + layout, cfg: s.cfg, ix: src})
		pagePath := filepath.Join(c.dir, fmt.Sprintf("index-%d-%v.fzp", s.cfg.Shards, s.cfg.Incremental))
		c.must(src.SavePaged(pagePath), "static/"+layout+" SavePaged")
		cfg := s.cfg
		cfg.CacheSize = 0
		px, err := openPagedTiny(storePath, pagePath, cfg)
		c.must(err, "paged/"+layout)
		out = append(out, &shape{name: "paged/" + layout, cfg: cfg, ix: px, paged: true})
	}
	for _, s := range out {
		if err := s.ix.Insert(objs[0]); !errors.Is(err, ErrReadOnly) {
			c.t.Fatalf("%s: %s: Insert = %v, want ErrReadOnly", c.at, s.name, err)
		}
		if err := s.ix.Delete(objs[0].ID()); !errors.Is(err, ErrReadOnly) {
			c.t.Fatalf("%s: %s: Delete = %v, want ErrReadOnly", c.at, s.name, err)
		}
	}
	return out
}

// openPagedTiny is OpenPagedIndex with a block cache of three pages per
// shard, so that a history's small trees still evict mid-query.
func openPagedTiny(storePath, pagePath string, cfg Config) (*Index, error) {
	ds, err := store.Open(storePath)
	if err != nil {
		return nil, err
	}
	n := shardCount(cfg)
	specs := make([]shardSpec, n)
	for i := range specs {
		specs[i] = shardSpec{reader: ds, pagePath: shardPath(pagePath, i, n)}
	}
	for _, id := range ds.IDs() {
		specs[query.ShardOf(id, n)].expect++
	}
	return assemble(specs, []io.Closer{ds}, cfg, int64(n)*3*pager.PageAlign)
}

// read runs every single-index read family on s and checks the access
// accounting: what the calls charged is what the index and its shards
// counted.
func (c *checker) read(s *shape, p params) map[string]answer {
	c.t.Helper()
	ix := s.ix
	out := make(map[string]answer)
	before := ix.TotalObjectAccesses()
	add := func(fam string, raw string, st Stats, err error) {
		c.t.Helper()
		c.must(err, s.name+": "+fam)
		out[fam] = answer{got: raw, raw: raw, st: st}
	}
	for _, algo := range aknnAlgos {
		rs, st, err := ix.AKNN(p.q, p.k, p.alpha, algo)
		fam := "aknn/" + algo.String()
		add(fam, fmt.Sprint(rs), st, err)
		if algo == LBLP || algo == LBLPUB {
			refined, rst, err := ix.Refine(p.q, p.alpha, rs)
			c.must(err, s.name+": refine "+fam)
			a := out[fam]
			a.got, a.refineOA = fmt.Sprint(refined), rst.ObjectAccesses
			out[fam] = a
		}
	}
	rs, st, err := ix.LinearScanAKNN(p.q, p.k, p.alpha)
	add("linear", fmt.Sprint(rs), st, err)
	for _, algo := range rknnAlgos {
		rr, st, err := ix.RKNN(p.q, p.k, p.as, p.ae, algo)
		add("rknn/"+algo.String(), showRanged(rr), st, err)
	}
	rs, st, err = ix.RangeSearch(p.q, p.alpha, p.radius)
	add("range", fmt.Sprint(rs), st, err)
	rs, st, err = ix.ReverseKNN(p.q, p.k, p.alpha)
	add("reverse", fmt.Sprint(rs), st, err)
	rs, st, err = ix.ExpectedDistKNN(p.q, p.k)
	add("eknn", fmt.Sprint(rs), st, err)

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

// logical is a read's cost with what may differ between shapes of one
// population zeroed: tree-node visits and page faults depend on how the
// population is cut into trees, and wall time on the machine.
func logical(st Stats) Stats {
	st.NodeAccesses, st.PageReads, st.PageCacheHits, st.Duration = 0, 0, 0, 0
	return st
}

// costsAgree checks the layout-invariant costs: within one build mode,
// every shape's Basic and LB AKNN probe the same objects and evaluate the
// same distances as the first shape's (a single in-memory tree), a sharded
// lazy AKNN costs what LB does there, and every RKNN algorithm and range
// search costs the same in every counter.
func (c *checker) costsAgree(shapes []*shape, runs []map[string]answer) {
	c.t.Helper()
	for _, inc := range []bool{false, true} {
		var ref map[string]answer
		for i, s := range shapes {
			if s.cfg.Incremental != inc {
				continue
			}
			if ref == nil {
				ref = runs[i]
				continue
			}
			for fam, a := range runs[i] {
				base, all := costBase(fam, s.cfg.Shards)
				if base == "" {
					continue
				}
				got, want := logical(a.st), logical(ref[base].st)
				if !all {
					got = Stats{ObjectAccesses: got.ObjectAccesses, DistanceEvals: got.DistanceEvals}
					want = Stats{ObjectAccesses: want.ObjectAccesses, DistanceEvals: want.DistanceEvals}
				}
				if got != want {
					c.t.Fatalf("%s: %s: %s costs %+v, the single tree's %s %+v", c.at, s.name, fam, got, base, want)
				}
			}
		}
	}
}

// costBase names the read of the single tree whose cost fam's must equal on
// a shape of the given shard count ("" when it depends on the layout), and
// whether every counter must (all) or only object accesses and distance
// evaluations: Basic and LB AKNN, a sharded lazy AKNN (which runs as LB),
// every RKNN algorithm and range search.
func costBase(fam string, shards int) (base string, all bool) {
	switch {
	case fam == "aknn/"+Basic.String(), fam == "aknn/"+LB.String():
		return fam, false
	case strings.HasPrefix(fam, "aknn/") && shards > 1:
		return "aknn/" + LB.String(), false
	case fam == "range", strings.HasPrefix(fam, "rknn/"):
		return fam, true
	}
	return "", false
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
func (c *checker) joins(shapes []*shape, o *oracle, p params) {
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
		self := l == r
		want := [2]string{fmt.Sprint(o.join(p.eps, self)), fmt.Sprint(o.closestPairs(p.kp, self))}
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

// oracle answers every family by scanning the model.
type oracle struct {
	objs  []*Object
	q     *Object
	alpha float64
	toQ   []scored    // every object's α-distance to q, in (distance, id) order
	pair  [][]float64 // pair[i][j] = d_α(objs[i], objs[j])
}

type scored struct {
	id uint64
	d  float64
}

func newOracle(objs []*Object, q *Object, alpha float64) *oracle {
	o := &oracle{objs: objs, q: q, alpha: alpha, pair: make([][]float64, len(objs))}
	for i, a := range objs {
		o.toQ = append(o.toQ, scored{a.ID(), AlphaDistance(a, q, alpha)})
		o.pair[i] = make([]float64, len(objs))
		for j := range i {
			o.pair[i][j] = AlphaDistance(a, objs[j], alpha)
			o.pair[j][i] = o.pair[i][j]
		}
	}
	sortScored(o.toQ)
	return o
}

func sortScored(s []scored) {
	slices.SortFunc(s, func(a, b scored) int { return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id)) })
}

func exact(s []scored) []Result {
	out := make([]Result, len(s))
	for i, x := range s {
		out[i] = Result{ID: x.id, Dist: x.d, Exact: true, Lower: x.d, Upper: x.d}
	}
	return out
}

func (o *oracle) aknn(k int) []Result { return exact(o.toQ[:min(k, len(o.toQ))]) }

func (o *oracle) rangeSearch(r float64) []Result {
	var in []scored
	for _, x := range o.toQ {
		if x.d <= r {
			in = append(in, x)
		}
	}
	return exact(in)
}

// reverse keeps every A with fewer than k objects B ≠ A for which
// (d_α(A, B), id_B) < (d_α(A, q), id_q).
func (o *oracle) reverse(k int) []Result {
	var in []scored
	for i, a := range o.objs {
		da, closer := AlphaDistance(a, o.q, o.alpha), 0
		for j, b := range o.objs {
			if d := o.pair[i][j]; j != i && (d < da || d == da && b.ID() < o.q.ID()) {
				closer++
			}
		}
		if closer < k {
			in = append(in, scored{a.ID(), da})
		}
	}
	sortScored(in)
	return exact(in)
}

func (o *oracle) eknn(k int) []Result {
	s := make([]scored, len(o.objs))
	for i, a := range o.objs {
		s[i] = scored{a.ID(), ExpectedDistance(a, o.q)}
	}
	sortScored(s)
	return exact(s[:min(k, len(s))])
}

// pairs lists every pair of a join of the model with itself in (distance,
// left, right) order: each unordered pair once, left id first, for a
// self-join; every ordered pair, an object with itself included, for a
// join of two shapes.
func (o *oracle) pairs(self bool) []JoinPair {
	var ps []JoinPair
	for i, a := range o.objs {
		for j, b := range o.objs {
			if !self || a.ID() < b.ID() {
				ps = append(ps, JoinPair{LeftID: a.ID(), RightID: b.ID(), Dist: o.pair[i][j]})
			}
		}
	}
	slices.SortFunc(ps, func(x, y JoinPair) int {
		return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.LeftID, y.LeftID), cmp.Compare(x.RightID, y.RightID))
	})
	return ps
}

func (o *oracle) join(eps float64, self bool) []JoinPair {
	ps := o.pairs(self)
	n := 0
	for n < len(ps) && ps[n].Dist <= eps {
		n++
	}
	return ps[:n]
}

func (o *oracle) closestPairs(k int, self bool) []JoinPair {
	ps := o.pairs(self)
	return ps[:min(k, len(ps))]
}

// showRanged prints RKNN results as ids and qualifying ranges.
func showRanged(rs []RangedResult) string {
	s := "["
	for _, r := range rs {
		s += fmt.Sprintf(" %d:%s", r.ID, r.Qualifying.String())
	}
	return s + " ]"
}
