package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/metrics"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/server"
	"fuzzyknn/internal/store"
)

// The micro-probes time single public functions of the layers that the
// ladder cannot see from outside (a page load, one α-distance, a log
// commit), on a slice of the run's own dataset. They give the unit costs
// that, multiplied by the counters of the paced phase, say how much of a
// request a layer can account for. Each does a small fixed amount of work.

const probeBatch = 32 // mutations per probed group commit

// sink keeps probed results alive so the calls are not optimised away.
var sink any

// perOp runs fn n times and returns the mean time of one call, in
// nanoseconds.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianOf runs fn n times and returns the median time of one call.
func medianOf(n int, fn func(i int) error) (time.Duration, error) {
	var r recorder
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		r.add(time.Since(start))
	}
	return r.quantile(0.5), nil
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probes runs every micro-probe and the two computed products.
func (st *state) probes(ctx context.Context) error {
	d := st.data
	objs := d.base[:min(len(d.base), st.cfg.sc.probeObjs)]
	dir := filepath.Join(st.cfg.outDir, "probe-data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Objects no store has seen yet, for the insert-side probes.
	const commits = 8
	extra := make([]*fuzzy.Object, (commits+2)*probeBatch+256)
	for i := range extra {
		o, err := dataset.GenerateQuery(d.params, 2*freshBase+i)
		if err != nil {
			return err
		}
		extra[i] = o
	}
	groups := func(g int) []*fuzzy.Object { return extra[g*probeBatch : (g+1)*probeBatch] }

	// fuzzy: the pairs a query evaluates are neighbours, so probe those.
	type pair struct{ a, q *fuzzy.Object }
	var pairs []pair
	for i := 0; i < 16; i++ {
		q := objs[i*len(objs)/16]
		g := gapOrder(q, objs)
		for _, o := range g.objs[:min(len(g.objs), 40)] {
			pairs = append(pairs, pair{o, q})
		}
	}
	st.set("fuzzy.alpha_dist_ns", (perOp(len(pairs)*4, func(i int) {
		p := pairs[i%len(pairs)]
		sink = fuzzy.AlphaDist(p.a, p.q, aknnAlpha)
	})))
	st.set("fuzzy.profile_us", 1e-3*(perOp(len(pairs), func(i int) {
		sink = fuzzy.ComputeProfile(pairs[i].a, pairs[i].q)
	})))

	// rtree: bulk load, then single inserts and deletes, on support MBRs.
	items := make([]rtree.BulkItem, len(objs))
	for i, o := range objs {
		items[i] = rtree.BulkItem{Rect: o.SupportMBR(), Data: o.ID()}
	}
	bulk, _ := medianOf(3, func(int) error { sink = rtree.BulkLoad(items, 0, 0); return nil })
	st.set("rtree.bulkload_ms", msOf(bulk))
	tree := rtree.BulkLoad(items, 0, 0)
	st.set("rtree.insert_us", 1e-3*(perOp(len(extra), func(i int) {
		tree.Insert(extra[i].SupportMBR(), extra[i].ID())
	})))
	st.set("rtree.delete_us", 1e-3*(perOp(len(extra), func(i int) {
		id := extra[i].ID()
		tree.Delete(extra[i].SupportMBR(), func(data any) bool { return data == id })
	})))

	// store: the three Get paths.
	mem, err := store.NewMemStore(objs)
	if err != nil {
		return err
	}
	st.set("store.mem_get_ns", (perOp(100000, func(i int) {
		sink, _ = mem.Get(objs[i%len(objs)].ID())
	})))
	lru := store.NewLRU(mem, len(objs))
	for _, o := range objs {
		lru.Get(o.ID())
	}
	st.set("store.lru_hit_ns", (perOp(100000, func(i int) {
		sink, _ = lru.Get(objs[i*7919%len(objs)].ID())
	})))
	storePath := filepath.Join(dir, "probe.fzs")
	if err := fuzzyknn.SaveObjects(storePath, dims, objs); err != nil {
		return err
	}
	disk, err := store.Open(storePath)
	if err != nil {
		return err
	}
	diskGet, err := medianOf(2000, func(i int) error {
		o, err := disk.Get(objs[i*7919%len(objs)].ID())
		sink = o
		return err
	})
	disk.Close()
	if err != nil {
		return err
	}
	st.set("store.disk_get_us", usOf(diskGet))

	// store: log commit, checkpoint, reopen.
	logPath := filepath.Join(dir, "probe.fzl")
	ls, err := store.OpenLogPolicy(logPath, dims, store.SyncBatch)
	if err != nil {
		return err
	}
	if err := ls.ApplyBatch(objs, nil); err != nil {
		ls.Close()
		return err
	}
	info, _ := ls.CheckpointInfo()
	grown := info.LogBytes
	commit, err := medianOf(commits, func(i int) error { return ls.ApplyBatch(groups(i), nil) })
	if err != nil {
		ls.Close()
		return err
	}
	info, _ = ls.CheckpointInfo()
	st.set("store.log_commit_ms", msOf(commit))
	st.set("store.log_bytes_per_user_byte",
		ratio(float64(info.LogBytes-grown), commits*probeBatch*pointsPerObject*3*8))
	ckpt, err := medianOf(3, func(int) error { _, err := ls.Checkpoint(); return err })
	if err != nil {
		ls.Close()
		return err
	}
	st.set("store.checkpoint_ms", msOf(ckpt))
	if err := ls.Close(); err != nil {
		return err
	}
	reopen, err := medianOf(3, func(int) error {
		ls, err := store.OpenLogPolicy(logPath, 0, store.SyncBatch)
		if err != nil {
			return err
		}
		return ls.Close()
	})
	if err != nil {
		return err
	}
	st.set("store.reopen_ms", msOf(reopen))

	// query: one group commit through the index (tree clone, summaries,
	// snapshot publish) over an in-memory store.
	mem2, err := store.NewMemStore(objs)
	if err != nil {
		return err
	}
	ix, err := query.Build(store.NewCounting(mem2), query.Options{})
	if err != nil {
		return err
	}
	apply, err := medianOf(commits, func(i int) error {
		_, err := ix.ApplyBatch(groups(i), nil)
		return err
	})
	if err != nil {
		return err
	}
	st.set("query.apply_batch_ms", msOf(apply))

	// pager: a page served from the block cache, and one read from the file.
	hit, miss, err := probePager(filepath.Join(dir, "probe.fzp"))
	if err != nil {
		return err
	}
	st.set("pager.load_hit_ns", hit)
	st.set("pager.load_miss_us", miss/1000)

	// replica: bootstrap a follower from a leader, then have it apply a
	// run of group commits.
	if err := st.probeReplica(ctx, objs, extra[commits*probeBatch:]); err != nil {
		return err
	}

	// metrics and fault: the per-request cost of an observation and of a
	// failpoint that is not armed.
	bounds, scale := metrics.DurationBuckets()
	h := metrics.NewRegistry().Histogram("probe_seconds", "probe", bounds, scale)
	st.set("metrics.observe_ns", (perOp(1000000, func(i int) { h.ObserveDuration(time.Duration(i)) })))
	point := fault.P("fuzzyload.probe")
	st.set("fault.disarmed_ns", (perOp(1000000, func(int) { _, _ = point.Eval() })))

	// Unit cost times count: what the layer can account for in a request.
	v := st.values
	hitsPerReq := 0.0
	if r := v["pager.hit_ratio"]; r > 0 && r < 1 {
		hitsPerReq = v["pager.page_reads_per_req"] * r / (1 - r)
	}
	st.set("pager.time_per_req_us", v["pager.page_reads_per_req"]*v["pager.load_miss_us"]+hitsPerReq*v["pager.load_hit_ns"]/1000)
	st.set("fuzzy.time_per_req_us", v["query.dist_evals_per_req"]*v["fuzzy.alpha_dist_ns"]/1000)
	return os.RemoveAll(dir)
}

// probePager writes a small page file of its own and times Cache.Load on a
// resident page and on a cache too small to ever hold the page asked for.
func probePager(path string) (hitNs, missNs float64, err error) {
	const pages, pageSize = 64, 16 << 10
	w, err := pager.NewWriter(path, pageSize)
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, pageSize-pager.PageHeaderSize)
	for i := 0; i < pages; i++ {
		if _, err := w.WritePage(0, 0, payload); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Commit(pager.Manifest{Dims: dims, Height: 1, MinEntries: 2, MaxEntries: 4}); err != nil {
		return 0, 0, err
	}
	f, err := pager.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	frame := rtree.NewFrame(true, nil)
	decode := func(uint32, uint16, uint16, []byte) (*rtree.Node, error) { return frame, nil }
	resident := pager.NewCache(f, pages*pageSize, decode)
	resident.Load(0)
	hitNs = perOp(1000000, func(int) { sink, _ = resident.Load(0) })
	tiny := pager.NewCache(f, pageSize, decode)
	missNs = perOp(20000, func(i int) { sink, _ = tiny.Load(uint32(i % pages)) })
	if err := tiny.Err(); err != nil {
		return 0, 0, err
	}
	return hitNs, missNs, resident.Err()
}

// probeReplica back-fills the numbers PR 9 never took: how long a follower
// takes to bootstrap from a leader over HTTP, and how fast it then applies
// the leader's commits.
func (st *state) probeReplica(ctx context.Context, objs, extra []*fuzzy.Object) error {
	leader, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		return err
	}
	defer leader.Close()
	repl, err := leader.EnableReplication(nil)
	if err != nil {
		return err
	}
	eng := leader.NewEngine(nil)
	defer eng.Close()
	ts := httptest.NewServer(server.New(leader, eng, &server.Options{Replication: repl}))
	defer ts.Close()
	replica, err := fuzzyknn.NewIndex(nil, nil)
	if err != nil {
		return err
	}
	defer replica.Close()
	fol, err := replica.NewFollower(ts.URL, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := fol.Sync(ctx); err != nil {
		return err
	}
	st.set("replica.bootstrap_s", time.Since(start).Seconds())
	for lo := 0; lo+probeBatch <= len(extra); lo += probeBatch {
		if err := leader.ApplyBatch(extra[lo:lo+probeBatch], nil); err != nil {
			return err
		}
	}
	applied := len(extra) / probeBatch * probeBatch
	start = time.Now()
	if err := fol.Sync(ctx); err != nil {
		return err
	}
	st.set("replica.apply_objs_per_s", float64(applied)/time.Since(start).Seconds())
	if replica.Len() != leader.Len() {
		st.attempted++
		st.fail("replica probe: follower holds %d objects, leader %d", replica.Len(), leader.Len())
	}
	return nil
}
