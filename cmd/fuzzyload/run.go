package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/server"
)

// runConfig is one invocation: a workload, a seed and how long to measure.
type runConfig struct {
	w        *workload
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	serveBin string    // the real cmd/fuzzyserve binary
	outDir   string    // server logs, trace.json and temporary data files
	log      io.Writer // human-readable progress and metric lines
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// state is what a run carries between its stages.
type state struct {
	cfg     runConfig
	data    *data
	checker *checker
	srv     *serverProc
	dir     string // the live server's data directory
	gen     *generator
	acks    *ackQueue
	// The harness's model of the ingest workload's population.
	inserted, deleted []uint64

	warmup []request // the warm-up stream, replayed into in-process stacks too

	attempted, failed int
	firstFailure      string
	values            map[string]float64
}

func (st *state) logf(format string, args ...any) {
	fmt.Fprintf(st.cfg.log, format+"\n", args...)
}

func (st *state) set(name string, v float64) { st.values[name] = v }

// fail books one failed request or check, keeping the first reason.
func (st *state) fail(format string, args ...any) {
	st.failed++
	if st.firstFailure == "" {
		st.firstFailure = fmt.Sprintf(format, args...)
	}
}

// insertShare is the fraction of a stream that are inserts.
func insertShare(w *workload) float64 {
	total, writes := 0, 0
	for _, m := range w.mix {
		total += m.weight
		if m.kind == kInsert {
			writes += m.weight
		}
	}
	return float64(writes) / 2 / float64(total)
}

// run executes one workload end to end and returns the result object.
func run(ctx context.Context, cfg runConfig) (*result, error) {
	st := &state{cfg: cfg, values: make(map[string]float64)}
	w := cfg.w
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if st.srv != nil {
			st.srv.kill()
		}
		if st.gen != nil {
			st.gen.close()
		}
		// Logs and trace.json stay; data files do not.
		entries, _ := os.ReadDir(cfg.outDir)
		for _, e := range entries {
			if e.IsDir() {
				os.RemoveAll(filepath.Join(cfg.outDir, e.Name()))
			}
		}
	}()

	// Phase lengths. An untraced run spends all of its time in the paced
	// phase, where every end-to-end timing comes from. A traced run gives a
	// quarter to the closed loop (throughput_rps) and half to a paced phase
	// for the counters; the ladder and the probes follow.
	satDur, pacedDur := time.Duration(0), time.Duration(cfg.seconds*float64(time.Second))
	if cfg.trace {
		satDur, pacedDur = pacedDur/4, pacedDur/2
	}
	counts := make([]int, numPhases)
	counts[phaseWarmup] = cfg.sc.warmupReqs
	// The closed loop stops on time; its stream only has to outlast it.
	counts[phaseSaturate] = int(w.rate * 6 * satDur.Seconds())
	counts[phasePaced] = int(w.rate * pacedDur.Seconds())
	if cfg.trace {
		for p := phaseTraceHTTP; p < numPhases; p++ {
			counts[p] = cfg.sc.traceReqs
		}
	}
	pools := make([]int, numPhases+1) // pool of phase p is fresh[pools[p]:pools[p+1]]
	for p, c := range counts {
		pools[p+1] = pools[p] + int(float64(c)*insertShare(w)*1.2) + 8
	}

	t0 := time.Now()
	n := cfg.sc.objects(w)
	var err error
	if st.data, err = generateData(w, n, cfg.seed, pools[numPhases]); err != nil {
		return nil, err
	}
	st.checker = newChecker(w, st.data)
	streams := make([][]request, numPhases)
	for p, c := range counts {
		// Every rung of the ladder replays the same requests (only the
		// inserted objects differ), so that a request's spans on two rungs
		// can be subtracted from each other.
		streams[p] = genStream(w, st.data, cfg.seed, min(p, phaseTraceHTTP), c, st.data.fresh[pools[p]:pools[p+1]])
	}
	var loads [][]byte
	if w.bulkLoad {
		loads = st.data.loadBodies()
	}
	st.logf("# workload %s seed %d: %d objects x %d points, dataset %s, generated in %.2fs",
		w.name, cfg.seed, n, pointsPerObject, st.data.digest()[:16], time.Since(t0).Seconds())

	st.warmup = streams[phaseWarmup]
	// Set-up, several times over; the last server stays for the run.
	setups := cfg.sc.setups
	if cfg.trace {
		setups = 1
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if st.srv != nil {
			st.teardown()
		}
		dur, err := st.setup(ctx, i, loads)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, dur.Seconds())
	}
	sort.Float64s(setupTimes)
	st.set("setup_s", setupTimes[len(setupTimes)/2])
	st.logf("# set-up times %v", setupTimes)

	if satDur > 0 {
		resume := pauseGC()
		samples, elapsed := st.gen.closedLoop(ctx, streams[phaseSaturate], satDur)
		resume()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		st.judge(streams[phaseSaturate], samples)
		rates := windowRates(samples, func(i int) bool { return samples[i].ok() }, satDur, windowsIn(satDur))
		st.set("throughput_rps", medianFloat(rates))
		st.logf("# saturate: %d requests in %.2fs", len(samples), elapsed.Seconds())
		st.logf("# windows rate %.0f", rates)
	}
	if err := st.paced(ctx, streams[phasePaced], pacedDur); err != nil {
		return nil, err
	}
	if w.restart {
		if err := st.restartCheck(ctx); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		if err := st.traced(ctx, streams); err != nil {
			return nil, err
		}
	}
	if !st.srv.alive() {
		return nil, fmt.Errorf("fuzzyserve exited during the run: %v\n%s", st.srv.waitErr, st.srv.logTail())
	}
	st.set("failed_share", ratio(float64(st.failed), float64(st.attempted)))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, def := range defs {
		// A metric the workload has nothing to say about reads 0.
		st.values[def.name] += 0
		res.Metrics[def.name] = metricValue{st.values[def.name], def.unit}
	}
	// Everything measured is printed by name; the result object carries the
	// subset the mode asks for.
	names := make([]string, 0, len(st.values))
	for name := range st.values {
		names = append(names, name)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[def.name] = def.unit
	}
	for _, name := range names {
		st.logf("metric %-34s %14.4f %s", name, st.values[name], units[name])
	}
	if st.firstFailure != "" {
		st.logf("# first failure: %s", st.firstFailure)
	}
	return res, nil
}

// initialAcks is the delete queue of a freshly loaded index: the highest
// base ids, which the query ids stay clear of.
func (st *state) initialAcks() *ackQueue {
	q := &ackQueue{}
	if st.cfg.w.restart {
		for _, o := range st.data.base[len(st.data.base)-deletable:] {
			q.push(o.ID())
		}
	}
	return q
}

// teardown stops the live server and deletes its files.
func (st *state) teardown() {
	st.srv.kill()
	st.gen.close()
	os.RemoveAll(st.dir)
	st.srv, st.gen = nil, nil
}

// setup performs the product-side set-up of one server and returns how long
// it took: file writes, process start until healthy, bulk load and the
// warm-up requests. Dataset generation and request encoding happen before.
func (st *state) setup(ctx context.Context, round int, loads [][]byte) (time.Duration, error) {
	w, d := st.cfg.w, st.data
	st.dir = filepath.Join(st.cfg.outDir, "data"+strconv.Itoa(round))
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return 0, err
	}
	f := filesIn(st.dir)
	start := time.Now()
	if w.writeFile {
		if err := fuzzyknn.SaveObjects(f.store, dims, d.base); err != nil {
			return 0, err
		}
	}
	if w.writePage {
		ix, err := fuzzyknn.NewIndex(d.base, nil)
		if err != nil {
			return 0, err
		}
		if err := ix.SavePaged(f.page); err != nil {
			return 0, err
		}
	}
	var err error
	st.srv, err = startServer(ctx, st.cfg.serveBin, w.args(f, len(d.base)), st.serverLog())
	if err != nil {
		return 0, err
	}
	st.acks = st.initialAcks()
	st.inserted, st.deleted = nil, nil
	st.gen = newGenerator(st.srv.url, st.acks)
	if w.bulkLoad {
		if err := st.bulkLoad(loads); err != nil {
			return 0, err
		}
	}
	samples, _ := st.gen.closedLoop(ctx, st.warmup, 0)
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	st.book(st.warmup, samples)
	for i := range samples {
		if !samples[i].ok() {
			return 0, fmt.Errorf("warm-up request %d (%s) answered %d: %s",
				i, st.warmup[i].kind, samples[i].status, samples[i].body)
		}
	}
	return time.Since(start), nil
}

func (st *state) serverLog() string { return filepath.Join(st.cfg.outDir, "fuzzyserve.log") }

// bulkLoad replaces the -demo placeholder object (where there is one) with
// the dataset, through the batch endpoint.
func (st *state) bulkLoad(loads [][]byte) error {
	client := st.gen.client
	if !st.cfg.w.restart { // a -demo server starts with object 1 of its own
		req, err := http.NewRequest("DELETE", st.srv.url+"/objects/1", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("DELETE /objects/1 answered %d", resp.StatusCode)
		}
	}
	for i, body := range loads {
		resp, err := client.Post(st.srv.url+"/objects:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out server.BatchMutateResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Failed != 0 {
			return fmt.Errorf("bulk load group %d: status %d, %d failed, %v", i, resp.StatusCode, out.Failed, err)
		}
	}
	return nil
}

// book keeps the harness's model of the population in step with what the
// server acknowledged.
func (st *state) book(stream []request, samples []sample) {
	for i := range samples {
		if !samples[i].ok() {
			continue
		}
		switch stream[i].kind {
		case kInsert:
			st.inserted = append(st.inserted, stream[i].obj.ID())
		case kDelete:
			st.deleted = append(st.deleted, samples[i].deleted)
		}
	}
}

// judge counts a phase's requests into attempted/failed and checks a seeded
// sample of each family against the oracle.
func (st *state) judge(stream []request, samples []sample) {
	st.book(stream, samples)
	st.attempted += len(samples)
	var byKind [numKinds][]int
	for i := range samples {
		if !samples[i].ok() {
			st.fail("%s request answered %d: %.200s", stream[i].kind, samples[i].status, samples[i].body)
			continue
		}
		byKind[stream[i].kind] = append(byKind[stream[i].kind], i)
	}
	// One phase is judged in an untraced run, two in a traced run; either
	// way at least oracleSamples responses per family meet the oracle.
	samplesPerPhase := st.cfg.sc.oracleSamples
	if st.cfg.trace {
		samplesPerPhase = (samplesPerPhase + 1) / 2
	}
	rng := rand.New(rand.NewPCG(st.cfg.seed, 0x04AC1E))
	var sampled []int
	for k := kAKNN; k <= kRange; k++ {
		idx := byKind[k]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		sampled = append(sampled, idx[:min(len(idx), samplesPerPhase)]...)
	}
	// The server is idle now, so the checks may use both cores.
	verdicts := make([]error, len(sampled))
	var wg sync.WaitGroup
	for part := 0; part < connections; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := part; j < len(sampled); j += connections {
				i := sampled[j]
				verdicts[j] = st.checker.check(&stream[i], samples[i].body)
			}
		}()
	}
	wg.Wait()
	for j, err := range verdicts {
		if err != nil {
			st.fail("wrong %s answer: %v", stream[sampled[j]].kind, err)
		}
	}
}

// paced runs the open-loop phase and derives every metric that comes from
// it: latencies from due time, CPU per request, the paper's object-access
// count, and (in a traced run) the deltas of the server's own counters.
func (st *state) paced(ctx context.Context, stream []request, dur time.Duration) error {
	w := st.cfg.w
	pid := st.srv.cmd.Process.Pid
	before, err := scrape(st.gen.client, st.srv.url)
	if err != nil {
		return err
	}
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	own0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return err
	}
	depth := newDepthSampler(st.srv.url, st.cfg.trace)
	resume := pauseGC()
	samples, elapsed := st.gen.openLoop(ctx, stream, w.rate)
	resume()
	maxDepth := depth.stop()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	own1, _ := cpuSeconds(os.Getpid())
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	st.set("rss_peak_mb", rss)
	after, err := scrape(st.gen.client, st.srv.url)
	if err != nil {
		return err
	}
	st.judge(stream, samples)

	var lat [numKinds]recorder
	var service [numKinds]recorder
	var lag, overhead recorder
	late, sloMiss, completed := 0, 0, 0
	var aknnAccesses, aknnCount float64
	for i := range samples {
		s, k := &samples[i], stream[i].kind
		lag.add(s.lag())
		if s.lag() > time.Millisecond {
			late++
		}
		if !s.ok() || s.latency() > time.Duration(w.sloMs*float64(time.Millisecond)) {
			sloMiss++
		}
		if !s.ok() {
			continue
		}
		completed++
		if k.isWrite() {
			k = kInsert // one family: acknowledged writes
		}
		lat[k].add(s.latency())
		if k <= kRange {
			var body struct {
				Stats server.StatsJSON `json:"stats"`
			}
			if err := json.Unmarshal(s.body, &body); err != nil {
				continue // already failed by judge if sampled; malformed otherwise
			}
			svc := time.Duration(body.Stats.DurationNs)
			service[k].add(svc)
			overhead.add(s.done - s.sent - svc)
			if k == kAKNN {
				aknnAccesses += float64(body.Stats.ObjectAccesses)
				aknnCount++
			}
		}
	}
	st.logf("# paced at %.0f/s for %.2fs: %s", w.rate, elapsed.Seconds(), describe("aknn", &lat[kAKNN]))
	isKind := func(k kind) func(int) bool {
		return func(i int) bool { return samples[i].ok() && stream[i].kind == k }
	}
	p50s := windowQuantiles(samples, isKind(kAKNN), dur, windowsIn(dur), 0.5)
	p99s := windowQuantiles(samples, isKind(kAKNN), dur, windowsIn(dur), 0.99)
	// The median over the windows' medians: a checkpoint stall or a
	// neighbour's burst spoils a window or two, not the middle one.
	st.set("aknn_p50_ms", msOf(overWindows(p50s, 0.5)))
	st.set("aknn_p99_ms", msOf(overWindows(p99s, 0.5)))
	st.logf("# windows aknn_p50_ms %v", p50s)
	st.logf("# windows aknn_p99_ms %v", p99s)
	st.set("cpu_ms_per_req", ratio((cpu1-cpu0)*1000, float64(completed)))
	st.set("obj_access_per_aknn", ratio(aknnAccesses, aknnCount))

	st.set("rknn_p50_ms", lat[kRKNN].ms(0.5))
	st.set("rknn_p99_ms", lat[kRKNN].ms(0.99))
	st.set("range_p50_ms", lat[kRange].ms(0.5))
	st.set("range_p99_ms", lat[kRange].ms(0.99))
	st.set("write_p50_ms", lat[kInsert].ms(0.5))
	st.set("write_p99_ms", lat[kInsert].ms(0.99))

	st.set("loadgen.sched_lag_p99_ms", lag.ms(0.99))
	st.set("loadgen.late_share", ratio(float64(late), float64(len(samples))))
	st.set("loadgen.cpu_share", ratio(own1-own0, elapsed.Seconds()*connections))
	st.set("loadgen.slo_miss_share", ratio(float64(sloMiss), float64(len(samples))))
	st.set("server.overhead_p50_us", overhead.us(0.5))
	st.set("query.aknn_service_p50_us", service[kAKNN].us(0.5))
	st.set("query.rknn_service_p50_us", service[kRKNN].us(0.5))
	st.set("query.range_service_p50_us", service[kRange].us(0.5))

	// Counter deltas of the server's own instruments over the phase.
	reqs := float64(completed)
	es0, es1 := before.stats.EngineStats, after.stats.EngineStats
	st.set("query.node_access_per_req", ratio(float64(es1.NodeAccesses-es0.NodeAccesses), reqs))
	st.set("query.obj_access_per_req", ratio(float64(es1.ObjectAccesses-es0.ObjectAccesses), reqs))
	st.set("query.dist_evals_per_req", ratio(float64(es1.DistanceEvals-es0.DistanceEvals), reqs))
	st.set("engine.write_batch_mean", ratio(
		delta(before, after, "fuzzyknn_engine_write_batch_size_sum"),
		delta(before, after, "fuzzyknn_engine_write_batch_size_count")))
	st.set("engine.queue_depth_max", maxDepth)
	st.set("engine.overloaded_total", delta(before, after, "fuzzyknn_engine_overloaded_total"))
	// At the paced rate a checkpoint falls due every 18 s or so, so these two
	// cover the live server's whole life: bulk load, warm-up, saturate, paced.
	st.set("engine.checkpoints_total", after.series["fuzzyknn_engine_checkpoints_total"])
	st.set("engine.checkpoint_s_mean", ratio(
		after.series["fuzzyknn_engine_checkpoint_duration_seconds_sum"],
		after.series["fuzzyknn_engine_checkpoint_duration_seconds_count"]))
	if oc0, oc1 := before.stats.ObjectCache, after.stats.ObjectCache; oc0 != nil && oc1 != nil {
		hits, misses := float64(oc1.Hits-oc0.Hits), float64(oc1.Misses-oc0.Misses)
		st.set("store.lru_hit_ratio", ratio(hits, hits+misses))
	}
	if pc0, pc1 := before.stats.PageCache, after.stats.PageCache; pc0 != nil && pc1 != nil {
		hits, misses := float64(pc1.Hits-pc0.Hits), float64(pc1.Misses-pc0.Misses)
		st.set("pager.hit_ratio", ratio(hits, hits+misses))
		st.set("pager.page_reads_per_req", ratio(misses, reqs))
		st.set("pager.evictions_per_req", ratio(float64(pc1.Evictions-pc0.Evictions), reqs))
		st.set("pager.resident_mb", float64(pc1.ResidentBytes)/(1<<20))
	}
	if disk := dirBytes(st.dir); disk > 0 {
		live := float64(after.stats.Objects) * pointsPerObject * 3 * 8 // x, y, µ as float64
		st.set("store.disk_bytes_per_live_byte", ratio(float64(disk), live))
	}
	return ctx.Err()
}

// pauseGC switches the generator's own garbage collector off for a timed
// phase (the responses it keeps are a few tens of MB) so that its collection
// cycles do not take CPU from the server on a two-core box. The returned
// function switches it back on and collects.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}
}

// windowsIn gives a phase one window per second, and at least three.
func windowsIn(d time.Duration) int { return max(int(d.Seconds()+0.5), 3) }

// The end-to-end timings are medians over one-second windows of a phase.
// This box's speed drifts by ±15% from one second to the next (a fixed CPU
// loop shows it), and a checkpoint or a neighbour's burst can stall the
// server for a few hundred milliseconds; a whole-phase mean or percentile
// inherits all of that, the median window does not, while a change to the
// code moves every window.
func overWindows(v []time.Duration, q float64) time.Duration {
	r := recorder{v: append([]time.Duration(nil), v...)}
	return r.quantile(q)
}

func medianFloat(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	return v[(len(v)-1)/2]
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file compacted away mid-walk is not an error
	})
	return total
}

// depthSampler polls the engine's queue-depth gauges while a phase runs;
// a gauge has no history, so its maximum has to be watched for.
type depthSampler struct {
	done chan struct{}
	max  chan float64
}

func newDepthSampler(url string, enabled bool) *depthSampler {
	d := &depthSampler{done: make(chan struct{}), max: make(chan float64, 1)}
	if !enabled {
		d.max <- 0
		return d
	}
	client := &http.Client{Timeout: time.Second}
	go func() {
		deepest := 0.0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.done:
				d.max <- deepest
				return
			case <-tick.C:
				if c, err := scrape(client, url); err == nil {
					deepest = max(deepest,
						c.series[`fuzzyknn_engine_queue_depth{queue="query"}`],
						c.series[`fuzzyknn_engine_queue_depth{queue="write"}`])
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) stop() float64 {
	close(d.done)
	return <-d.max
}

// liveObjects returns the population the server must hold according to
// what it acknowledged, and the ids among it that the stream inserted.
func (st *state) liveObjects() (live []*fuzzy.Object, inserted []uint64) {
	gone := make(map[uint64]bool, len(st.deleted))
	for _, id := range st.deleted {
		gone[id] = true
	}
	for _, o := range st.data.base {
		if !gone[o.ID()] {
			live = append(live, o)
		}
	}
	for _, id := range st.inserted {
		if !gone[id] {
			live = append(live, st.data.byID[id])
			inserted = append(inserted, id)
		}
	}
	return live, inserted
}

// durable checks the server against the harness's model: the object count,
// a sample of acknowledged inserts (present) and of acknowledged deletes
// (absent). The log store keeps deleted payloads readable by id, so a
// query_id proves nothing; each probe asks for the nearest neighbour of the
// object itself, which is that object at distance 0 exactly when it is live.
func (st *state) durable(when string) {
	live, present := st.liveObjects()
	c, err := scrape(st.gen.client, st.srv.url)
	st.attempted++
	if err != nil {
		st.fail("%s: %v", when, err)
	} else if c.stats.Objects != len(live) {
		st.fail("%s: /stats reports %d objects, want %d", when, c.stats.Objects, len(live))
	}
	nearestIsSelf := func(id uint64) (bool, error) {
		q := objectJSON(st.data.byID[id])
		q.ID = 0
		body := mustJSON(server.AKNNRequest{Query: q, K: 1, Alpha: aknnAlpha, Algo: "lb"})
		resp, err := st.gen.client.Post(st.srv.url+"/aknn", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		var out server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Results) != 1 {
			return false, fmt.Errorf("status %d, %d results, %v", resp.StatusCode, len(out.Results), err)
		}
		return out.Results[0].ID == id && out.Results[0].Dist == 0, nil
	}
	rng := rand.New(rand.NewPCG(st.cfg.seed, 0xD04AB1E))
	sampleOf := func(ids []uint64) []uint64 {
		ids = append([]uint64(nil), ids...)
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		return ids[:min(len(ids), st.cfg.sc.oracleSamples)]
	}
	for _, id := range sampleOf(present) {
		st.attempted++
		if self, err := nearestIsSelf(id); err != nil || !self {
			st.fail("%s: acknowledged insert %d is not served (%v)", when, id, err)
		}
	}
	for _, id := range sampleOf(st.deleted) {
		st.attempted++
		if self, err := nearestIsSelf(id); err != nil || self {
			st.fail("%s: acknowledged delete %d is still served (%v)", when, id, err)
		}
	}
}

// restartCheck is the durability half of the ingest workload: verify the
// population, SIGKILL the server, start it again on the same files, time
// it until the first correct AKNN, and verify the population again.
func (st *state) restartCheck(ctx context.Context) error {
	st.durable("before kill")
	st.srv.kill()
	st.gen.close()
	w, d := st.cfg.w, st.data
	live, _ := st.liveObjects()
	exact := &checker{stable: live, byID: d.byID}
	probe := genStream(&workload{mix: []mixEntry{{kAKNN, 1}}, aknnK: w.aknnK, restart: true},
		d, st.cfg.seed, numPhases, st.cfg.sc.oracleSamples, nil)

	start := time.Now()
	srv, err := startServer(ctx, st.cfg.serveBin, w.args(filesIn(st.dir), len(d.base)), st.serverLog())
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	st.srv = srv
	st.gen = newGenerator(srv.url, st.acks)
	restart := time.Duration(0)
	for i := range probe {
		var s sample
		st.gen.send(&probe[i], &s)
		st.attempted++
		if !s.ok() {
			st.fail("after restart: aknn answered %d: %.200s", s.status, s.body)
		} else if err := exact.check(&probe[i], s.body); err != nil {
			st.fail("after restart: wrong aknn answer: %v", err)
		} else if restart == 0 {
			restart = time.Since(start)
		}
	}
	st.set("restart_s", restart.Seconds())
	st.durable("after restart")
	return nil
}
