// Command fuzzyserve serves AKNN/RKNN/range queries over JSON/HTTP, backed
// by the concurrent batch query engine.
//
// Serve a store file written by fuzzygen (or fuzzyknn.SaveObjects):
//
//	fuzzyserve -store objects.fzs -addr :8080 -parallelism 8 -cache 256
//
// Or serve the store through its paged R-tree (written by fuzzygen
// -pagefile or Index.SavePaged): only hot index pages stay in RAM, held by
// a block cache of -cache-mb MiB, so the index can exceed memory:
//
//	fuzzyserve -store objects.fzs -pagefile objects.fzp -cache-mb 128
//
// Or serve a mutable, durable index backed by an append-only log (created
// on first use; -dims is required only when creating):
//
//	fuzzyserve -log objects.fzl -dims 2
//
// Or serve a generated synthetic dataset (no files needed, handy for demos
// and smoke tests):
//
//	fuzzyserve -demo 2000
//
// Any mode can shard the index across N R-trees (answers are exactly the
// single tree's; /stats reports per-shard depth, size and accesses).
// A -log index creates one log file per shard and must be reopened with
// the same -shards value:
//
//	fuzzyserve -demo 10000 -shards 4
//	fuzzyserve -log objects.fzl -dims 2 -shards 4
//
// Then query it:
//
//	curl -s localhost:8080/aknn -d '{"query_id": 7, "k": 5, "alpha": 0.5}'
//	curl -s localhost:8080/rknn -d '{"query_id": 7, "k": 5, "alpha_start": 0.3, "alpha_end": 0.8}'
//	curl -s localhost:8080/range -d '{"query_id": 7, "alpha": 0.5, "radius": 10}'
//	curl -s localhost:8080/stats
//
// Log-backed and -demo indexes also accept live mutations — single ops or
// whole batches (the batch endpoint group-commits: one snapshot publish and
// one fsync for the lot):
//
//	curl -s localhost:8080/objects -d '{"object": {"id": 900, "points": [{"p": [1, 2], "mu": 1}]}}'
//	curl -s localhost:8080/objects:batch -d '{"objects": [{"id": 901, "points": [{"p": [1, 2], "mu": 1}]},
//	                                                      {"id": 902, "points": [{"p": [3, 4], "mu": 1}]}]}'
//	curl -s -X DELETE localhost:8080/objects/900
//
// A -log index can checkpoint: POST /checkpoint writes a durable snapshot
// of the live objects and moves the records written since into a fresh
// log, so the next start replays only those — restart cost tracks live
// data, not history. -checkpoint-every N does the same automatically after every
// N committed write groups:
//
//	fuzzyserve -log objects.fzl -dims 2 -checkpoint-every 64
//	curl -s -X POST localhost:8080/checkpoint
//
// /stats reports each shard's checkpoint generation, size and age.
//
// The -fsync flag picks the log's durability policy (-log mode only).
// Every mutation — single or batch, over HTTP or through the library — is
// a group commit (a single insert or delete is a group of one), so there
// is one write path and two policies:
//
//	always  (default) fsync every commit before acknowledging it. Nothing
//	        acknowledged is ever lost. Recovery after power loss never
//	        serves half a batch — it truncates the torn tail.
//	off     never fsync; the OS flushes when it pleases. Fastest, weakest:
//	        any recently acknowledged mutation may be lost on power loss,
//	        and recovery either truncates the torn tail or (rare: the OS
//	        wrote an unsynced tail back out of order) refuses loudly with
//	        a corruption error rather than guess.
//
// `batch` is accepted as a legacy spelling of `always`: it used to leave
// single-record appends unsynced, a write path that no longer exists.
//
// Any writable instance can lead a replica set. -replication makes the
// server a leader: it serves a bootstrap snapshot and a committed-frame
// feed under /replication/ that followers tail. A follower is started with
// -follow and nothing else — it bootstraps over HTTP, stays byte-identical
// to the leader at its applied sequence, serves the full query surface,
// and answers 403 to local writes. Kill a follower at any point and
// restart it: it re-bootstraps and converges. Restart the leader and the
// generation token changes, so followers notice and re-bootstrap on their
// own:
//
//	fuzzyserve -demo 2000 -replication                 # leader on :8080
//	fuzzyserve -follow http://localhost:8080 -addr :8081
//	fuzzyserve -follow http://localhost:8080 -addr :8082
//	curl -s localhost:8081/stats | grep -o '"replication":{[^}]*}'
//
// -replication-listen binds the two /replication/ endpoints to their own
// address so follower traffic never shares the query listener, and
// -replication-retain-mb bounds the in-memory frame window (a follower
// that falls further behind re-bootstraps from the snapshot instead).
// /stats and /metrics report the replication position on both sides:
// latest_seq/frames_retained/snapshots on the leader, applied_seq/
// lag_frames/reconnects/bootstraps on followers.
//
// Operating the server: every instance exposes Prometheus metrics and a
// load-shedding admission policy.
//
//	curl -s localhost:8080/metrics              # Prometheus text exposition
//	fuzzyserve -demo 2000 -pprof                # mount /debug/pprof/*
//	fuzzyserve -demo 2000 -request-timeout 2s   # per-request deadline → 504
//	fuzzyserve -demo 2000 -admission-wait 250ms # queue-full budget → 429
//	fuzzyserve -demo 2000 -slow-query 500ms     # structured slow_request log
//
// A request that waits longer than -admission-wait for a queue slot is shed
// with 429 and Retry-After instead of parking the connection; one that
// outlives -request-timeout answers 504. Requests at least -slow-query slow
// log one structured line (slow_request method=… endpoint=… duration=…).
//
// See the server package docs (internal/server) for the full wire format
// and the README's "Operating fuzzyserve" section for the metrics
// reference. SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		storePath   = flag.String("store", "", "immutable store file to serve (written by fuzzygen)")
		logPath     = flag.String("log", "", "mutable append-only log store to serve (created if missing)")
		dims        = flag.Int("dims", 0, "dimensionality when creating a new -log store")
		fsync       = flag.String("fsync", "always", "log durability policy: always | off (see command docs)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint the log after every N write groups (0 = only on POST /checkpoint)")
		pageFile    = flag.String("pagefile", "", "paged R-tree file (written by fuzzygen -pagefile or Index.SavePaged); serves -store without loading the tree into RAM")
		cacheMB     = flag.Int("cache-mb", 64, "block cache budget in MiB for -pagefile indexes")
		cacheSize   = flag.Int("cache", 0, "LRU object cache size (0 = none)")
		shards      = flag.Int("shards", 1, "hash-partitioned index shards behind one coordinator (1 = single tree)")
		parallelism = flag.Int("parallelism", 0, "max queries executing at once (0 = GOMAXPROCS)")
		demo        = flag.Int("demo", 0, "serve a generated synthetic dataset of this many objects instead of a store file")
		demoSeed    = flag.Uint64("demo-seed", 1, "seed for the -demo dataset")
		drain       = flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")

		follow       = flag.String("follow", "", "replicate from the leader at this base URL and serve read-only (instead of -store/-log/-demo)")
		replication  = flag.Bool("replication", false, "lead a replica set: serve the bootstrap snapshot and frame feed under /replication/")
		replListen   = flag.String("replication-listen", "", "dedicated listen address for the /replication/ endpoints (default: share -addr)")
		replRetainMB = flag.Int("replication-retain-mb", 64, "in-memory committed-frame window retained for followers, in MiB")

		reqTimeout    = flag.Duration("request-timeout", 5*time.Second, "per-request deadline (queue wait + execution); expired requests answer 504 (0 = none)")
		admissionWait = flag.Duration("admission-wait", fuzzyknn.DefaultAdmissionWait, "how long a request may wait for queue space before a 429 (negative = wait forever)")
		slowQuery     = flag.Duration("slow-query", time.Second, "log a structured slow_request line for requests at least this slow (0 = off)")
		enablePprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if *ckptEvery < 0 {
		log.Fatal("-checkpoint-every must be >= 0")
	}
	if *ckptEvery > 0 && *logPath == "" {
		log.Fatal("-checkpoint-every only applies to -log indexes")
	}
	if *follow != "" && *replication {
		log.Fatal("-follow and -replication are mutually exclusive: a follower re-serves the leader's feed, it does not lead")
	}
	if *replListen != "" && !*replication {
		log.Fatal("-replication-listen requires -replication")
	}
	if *replRetainMB < 1 {
		log.Fatal("-replication-retain-mb must be >= 1")
	}
	idx, err := openIndex(*storePath, *logPath, *pageFile, *fsync, *follow, *cacheSize, *cacheMB, *shards, *dims, *demo, *demoSeed)
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	// Both replication roles attach before NewEngine so engine-dispatched
	// mutations route through the recording wrapper (leader) and the
	// follower's applier sees the same searcher the engine publishes from.
	var repl *fuzzyknn.Replication
	if *replication {
		repl, err = idx.EnableReplication(&fuzzyknn.ReplicationConfig{
			RetainBytes: int64(*replRetainMB) << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	var fol *fuzzyknn.Follower
	if *follow != "" {
		fol, err = idx.NewFollower(*follow, &fuzzyknn.FollowerConfig{Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
	}

	eng := idx.NewEngine(&fuzzyknn.EngineConfig{
		Parallelism:     *parallelism,
		CheckpointEvery: *ckptEvery,
		AdmissionWait:   *admissionWait,
	})
	log.Printf("serving %d objects (%d dims) on %s, shards %d, parallelism %d, request timeout %v, pprof %v",
		idx.Len(), idx.Dims(), *addr, idx.NumShards(), eng.Parallelism(), *reqTimeout, *enablePprof)

	handler := server.New(idx, eng, &server.Options{
		RequestTimeout:       *reqTimeout,
		SlowRequestThreshold: *slowQuery,
		EnablePprof:          *enablePprof,
		Logf:                 log.Printf,
		Replication:          repl,
		Follower:             fol,
	})
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	var replSrv *http.Server
	if *replListen != "" {
		replSrv = &http.Server{Addr: *replListen, Handler: handler.ReplicationHandler()}
		log.Printf("replication feed on %s", *replListen)
		go func() { errCh <- replSrv.ListenAndServe() }()
	}
	if fol != nil {
		log.Printf("following %s", fol.Leader())
		go func() {
			if err := fol.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("follower stopped: %v", err)
			}
		}()
	}

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if replSrv != nil {
		if err := replSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("replication shutdown: %v", err)
		}
	}
	switch err := srv.Shutdown(shutdownCtx); {
	case errors.Is(err, context.DeadlineExceeded):
		log.Printf("shutdown: drain timeout exceeded, in-flight requests dropped")
	case err != nil:
		log.Printf("shutdown: %v", err)
	}
	if left := eng.Shutdown(shutdownCtx); left > 0 {
		log.Printf("shutdown: drain timeout exceeded, engine abandoned %d requests", left)
	}
}

// openIndex opens the store- or log-backed index, builds an in-memory
// synthetic one in -demo mode, or an empty mutable one in -follow mode
// (the follower loop fills it from the leader). Log-backed, demo and
// follower indexes are mutable.
func openIndex(storePath, logPath, pageFile, fsync, follow string, cacheSize, cacheMB, shards, dims, demo int, demoSeed uint64) (*fuzzyknn.Index, error) {
	modes := 0
	for _, set := range []bool{storePath != "", logPath != "", demo > 0, follow != ""} {
		if set {
			modes++
		}
	}
	policy, err := fuzzyknn.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	cfg := &fuzzyknn.Config{CacheSize: cacheSize, Shards: shards, Fsync: policy}
	switch {
	case modes > 1:
		return nil, errors.New("give exactly one of -store, -log, -demo or -follow")
	case shards < 1:
		return nil, errors.New("-shards must be >= 1")
	case pageFile != "" && storePath == "":
		return nil, errors.New("-pagefile only applies to -store indexes")
	case dims != 0 && logPath == "":
		return nil, errors.New("-dims only applies to -log indexes")
	case policy != fuzzyknn.FsyncAlways && logPath == "":
		return nil, errors.New("-fsync only applies to -log indexes")
	case pageFile != "":
		return fuzzyknn.OpenPagedIndex(storePath, pageFile, cacheMB, cfg)
	case storePath != "":
		return fuzzyknn.OpenIndex(storePath, cfg)
	case logPath != "":
		return fuzzyknn.OpenLogIndex(logPath, dims, cfg)
	case demo > 0:
		p := dataset.Default(dataset.Synthetic)
		p.N = demo
		p.Seed = demoSeed
		objs, err := dataset.Generate(p)
		if err != nil {
			return nil, err
		}
		return fuzzyknn.NewIndex(objs, cfg)
	case follow != "":
		return fuzzyknn.NewIndex(nil, cfg)
	default:
		return nil, fmt.Errorf("missing -store, -log, -demo or -follow; run %s -h for usage", os.Args[0])
	}
}
