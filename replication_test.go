package fuzzyknn_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/server"
)

// replDataset generates n deterministic synthetic objects and one query.
func replDataset(t *testing.T, n int, seed uint64) ([]*fuzzyknn.Object, *fuzzyknn.Object) {
	t.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = 48
	p.Space = 12
	p.Quantize = 12
	p.Seed = seed
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return objs, q
}

// startLeader builds a replication-enabled index and an httptest server
// exposing its feed.
func startLeader(t *testing.T, objs []*fuzzyknn.Object, shards int, rcfg *fuzzyknn.ReplicationConfig) (*httptest.Server, *fuzzyknn.Index, *fuzzyknn.Replication) {
	t.Helper()
	ix, err := fuzzyknn.NewIndex(objs, &fuzzyknn.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := ix.EnableReplication(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	ts := httptest.NewServer(server.New(ix, eng, &server.Options{Replication: repl}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})
	return ts, ix, repl
}

// syncedFollower builds an empty index following leaderURL and converges it.
func syncedFollower(t *testing.T, leaderURL string, shards int) (*fuzzyknn.Index, *fuzzyknn.Follower) {
	t.Helper()
	ix, err := fuzzyknn.NewIndex(nil, &fuzzyknn.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	fol, err := ix.NewFollower(leaderURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncFollower(t, fol)
	return ix, fol
}

func syncFollower(t *testing.T, fol *fuzzyknn.Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fol.Sync(ctx); err != nil {
		t.Fatal(err)
	}
}

// compareReplicas checks the follower answers every query family exactly
// like the leader over the same live set. AKNN goes through the exact
// linear-scan reference: index-traversal variants on a single tree may
// report bound distances that depend on tree shape, which bulk load vs
// frame-by-frame construction legitimately changes, so the equivalence
// contract is over exact answers. A sharded follower always refines, so
// its four traversal variants are checked against the same reference.
func compareReplicas(t *testing.T, label string, leader, follower *fuzzyknn.Index, q *fuzzyknn.Object) {
	t.Helper()
	if leader.Len() != follower.Len() || leader.Dims() != follower.Dims() {
		t.Fatalf("%s: population: leader %d/%dd, follower %d/%dd",
			label, leader.Len(), leader.Dims(), follower.Len(), follower.Dims())
	}
	want, _, err := leader.LinearScanAKNN(q, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := follower.LinearScanAKNN(q, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: linear-scan AKNN diverges\n got %+v\nwant %+v", label, got, want)
	}
	if follower.NumShards() > 1 {
		for _, algo := range []fuzzyknn.AKNNAlgorithm{fuzzyknn.Basic, fuzzyknn.LB, fuzzyknn.LBLP, fuzzyknn.LBLPUB} {
			got, _, err := follower.AKNN(q, 8, 0.5, algo)
			if err != nil {
				t.Fatalf("%s/%v: %v", label, algo, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: follower AKNN diverges\n got %+v\nwant %+v", label, algo, got, want)
			}
		}
	}
	wantR, _, err := leader.RKNN(q, 5, 0.3, 0.8, fuzzyknn.RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []fuzzyknn.RKNNAlgorithm{fuzzyknn.Naive, fuzzyknn.BasicRKNN, fuzzyknn.RSS, fuzzyknn.RSSICR} {
		gotR, _, err := follower.RKNN(q, 5, 0.3, 0.8, algo)
		if err != nil {
			t.Fatalf("%s/%v: %v", label, algo, err)
		}
		if len(gotR) != len(wantR) {
			t.Fatalf("%s/%v: %d ranged results, want %d", label, algo, len(gotR), len(wantR))
		}
		for i := range gotR {
			if gotR[i].ID != wantR[i].ID || gotR[i].Qualifying.String() != wantR[i].Qualifying.String() {
				t.Fatalf("%s/%v: ranged result %d: %d %s, want %d %s", label, algo, i,
					gotR[i].ID, gotR[i].Qualifying.String(), wantR[i].ID, wantR[i].Qualifying.String())
			}
		}
	}
	wantRange, _, err := leader.RangeSearch(q, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotRange, _, err := follower.RangeSearch(q, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRange, wantRange) && (len(gotRange) > 0 || len(wantRange) > 0) {
		t.Fatalf("%s: range search diverges\n got %+v\nwant %+v", label, gotRange, wantRange)
	}
	wantRev, _, err := leader.ReverseKNN(q, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gotRev, _, err := follower.ReverseKNN(q, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRev, wantRev) && (len(gotRev) > 0 || len(wantRev) > 0) {
		t.Fatalf("%s: reverse kNN diverges\n got %+v\nwant %+v", label, gotRev, wantRev)
	}
	wantE, _, err := leader.ExpectedDistKNN(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	gotE, _, err := follower.ExpectedDistKNN(q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatalf("%s: expected-distance kNN diverges\n got %+v\nwant %+v", label, gotE, wantE)
	}
}

// TestFollowerMatchesLeaderAcrossQueries mirrors churn into a leader and a
// follower pipeline at several shard combinations and demands identical
// answers from every query family at every step.
func TestFollowerMatchesLeaderAcrossQueries(t *testing.T) {
	combos := []struct {
		name                   string
		leaderShards, folShard int
	}{
		{"single-single", 1, 1},
		{"sharded-sharded", 4, 4},
		{"single-sharded", 1, 4},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			objs, q := replDataset(t, 60, 5)
			ts, leaderIx, repl := startLeader(t, objs, combo.leaderShards, nil)
			folIx, fol := syncedFollower(t, ts.URL, combo.folShard)
			compareReplicas(t, "bootstrap", leaderIx, folIx, q)

			// Churn through every mutation shape: a batch of inserts, single
			// deletes, a single insert, and a mixed batch.
			extra, _ := replDataset(t, 20, 77)
			batch := make([]*fuzzyknn.Object, len(extra))
			for i, o := range extra {
				no, err := fuzzyknn.NewObject(uint64(10000+i), o.WeightedPoints())
				if err != nil {
					t.Fatal(err)
				}
				batch[i] = no
			}
			if err := leaderIx.ApplyBatch(batch, nil); err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint64{3, 7, 11} {
				if err := leaderIx.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			single, err := fuzzyknn.NewObject(20000, q.WeightedPoints())
			if err != nil {
				t.Fatal(err)
			}
			if err := leaderIx.Insert(single); err != nil {
				t.Fatal(err)
			}
			if err := leaderIx.ApplyBatch(batch[:0:0], []uint64{10001, 10005, 2}); err != nil {
				t.Fatal(err)
			}

			syncFollower(t, fol)
			compareReplicas(t, "after churn", leaderIx, folIx, q)
			st := fol.Stats()
			if st.AppliedSeq != repl.LastSeq() || st.LagFrames != 0 {
				t.Fatalf("follower stats %+v, leader at seq %d", st, repl.LastSeq())
			}
		})
	}
}

// TestFollowerCatchUpAtEveryFrameBoundary steps one follower frame by frame
// alongside the leader, then makes a second follower — parked at sequence
// zero since before the churn — catch up to every boundary in turn,
// checking the state at each stop. A follower killed and restarted at any
// frame boundary converges the same way.
func TestFollowerCatchUpAtEveryFrameBoundary(t *testing.T) {
	objs, q := replDataset(t, 24, 9)
	ts, leaderIx, repl := startLeader(t, objs, 1, nil)
	stepIx, stepper := syncedFollower(t, ts.URL, 1)
	parkIx, parked := syncedFollower(t, ts.URL, 1)

	// Twelve frames: inserts, deletes and batches interleaved.
	type state struct {
		n       int
		results []fuzzyknn.Result
	}
	var states []state
	mutate := func(i int) {
		t.Helper()
		switch {
		case i%3 == 0:
			o, err := fuzzyknn.NewObject(uint64(1000+i), q.WeightedPoints())
			if err != nil {
				t.Fatal(err)
			}
			if err := leaderIx.Insert(o); err != nil {
				t.Fatal(err)
			}
		case i%3 == 1:
			if err := leaderIx.Delete(uint64(i)); err != nil {
				t.Fatal(err)
			}
		default:
			o, err := fuzzyknn.NewObject(uint64(2000+i), objs[i].WeightedPoints())
			if err != nil {
				t.Fatal(err)
			}
			if err := leaderIx.ApplyBatch([]*fuzzyknn.Object{o}, []uint64{uint64(i + 12)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const frames = 12
	for i := 1; i <= frames; i++ {
		mutate(i)
		if got := repl.LastSeq(); got != uint64(i) {
			t.Fatalf("leader seq after mutation %d = %d", i, got)
		}
		if err := stepper.SyncTo(ctx, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if stepIx.Len() != leaderIx.Len() {
			t.Fatalf("frame %d: stepper len %d, leader %d", i, stepIx.Len(), leaderIx.Len())
		}
		want, _, err := leaderIx.LinearScanAKNN(q, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := stepIx.LinearScanAKNN(q, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: stepper diverges\n got %+v\nwant %+v", i, got, want)
		}
		states = append(states, state{n: leaderIx.Len(), results: want})
	}

	// The parked follower saw none of it; walk it through every boundary.
	for i := 1; i <= frames; i++ {
		if err := parked.SyncTo(ctx, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if st := parked.Stats(); st.AppliedSeq != uint64(i) {
			t.Fatalf("parked follower at seq %d, want %d", st.AppliedSeq, i)
		}
		want := states[i-1]
		if parkIx.Len() != want.n {
			t.Fatalf("boundary %d: parked len %d, want %d", i, parkIx.Len(), want.n)
		}
		got, _, err := parkIx.LinearScanAKNN(q, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.results) {
			t.Fatalf("boundary %d: parked diverges\n got %+v\nwant %+v", i, got, want.results)
		}
	}

	// A fresh follower (a restart that lost everything) bootstraps straight
	// to the tail.
	freshIx, fresh := syncedFollower(t, ts.URL, 1)
	compareReplicas(t, "fresh restart", leaderIx, freshIx, q)
	if st := fresh.Stats(); st.Bootstraps != 1 || st.AppliedSeq != frames {
		t.Fatalf("fresh follower stats %+v, want 1 bootstrap at seq %d", st, frames)
	}
}

// TestFollowerRebootstrapAfterTruncation parks a follower, pushes the
// leader's tiny retention window past it, and checks the next sync falls
// back to a snapshot bootstrap and still converges exactly.
func TestFollowerRebootstrapAfterTruncation(t *testing.T) {
	objs, q := replDataset(t, 24, 3)
	ts, leaderIx, _ := startLeader(t, objs, 1, &fuzzyknn.ReplicationConfig{RetainFrames: 2})
	folIx, fol := syncedFollower(t, ts.URL, 1)

	for i := 0; i < 6; i++ {
		o, err := fuzzyknn.NewObject(uint64(5000+i), q.WeightedPoints())
		if err != nil {
			t.Fatal(err)
		}
		if err := leaderIx.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	syncFollower(t, fol)
	compareReplicas(t, "after truncation", leaderIx, folIx, q)
	if st := fol.Stats(); st.Bootstraps < 2 {
		t.Fatalf("follower stats %+v, want a re-bootstrap", st)
	}
}

// TestEnableReplicationTwice pins the double-enable error.
func TestEnableReplicationTwice(t *testing.T) {
	objs, _ := replDataset(t, 4, 1)
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.EnableReplication(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EnableReplication(nil); err == nil ||
		!strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("second EnableReplication = %v, want already-enabled error", err)
	}
}

// TestNoFrameOnFailedMutation checks rejected mutations never reach the
// replication log: a follower must only ever see committed history.
func TestNoFrameOnFailedMutation(t *testing.T) {
	objs, q := replDataset(t, 8, 2)
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	repl, err := ix.EnableReplication(nil)
	if err != nil {
		t.Fatal(err)
	}

	dup, err := fuzzyknn.NewObject(1, q.WeightedPoints()) // id 1 is live
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(dup); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := ix.Delete(99999); err == nil {
		t.Fatal("deleting unknown id succeeded")
	}
	if err := ix.ApplyBatch([]*fuzzyknn.Object{dup}, nil); err == nil {
		t.Fatal("batch with duplicate insert succeeded")
	}
	if got := repl.LastSeq(); got != 0 {
		t.Fatalf("rejected mutations advanced the log to seq %d", got)
	}

	ok, err := fuzzyknn.NewObject(500, q.WeightedPoints())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(ok); err != nil {
		t.Fatal(err)
	}
	if got := repl.LastSeq(); got != 1 {
		t.Fatalf("committed insert left log at seq %d, want 1", got)
	}
}

// TestReplicationLeaderKeepsPagedSurface is the regression test for the
// recording wrapper hiding the shards: a replication leader must still save
// every shard's page file, and a paged leader must still report its block
// cache.
func TestReplicationLeaderKeepsPagedSurface(t *testing.T) {
	objs, _ := replDataset(t, 60, 3)
	cfg := &fuzzyknn.Config{Shards: 2}
	leader, err := fuzzyknn.NewIndex(objs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.EnableReplication(nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storePath, pagePath := filepath.Join(dir, "objects.fzs"), filepath.Join(dir, "index.fzp")
	if err := fuzzyknn.SaveObjects(storePath, 2, objs); err != nil {
		t.Fatal(err)
	}
	if err := leader.SavePaged(pagePath); err != nil {
		t.Fatalf("SavePaged on a sharded replication leader: %v", err)
	}
	// Reopening needs both shards' files.
	paged, err := fuzzyknn.OpenPagedIndex(storePath, pagePath, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if _, err := paged.EnableReplication(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := paged.PageCacheStats(); !ok {
		t.Fatal("PageCacheStats lost the block cache once replication was enabled")
	}
}

// TestSnapshotReadsBeneathObjectCache is the regression test for follower
// bootstraps trampling the leader's object cache: a snapshot cut scans every
// object, and must do so without touching the cache's counters or contents,
// or the access counters.
func TestSnapshotReadsBeneathObjectCache(t *testing.T) {
	objs, _ := replDataset(t, 40, 4)
	leader, err := fuzzyknn.NewIndex(objs, &fuzzyknn.Config{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	repl, err := leader.EnableReplication(nil)
	if err != nil {
		t.Fatal(err)
	}
	hot := objs[:4]
	touchHot := func() {
		t.Helper()
		for _, o := range hot {
			if _, err := leader.Object(o.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	touchHot()
	hits, misses, _ := leader.ObjectCacheStats()
	accesses := leader.TotalObjectAccesses()

	if _, err := repl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := leader.ObjectCacheStats(); h != hits || m != misses {
		t.Fatalf("snapshot went through the object cache: hits %d→%d, misses %d→%d", hits, h, misses, m)
	}
	if a := leader.TotalObjectAccesses(); a != accesses {
		t.Fatalf("snapshot charged %d object accesses", a-accesses)
	}
	touchHot()
	if h, m, _ := leader.ObjectCacheStats(); h != hits+int64(len(hot)) || m != misses {
		t.Fatalf("hot set no longer cached after a snapshot: hits %d→%d, misses %d→%d", hits, h, misses, m)
	}
}
