package fuzzyknn_test

import (
	"path/filepath"
	"strings"
	"testing"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
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

// TestNewFollowerRefusesNonEmptyIndex: a follower starts on an empty index
// (NewIndex(nil, ...)); one that already holds objects is refused with an
// error before it fetches anything.
func TestNewFollowerRefusesNonEmptyIndex(t *testing.T) {
	objs, _ := replDataset(t, 4, 5)
	ix, err := fuzzyknn.NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if f, err := ix.NewFollower("http://127.0.0.1:1", nil); err == nil || !strings.Contains(err.Error(), "empty index") {
		t.Fatalf("NewFollower on a 4-object index = %v, %v; want an empty-index error", f, err)
	}
}
