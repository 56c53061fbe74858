package fuzzyknn_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fuzzyknn"
)

// TestAssemblyMatrix checks the one assembly path over its whole input
// space: every backing at one and three shards, with and without an object
// cache, must report the same layout facts and charge no object access to
// the open itself. Backings with a file per shard also prove that a failure
// opening the last shard closes everything opened before it. What the
// assembled indexes answer, and what their reads cost, FuzzConformance
// checks.
func TestAssemblyMatrix(t *testing.T) {
	objs, _ := replDataset(t, 90, 17)

	shardFile := func(path string, i, n int) string {
		if n == 1 {
			return path
		}
		return fmt.Sprintf("%s.shard%d-of-%d", path, i, n)
	}
	type backing struct {
		name string
		// prepare writes the backing's files under dir; open is the
		// constructor under test; breakShard makes shard i's own file
		// unopenable (nil when shards share everything).
		prepare    func(t *testing.T, dir string, shards int)
		open       func(dir string, cfg *fuzzyknn.Config) (*fuzzyknn.Index, error)
		breakShard func(t *testing.T, dir string, i, n int)
		paged      bool
	}
	saveStore := func(t *testing.T, dir string) {
		if err := fuzzyknn.SaveObjects(filepath.Join(dir, "objects.fzs"), 2, objs); err != nil {
			t.Fatal(err)
		}
	}
	backings := []backing{
		{
			name:    "mem",
			prepare: func(*testing.T, string, int) {},
			open: func(_ string, cfg *fuzzyknn.Config) (*fuzzyknn.Index, error) {
				return fuzzyknn.NewIndex(objs, cfg)
			},
		},
		{
			name:    "static",
			prepare: func(t *testing.T, dir string, _ int) { saveStore(t, dir) },
			open: func(dir string, cfg *fuzzyknn.Config) (*fuzzyknn.Index, error) {
				return fuzzyknn.OpenIndex(filepath.Join(dir, "objects.fzs"), cfg)
			},
		},
		{
			name: "log",
			prepare: func(t *testing.T, dir string, shards int) {
				ix, err := fuzzyknn.OpenLogIndex(filepath.Join(dir, "objects.fzl"), 2, &fuzzyknn.Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.ApplyBatch(objs, nil); err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			},
			open: func(dir string, cfg *fuzzyknn.Config) (*fuzzyknn.Index, error) {
				return fuzzyknn.OpenLogIndex(filepath.Join(dir, "objects.fzl"), 0, cfg)
			},
			breakShard: func(t *testing.T, dir string, i, n int) {
				// A log that is missing is created, so put a directory in
				// its place.
				path := shardFile(filepath.Join(dir, "objects.fzl"), i, n)
				if err := os.RemoveAll(path); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "paged",
			prepare: func(t *testing.T, dir string, shards int) {
				saveStore(t, dir)
				ix, err := fuzzyknn.NewIndex(objs, &fuzzyknn.Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.SavePaged(filepath.Join(dir, "index.fzp")); err != nil {
					t.Fatal(err)
				}
			},
			open: func(dir string, cfg *fuzzyknn.Config) (*fuzzyknn.Index, error) {
				return fuzzyknn.OpenPagedIndex(filepath.Join(dir, "objects.fzs"), filepath.Join(dir, "index.fzp"), 1, cfg)
			},
			breakShard: func(t *testing.T, dir string, i, n int) {
				if err := os.Remove(shardFile(filepath.Join(dir, "index.fzp"), i, n) + ".manifest"); err != nil {
					t.Fatal(err)
				}
			},
			paged: true,
		},
	}

	for _, b := range backings {
		for _, shards := range []int{1, 3} {
			dir := t.TempDir()
			b.prepare(t, dir, shards)
			for _, cache := range []int{0, 64} {
				t.Run(fmt.Sprintf("%s/shards=%d/cache=%d", b.name, shards, cache), func(t *testing.T) {
					ix, err := b.open(dir, &fuzzyknn.Config{Shards: shards, CacheSize: cache})
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					if ix.NumShards() != shards || len(ix.ShardInfo()) != shards || ix.Len() != len(objs) {
						t.Fatalf("layout: %d shards, %d shard infos, %d objects", ix.NumShards(), len(ix.ShardInfo()), ix.Len())
					}
					if _, _, ok := ix.ObjectCacheStats(); ok != (cache > 0) {
						t.Fatalf("ObjectCacheStats ok = %v with CacheSize %d", ok, cache)
					}
					if _, ok := ix.PageCacheStats(); ok != b.paged {
						t.Fatalf("PageCacheStats ok = %v", ok)
					}
					if n := ix.TotalObjectAccesses(); n != 0 {
						t.Fatalf("%d object accesses charged to the open itself", n)
					}
				})
			}
			if b.breakShard == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/shards=%d/last-shard-fails", b.name, shards), func(t *testing.T) {
				if runtime.GOOS != "linux" {
					t.Skip("counts descriptors under /proc/self/fd")
				}
				b.breakShard(t, dir, shards-1, shards)
				before := openFDs(t)
				if ix, err := b.open(dir, &fuzzyknn.Config{Shards: shards, CacheSize: 64}); err == nil {
					ix.Close()
					t.Fatal("opened over a broken shard file")
				}
				if after := openFDs(t); after != before {
					t.Fatalf("failed open leaked descriptors: %d open before, %d after", before, after)
				}
			})
		}
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
