package fuzzyknn

import (
	"errors"
	"path/filepath"
	"testing"
)

// pagedTestConfig keeps the node fanout small so even a 30-object shard
// builds a tree with interior levels — otherwise every shard is a single
// pinned root page and the block cache never fields a request.
func pagedTestConfig(shards int) *Config {
	return &Config{NodeMin: 2, NodeMax: 4, Shards: shards}
}

// pagedFixture writes a store + page files for objs and returns the paths.
func pagedFixture(t *testing.T, objs []*Object, shards int) (storePath, pagePath string) {
	t.Helper()
	dir := t.TempDir()
	storePath = filepath.Join(dir, "objects.fzs")
	pagePath = filepath.Join(dir, "index.fzp")
	if err := SaveObjects(storePath, 2, objs); err != nil {
		t.Fatal(err)
	}
	mem, err := OpenIndex(storePath, pagedTestConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.SavePaged(pagePath); err != nil {
		t.Fatal(err)
	}
	return storePath, pagePath
}

// TestPublicPagedObjectLRULayering checks the two caches stay distinct: the
// block cache holds index pages, the object LRU (Config.CacheSize) holds
// payloads, and each reports its own counters.
func TestPublicPagedObjectLRULayering(t *testing.T) {
	objs, q := smallDataset(t, 80, 9)
	storePath, pagePath := pagedFixture(t, objs, 1)
	paged, err := OpenPagedIndex(storePath, pagePath, 1, &Config{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := paged.AKNN(q, 6, 0.5, LBLPUB); err != nil {
			t.Fatal(err)
		}
	}
	pc, ok := paged.PageCacheStats()
	if !ok || pc.Hits+pc.Misses == 0 {
		t.Fatalf("page cache idle: ok=%v %+v", ok, pc)
	}
	hits, misses, ok := paged.ObjectCacheStats()
	if !ok || hits+misses == 0 {
		t.Fatalf("object LRU idle: ok=%v hits=%d misses=%d", ok, hits, misses)
	}
	if hits == 0 {
		t.Fatalf("repeated identical query produced no object-LRU hits (misses=%d)", misses)
	}

	// Without CacheSize there is no object LRU to report.
	noLRU, err := OpenPagedIndex(storePath, pagePath, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer noLRU.Close()
	if _, _, ok := noLRU.ObjectCacheStats(); ok {
		t.Fatal("ObjectCacheStats ok without Config.CacheSize")
	}
}

// TestPublicPagedMismatch rejects opening a page file against the wrong
// store.
func TestPublicPagedMismatch(t *testing.T) {
	objs, _ := smallDataset(t, 40, 3)
	_, pagePath := pagedFixture(t, objs, 1)
	other, _ := smallDataset(t, 25, 4)
	otherStore := filepath.Join(t.TempDir(), "other.fzs")
	if err := SaveObjects(otherStore, 2, other); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedIndex(otherStore, pagePath, 1, nil); !errors.Is(err, ErrPagedMismatch) {
		t.Fatalf("wrong store accepted: %v", err)
	}
}
