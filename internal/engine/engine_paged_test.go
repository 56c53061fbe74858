package engine

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// TestEnginePagedAccounting runs the mixed read workload against a paged
// index behind an evicting block cache and checks that the accounting
// invariant is undisturbed: page-cache hits are physical-IO bookkeeping and
// must not inflate object_accesses, which stays equal to the store's raw
// access count. Page fetches surface through their own counters instead.
func TestEnginePagedAccounting(t *testing.T) {
	env := newTestEnv(t, 300, 6)
	path := filepath.Join(t.TempDir(), "index.fzp")
	if err := env.ix.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	// Reopen over a fresh counting wrapper so the paged run's store accesses
	// are counted from zero; the tiny cache forces evictions mid-workload.
	counting := store.NewCounting(env.ix.Store())
	px, err := query.OpenPagedIndex(counting, path, 3*int64(pager.PageAlign), -1, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	counting.Reset()

	e := New(px, Options{Parallelism: 4})
	defer e.Close()
	reqs := mixedRequests(env, 3)
	for i, resp := range e.DoBatch(context.Background(), reqs) {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
	}

	totals := e.Totals()
	if got, want := counting.Count(), int64(totals.Stats.ObjectAccesses); got != want {
		t.Fatalf("store total %d != summed per-request accesses %d (cache hits must not inflate object accesses)", got, want)
	}
	if totals.Stats.PageReads == 0 || totals.Stats.PageCacheHits == 0 {
		t.Fatalf("paged workload recorded page_reads=%d page_cache_hits=%d, want both > 0",
			totals.Stats.PageReads, totals.Stats.PageCacheHits)
	}
	cs, _ := px.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("no evictions through a %d-byte cache: %+v", 3*pager.PageAlign, cs)
	}

	// The per-engine metric families carry the same physical-IO counters.
	var sb strings.Builder
	if err := e.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"fuzzyknn_engine_page_reads_total", "fuzzyknn_engine_page_cache_hits_total"} {
		if !strings.Contains(sb.String(), series) {
			t.Fatalf("engine metrics missing %s:\n%s", series, sb.String())
		}
	}
}
