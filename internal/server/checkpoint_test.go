package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fuzzyknn"
)

// newLogTestServer builds a mutable log-backed index, its engine and an
// httptest server.
func newLogTestServer(t *testing.T, shards int) (*httptest.Server, *fuzzyknn.Index) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "objects.fzl")
	ix, err := fuzzyknn.OpenLogIndex(path, 2, &fuzzyknn.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range []*fuzzyknn.Object{
		blob(t, 1, 2, 0), blob(t, 2, 3, 0.5), blob(t, 3, 4, -1),
		blob(t, 4, 8, 2), blob(t, 5, -3, 1), blob(t, 6, 0, 6),
	} {
		if err := ix.Insert(o); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	repl, err := ix.EnableReplication(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 4})
	ts := httptest.NewServer(New(ix, eng, &Options{Replication: repl}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})
	return ts, ix
}

// TestServeCheckpoint drives POST /checkpoint against a sharded log-backed
// index and checks the checkpoint state surfaces in /stats.
func TestServeCheckpoint(t *testing.T) {
	ts, _ := newLogTestServer(t, 2)

	// Default body: compact.
	var got CheckpointResponse
	if status := postJSON(t, ts.URL+"/checkpoint", struct{}{}, &got); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(got.Shards) != 2 || !got.Compacted {
		t.Fatalf("response = %+v", got)
	}
	objects := 0
	for i, sh := range got.Shards {
		if sh.Generation != 1 {
			t.Fatalf("shard %d generation = %d", i, sh.Generation)
		}
		if sh.AgeSeconds < 0 {
			t.Fatalf("shard %d age = %v", i, sh.AgeSeconds)
		}
		objects += sh.Objects
	}
	if objects != 6 {
		t.Fatalf("checkpointed %d objects, want 6", objects)
	}

	// compact: false still cuts a new generation.
	f := false
	if status := postJSON(t, ts.URL+"/checkpoint", CheckpointRequest{Compact: &f}, &got); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if got.Compacted || got.Shards[0].Generation != 2 {
		t.Fatalf("response = %+v", got)
	}

	// Empty body works (defaults apply).
	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty body status = %d", resp.StatusCode)
	}

	// Garbage body is the client's fault.
	var errResp ErrorResponse
	if status := postJSON(t, ts.URL+"/checkpoint", map[string]any{"compact": "yes"}, &errResp); status != http.StatusBadRequest {
		t.Fatalf("bad body status = %d", status)
	}

	// /stats surfaces per-shard checkpoint state.
	var stats StatsResponse
	if status := doRequest(t, http.MethodGet, ts.URL+"/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("/stats status = %d", status)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("%d stats shards", len(stats.Shards))
	}
	for i, sh := range stats.Shards {
		if sh.Checkpoint == nil {
			t.Fatalf("stats shard %d has no checkpoint state", i)
		}
		if sh.Checkpoint.Generation != 3 {
			t.Fatalf("stats shard %d generation = %d", i, sh.Checkpoint.Generation)
		}
		if sh.Checkpoint.LogBytes <= 0 {
			t.Fatalf("stats shard %d log bytes = %d", i, sh.Checkpoint.LogBytes)
		}
	}
	if stats.Requests["checkpoint"] != 3 {
		t.Fatalf("checkpoint request total = %d", stats.Requests["checkpoint"])
	}
}
