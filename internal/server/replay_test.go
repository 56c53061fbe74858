package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyknn"
	. "fuzzyknn/internal/conform"
	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/server"
)

// served replays a history through internal/conform's served shapes alone,
// mutated and read only over HTTP: "served", in memory at one shard, and
// "served-sharded", log-backed at the given shard count. Every reply is
// held to the library and the scan, and /stats and /metrics to what the
// checker sent and received.
func served(t *testing.T, shards int, history ...byte) {
	Run(t, history, Shapes{Shards: []int{shards}, ServedOnly: true})
}

// TestServeAKNNEndToEnd: /aknn, with inline queries, answers every
// algorithm as the library and the scan do.
func TestServeAKNNEndToEnd(t *testing.T) {
	served(t, 1, 0, 20, OpQuery, 1, OpQuery, 2, OpQuery, 3)
}

// TestServeAKNNByStoredID: queries given by query_id answer as inline ones
// do, and each resolution costs one object access that the index counts.
func TestServeAKNNByStoredID(t *testing.T) {
	served(t, 2, 2, 24, OpQuery, 7, OpQuery, 9, OpQuery, 12)
}

// TestServeRange: /range answers the objects within the radius at their
// exact distances, on the tie lattice, where radii sit at attained
// distances.
func TestServeRange(t *testing.T) {
	served(t, 1, 1, 24, OpQuery, 3, OpQuery, 4, OpQuery, 5)
}

// TestServeStats: /stats and /metrics count every request by kind, every
// failure, every reply by endpoint and status and every object access, and
// the shards' sums make the totals.
func TestServeStats(t *testing.T) {
	served(t, 2, 2, 12, OpQuery, 5, OpInsert, 1, OpDelete, 0, OpRefuse, 1, OpCheckpoint, 1, OpQuery, 6)
}

// TestServeShardedIndex: a 4-shard server answers what the single tree and
// the scan do, its writes route to their shards, and /stats' per-shard
// objects and accesses sum to its totals.
func TestServeShardedIndex(t *testing.T) {
	served(t, 4, 0, 16, OpQuery, 7, OpInsert, 2, OpBatch, 23, OpQuery, 8)
}

// TestServeConcurrentClients: readers of every served family over HTTP
// beside writers, each answer at a committed prefix.
func TestServeConcurrentClients(t *testing.T) {
	served(t, 1, 4, 20, OpRace, 4, OpRace, 13, OpRace, 21)
}

// TestShardedBatchIsOneSnapshotOverHTTP: on a two-shard server, a POST
// /objects:batch of inserts and deletes is seen whole or not at all by
// every concurrent /aknn, /rknn and /range.
func TestShardedBatchIsOneSnapshotOverHTTP(t *testing.T) {
	served(t, 2, 6, 20, OpRace, 23, OpRace, 17, OpRace, 11)
}

// TestServeCheckpointUnsupported: POST /checkpoint on an in-memory index
// answers 501 with a JSON error.
func TestServeCheckpointUnsupported(t *testing.T) {
	served(t, 1, 0, 4, OpCheckpoint, 1, OpCheckpoint, 2)
}

// TestServeMutationsEndToEnd: POST /objects and DELETE /objects/{id}
// commit, answer 201 and 200 with the population and what they charged,
// and refuse a live id inserted again, a dead id deleted, a nil object
// and a 3-D one with 400 and 404; the answers follow. What only this test
// checks: an object with no points and an id that is not a number.
func TestServeMutationsEndToEnd(t *testing.T) {
	served(t, 1, 0, 8, OpInsert, 1, OpDelete, 3, OpRefuse, 0, OpRefuse, 1, OpRefuse, 2, OpRefuse, 3, OpQuery, 1)

	url := start(t)
	var er, er2 server.ErrorResponse
	if call(t, "POST", url+"/objects", server.InsertRequest{Object: &server.ObjectJSON{ID: 901}}, &er) != http.StatusBadRequest ||
		call(t, "DELETE", url+"/objects/banana", nil, &er2) != http.StatusBadRequest || er.Error == "" || er2.Error == "" {
		t.Fatalf("an object with no points, an id that is no number: %q, %q, want 400s", er.Error, er2.Error)
	}
}

// TestServeBatchMutate: POST /objects:batch commits its valid items, from
// two writers at once, refuses exactly the bad ones in place — duplicates,
// dead ids, repeated deletes, nil and 3-D objects — through the coalescer's
// one-at-a-time fallback, and answers an empty batch 400. What only this
// test checks: an object with no points refused in place.
func TestServeBatchMutate(t *testing.T) {
	served(t, 2, 2, 10, OpBatch, 23, OpRefuse, 5, OpRefuse, 6, OpRefuse, 9, OpRefuse, 135, OpRefuse, 136, OpBatch, 0, OpQuery, 2)

	url := start(t)
	req := server.BatchMutateRequest{Objects: []*server.ObjectJSON{
		{ID: 901},
		{ID: 902, Points: []server.PointJSON{{P: []float64{0, 0}, Mu: 1}}},
	}}
	var out server.BatchMutateResponse
	if status := call(t, "POST", url+"/objects:batch", req, &out); status != http.StatusOK || out.Applied != 1 || out.Failed != 1 ||
		out.Results[0].Error == "" || out.Results[1].Error != "" {
		t.Fatalf("a batch with an object of no points = %d %+v", status, out)
	}
}

// TestServeDegradedMode: a served log index whose fsync or write fails
// answers 503 to every write and to POST /checkpoint from then on, its
// reads keep answering the population it published, and /healthz, /stats
// and /metrics report the state, its reason and its storage faults as the
// library does. What only this test checks: a degraded leader's GET
// /replication/checkpoint answers 503.
func TestServeDegradedMode(t *testing.T) {
	served(t, 2, 0, 12, OpFailStop, 144, OpQuery, 1, OpFailStop, 136, OpQuery, 2)

	defer fault.Reset()
	url := start(t)
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
	var er server.ErrorResponse
	call(t, "DELETE", url+"/objects/1", nil, &er)
	fault.Reset()
	if status := call(t, "GET", url+"/replication/checkpoint", nil, &er); status != http.StatusServiceUnavailable || !strings.Contains(er.Error, "degraded") {
		t.Fatalf("replication checkpoint on a degraded leader = %d (%s), want 503", status, er.Error)
	}
}

// start serves a log-backed index holding object 1 as a replication
// leader, and returns its URL.
func start(t *testing.T) string {
	t.Helper()
	ix, err := fuzzyknn.OpenLogIndex(filepath.Join(t.TempDir(), "objects.fzl"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := fuzzyknn.NewObject(1, []fuzzyknn.WeightedPoint{{P: fuzzyknn.Point{0, 0}, Mu: 1}})
	repl, err2 := ix.EnableReplication(nil)
	if err = errors.Join(err, err2, ix.Insert(o)); err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	ts := httptest.NewServer(server.New(ix, eng, &server.Options{Replication: repl}))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
		ix.Close()
	})
	return ts.URL
}

// call sends one request, with body as JSON unless it is nil, decodes the
// reply into out and returns its status.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf []byte
	var err error
	if body != nil {
		buf, err = json.Marshal(body)
	}
	req, err2 := http.NewRequest(method, url, bytes.NewReader(buf))
	if err = errors.Join(err, err2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode
}
