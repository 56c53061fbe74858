package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/query"
)

// wireObject converts a built object to its JSON form.
func wireObject(t *testing.T, o *fuzzyknn.Object) *ObjectJSON {
	t.Helper()
	wps := o.WeightedPoints()
	obj := &ObjectJSON{ID: o.ID(), Points: make([]PointJSON, len(wps))}
	for i, wp := range wps {
		obj.Points[i] = PointJSON{P: wp.P, Mu: wp.Mu}
	}
	return obj
}

// TestServeBatchMutate drives POST /objects:batch end to end: a mixed
// batch of valid inserts, a malformed object, a duplicate id and deletes
// (valid and unknown) must commit the valid items, report each failure in
// place, and leave the index consistent.
func TestServeBatchMutate(t *testing.T) {
	ts, ix, _ := newTestServer(t)

	req := BatchMutateRequest{
		Objects: []*ObjectJSON{
			wireObject(t, blob(t, 900, 0.2, 0.1)),
			{ID: 901}, // malformed: no points
			wireObject(t, blob(t, 902, -0.4, 0.6)),
			wireObject(t, blob(t, 1, 5, 5)), // duplicate of a live id
			nil,                             // missing object
		},
		DeleteIDs: []uint64{6, 777777},
	}
	var out BatchMutateResponse
	if status := postJSON(t, ts.URL+"/objects:batch", req, &out); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if len(out.Results) != 7 {
		t.Fatalf("%d item results, want 7: %+v", len(out.Results), out.Results)
	}
	wantErr := []bool{false, true, false, true, true, false, true}
	wantOp := []string{"insert", "insert", "insert", "insert", "insert", "delete", "delete"}
	for i, item := range out.Results {
		if (item.Error != "") != wantErr[i] || item.Op != wantOp[i] {
			t.Fatalf("item %d = %+v, want op=%s failed=%v", i, item, wantOp[i], wantErr[i])
		}
	}
	if out.Applied != 3 || out.Failed != 4 {
		t.Fatalf("applied=%d failed=%d, want 3/4", out.Applied, out.Failed)
	}
	// 6 seed objects + 2 inserts - 1 delete.
	if out.Objects != 7 || ix.Len() != 7 {
		t.Fatalf("objects=%d len=%d, want 7", out.Objects, ix.Len())
	}

	// The batch-inserted object answers queries.
	var qr QueryResponse
	if status := postJSON(t, ts.URL+"/aknn", AKNNRequest{Query: queryJSON(t), K: 1, Alpha: 0.5}, &qr); status != http.StatusOK {
		t.Fatalf("aknn status = %d", status)
	}
	if len(qr.Results) != 1 || qr.Results[0].ID != 900 {
		t.Fatalf("batch-ingested object not served: %+v", qr.Results)
	}

	// An empty batch is the client's mistake.
	var er ErrorResponse
	if status := postJSON(t, ts.URL+"/objects:batch", BatchMutateRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", status)
	}

	// A pure-insert bulk load lands whole.
	bulk := BatchMutateRequest{}
	for id := uint64(1000); id < 1050; id++ {
		bulk.Objects = append(bulk.Objects, wireObject(t, blob(t, id, float64(id%10), float64(id%7))))
	}
	if status := postJSON(t, ts.URL+"/objects:batch", bulk, &out); status != http.StatusOK {
		t.Fatalf("bulk status = %d", status)
	}
	if out.Applied != 50 || out.Failed != 0 || ix.Len() != 57 {
		t.Fatalf("bulk applied=%d failed=%d len=%d", out.Applied, out.Failed, ix.Len())
	}
}

// TestShardedBatchIsOneSnapshotOverHTTP is the cross-shard move through
// POST /objects:batch on a two-shard server: each batch deletes the mover's
// id in one shard and inserts its geometry under an id of the other. Every
// concurrent /range, k = 1 /aknn and /rknn around it must see exactly one
// copy.
func TestShardedBatchIsOneSnapshotOverHTTP(t *testing.T) {
	objs := []*fuzzyknn.Object{blob(t, 1, 2, 0), blob(t, 2, 3, 0.5), blob(t, 3, 4, -1), blob(t, 4, 8, 2)}
	a, b := uint64(1000), uint64(1001)
	for query.ShardOf(a, 2) != 0 {
		a++
	}
	for b = a + 1; query.ShardOf(b, 2) != 1; b++ {
	}
	ix, err := fuzzyknn.NewIndex(append(objs, blob(t, a, 50, 50)), &fuzzyknn.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 4})
	ts := httptest.NewServer(New(ix, eng, nil))
	defer func() {
		ts.Close()
		eng.Close()
		ix.Close()
	}()

	q := wireObject(t, blob(t, 7, 50, 50))
	bodies := []any{
		RangeRequest{Query: q, Alpha: 0.5, Radius: 1},
		AKNNRequest{Query: q, K: 1, Alpha: 0.5, Algo: "lb"},
		RKNNRequest{Query: q, K: 1, AlphaStart: 0.3, AlphaEnd: 0.8},
	}
	paths := []string{"/range", "/aknn", "/rknn"}
	// read answers what is wrong with one read's ids near the mover; it runs
	// off the test's goroutine, so it reports instead of failing.
	read := func(i int) string {
		buf, err := json.Marshal(bodies[i])
		if err != nil {
			return err.Error()
		}
		resp, err := http.Post(ts.URL+paths[i], "application/json", bytes.NewReader(buf))
		if err != nil {
			return err.Error()
		}
		defer resp.Body.Close()
		var out struct {
			Results []struct {
				ID   uint64  `json:"id"`
				Dist float64 `json:"dist"` // absent, so 0, in an RKNN answer
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Sprintf("%s answered %d (%v)", paths[i], resp.StatusCode, err)
		}
		var ids []uint64
		for _, r := range out.Results {
			if r.Dist == 0 {
				ids = append(ids, r.ID)
			}
		}
		if len(ids) != 1 || ids[0] != a && ids[0] != b {
			return fmt.Sprintf("%s saw %v, want exactly one of %d and %d", paths[i], ids, a, b)
		}
		return ""
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []string
	reads := 0
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				msg := read(i % len(paths))
				mu.Lock()
				reads++
				if msg != "" && len(bad) < 5 {
					bad = append(bad, msg)
				}
				mu.Unlock()
			}
		}(r)
	}
	from, to := a, b
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); from, to = to, from {
		req := BatchMutateRequest{Objects: []*ObjectJSON{wireObject(t, blob(t, to, 50, 50))}, DeleteIDs: []uint64{from}}
		var out BatchMutateResponse
		if status := postJSON(t, ts.URL+"/objects:batch", req, &out); status != http.StatusOK || out.Failed != 0 {
			t.Errorf("move %d → %d: status %d, %+v", from, to, status, out)
			break
		}
	}
	close(stop)
	wg.Wait()
	for _, msg := range bad {
		t.Error(msg)
	}
	t.Logf("%d reads", reads)
}
