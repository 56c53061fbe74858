package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fuzzyknn"
	"fuzzyknn/internal/fault"
)

// TestServeBatchDegradedUnderBatchSpelling: "batch" is a legacy spelling of
// the syncing policy, not a way to acknowledge unsynced writes. With every
// log fsync failing, a batch that mixes valid objects with a duplicate —
// which sends the coalescer's group through its request-by-request fallback
// — must acknowledge nothing: 503, no object served now or after a reopen.
// (The fallback used to append each survivor without an fsync under this
// spelling and answer 200 with applied: 2.)
func TestServeBatchDegradedUnderBatchSpelling(t *testing.T) {
	defer fault.Reset()
	policy, err := fuzzyknn.ParseFsyncPolicy("batch")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "objects.fzl")
	ix, err := fuzzyknn.OpenLogIndex(path, 2, &fuzzyknn.Config{Fsync: policy})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{Parallelism: 2})
	ts := httptest.NewServer(New(ix, eng, nil))
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			ts.Close()
			eng.Close()
			ix.Close()
		}
	}
	defer shutdown()

	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError})
	a := &ObjectJSON{ID: 1, Points: []PointJSON{{P: []float64{1, 1}, Mu: 1}}}
	b := &ObjectJSON{ID: 2, Points: []PointJSON{{P: []float64{2, 2}, Mu: 1}}}
	var got struct {
		Error   string `json:"error"`
		Applied int    `json:"applied"`
	}
	status := postJSON(t, ts.URL+"/objects:batch", BatchMutateRequest{Objects: []*ObjectJSON{a, a, b}}, &got)
	fault.Reset()
	if status != http.StatusServiceUnavailable || got.Applied != 0 {
		t.Fatalf("batch over failing fsyncs = %d applied %d (%s), want 503 and nothing applied", status, got.Applied, got.Error)
	}
	if ix.Len() != 0 {
		t.Fatalf("index serves %d objects, none was durably committed", ix.Len())
	}
	shutdown()
	re, err := fuzzyknn.OpenLogIndex(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 {
		t.Fatalf("reopened index serves %d objects, want 0", re.Len())
	}
}
