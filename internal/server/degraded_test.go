package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/fault"
)

// TestServeDegradedMode drives the serving layer's half of the degraded
// contract: a failed fsync under a live server flips it into sticky
// degraded read-only mode — writes and checkpoints answer 503 with the
// fail-stop reason, /healthz stays 200 but says "degraded", /stats grows a
// degraded block, /metrics flips fuzzyknn_degraded — while the whole query
// surface keeps answering from the last published snapshot.
func TestServeDegradedMode(t *testing.T) {
	defer fault.Reset()
	ts, ix := newLogTestServer(t, 2)

	// Healthy baseline.
	var hz HealthzResponse
	if status := doRequest(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); status != http.StatusOK {
		t.Fatalf("healthz status = %d", status)
	}
	if hz.Status != "ok" || hz.Reason != "" {
		t.Fatalf("healthy healthz = %+v", hz)
	}
	if page := scrape(t, ts.URL); !strings.Contains(page, "fuzzyknn_degraded 0") {
		t.Fatal("healthy /metrics does not expose fuzzyknn_degraded 0")
	}

	// Poison the store: the next log fsync fails, the insert that triggered
	// it is refused as a storage fault (503, not 500 — the client should
	// fail over, not retry here).
	fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError, Nth: 1})
	var er ErrorResponse
	ins := InsertRequest{Object: &ObjectJSON{ID: 50, Points: []PointJSON{{P: []float64{1, 1}, Mu: 1}}}}
	status := postJSON(t, ts.URL+"/objects", ins, &er)
	fault.Reset()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("insert over failed fsync = %d (%s), want 503", status, er.Error)
	}
	if er.Error == "" {
		t.Fatal("503 carries no error message")
	}

	// Sticky: failpoints are disarmed, every write surface still refuses.
	ins.Object.ID = 51
	if status := postJSON(t, ts.URL+"/objects", ins, &er); status != http.StatusServiceUnavailable {
		t.Fatalf("insert on degraded server = %d (%s), want 503", status, er.Error)
	}
	batch := BatchMutateRequest{DeleteIDs: []uint64{1}}
	if status := postJSON(t, ts.URL+"/objects:batch", batch, &er); status != http.StatusServiceUnavailable {
		t.Fatalf("batch on degraded server = %d, want 503", status)
	}
	if status := doRequest(t, http.MethodDelete, ts.URL+"/objects/2", nil, &er); status != http.StatusServiceUnavailable {
		t.Fatalf("delete on degraded server = %d, want 503", status)
	}
	if status := postJSON(t, ts.URL+"/checkpoint", struct{}{}, &er); status != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint on degraded server = %d, want 503", status)
	}
	// No frame names what a degraded leader holds, so it cuts no bootstrap
	// snapshot either.
	if status := doRequest(t, http.MethodGet, ts.URL+"/replication/checkpoint", nil, &er); status != http.StatusServiceUnavailable || !strings.Contains(er.Error, "degraded") {
		t.Fatalf("replication checkpoint on degraded server = %d (%s), want 503", status, er.Error)
	}

	// /healthz keeps answering 200 — the process is alive and serving
	// queries — but tells the truth about the state.
	if status := doRequest(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); status != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200", status)
	}
	if hz.Status != "degraded" || hz.Reason == "" {
		t.Fatalf("degraded healthz = %+v", hz)
	}
	if _, err := time.Parse(time.RFC3339Nano, hz.Since); err != nil {
		t.Fatalf("healthz since %q: %v", hz.Since, err)
	}

	// /stats surfaces the same state with the refusal count.
	var stats StatsResponse
	if status := doRequest(t, http.MethodGet, ts.URL+"/stats", nil, &stats); status != http.StatusOK {
		t.Fatalf("/stats status = %d", status)
	}
	if stats.Degraded == nil || stats.Degraded.Reason != hz.Reason {
		t.Fatalf("stats degraded block = %+v, healthz reason %q", stats.Degraded, hz.Reason)
	}
	if stats.Degraded.StorageFaults < 4 {
		t.Fatalf("stats storage faults = %d, want >= 4 (trigger + refusals)", stats.Degraded.StorageFaults)
	}

	// /metrics for the alerting path.
	page := scrape(t, ts.URL)
	if !strings.Contains(page, "fuzzyknn_degraded 1") {
		t.Fatal("degraded /metrics does not expose fuzzyknn_degraded 1")
	}
	if !strings.Contains(page, "fuzzyknn_storage_faults_total") || strings.Contains(page, "fuzzyknn_storage_faults_total 0") {
		t.Fatal("degraded /metrics does not count storage faults")
	}

	// Reads still serve the pre-fault population.
	var qr QueryResponse
	if status := postJSON(t, ts.URL+"/aknn", AKNNRequest{Query: queryJSON(t), K: 3, Alpha: 0.5}, &qr); status != http.StatusOK {
		t.Fatalf("query on degraded server = %d, want 200", status)
	}
	if len(qr.Results) != 3 {
		t.Fatalf("query on degraded server returned %d results, want 3", len(qr.Results))
	}
	if ix.Len() != 6 {
		t.Fatalf("degraded index len = %d, want the pre-fault 6", ix.Len())
	}

	// The public API agrees with the HTTP surface.
	d := ix.Degraded()
	if d == nil {
		t.Fatal("public API reports healthy on a degraded index")
	}
	if d.Reason != hz.Reason {
		t.Fatalf("API reason %q, healthz reason %q", d.Reason, hz.Reason)
	}
	if !errors.Is(d.Cause, fuzzyknn.ErrDegraded) {
		t.Fatalf("degraded cause %v does not wrap ErrDegraded", d.Cause)
	}
	if ix.StorageFaults() < stats.Degraded.StorageFaults {
		t.Fatalf("API storage faults %d < stats %d", ix.StorageFaults(), stats.Degraded.StorageFaults)
	}
}

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
