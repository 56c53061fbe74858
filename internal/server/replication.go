package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/replica"
)

// Replication endpoints (leader role, mounted when Options.Replication is
// set):
//
//	GET /replication/checkpoint
//	    Binary bootstrap snapshot: every live object at one consistent
//	    (generation, sequence) point, as a stream in /replication/log's
//	    grammar whose frames all carry that sequence and only insert.
//	    Content-Type application/octet-stream.
//	    503 while the leader is degraded: no frame names what it holds.
//	GET /replication/log?from=<seq>&wait_ms=<ms>&max_bytes=<n>
//	    Binary stream of committed frames with sequence >= from. When the
//	    caller is caught up and wait_ms > 0 the request long-polls until a
//	    frame commits or the budget expires (empty stream — a normal
//	    response, poll again). 410 Gone when from is outside the retained
//	    window: the follower must re-bootstrap from the checkpoint.
//
// Both endpoints are exempt from Options.RequestTimeout (a long-poll is
// supposed to outlive it); wait_ms is clamped to maxReplicationWait.
//
// In follower role (Options.Follower set) the server serves the full query
// surface but rejects every local mutation with 403: the leader's frame
// sequence is the only write source a replica can stay byte-identical
// under. Clients write to the leader instead.

// maxReplicationWait clamps the wait_ms long-poll budget.
const maxReplicationWait = 55 * time.Second

// maxReplicationBytes clamps the max_bytes per-response frame budget.
const maxReplicationBytes = 16 << 20

// replBytesStreamed counts replication payload bytes served (leader role).
type replState struct {
	bytesStreamed atomic.Int64
}

// registerReplication mounts the replication endpoints and metric families
// for whichever roles the options select.
func (s *Server) registerReplication() {
	if repl := s.opts.Replication; repl != nil {
		s.mux.HandleFunc("GET /replication/checkpoint", s.handleReplCheckpoint)
		s.mux.HandleFunc("GET /replication/log", s.handleReplLog)
		s.reg.GaugeFunc("fuzzyknn_replication_latest_seq",
			"Latest committed replication frame sequence (leader).",
			func() int64 { return int64(repl.LastSeq()) })
		s.reg.GaugeFunc("fuzzyknn_replication_oldest_retained_seq",
			"Oldest frame sequence still served from the retained window (leader).",
			func() int64 { return int64(repl.OldestSeq()) })
		s.reg.GaugeFunc("fuzzyknn_replication_frames_retained",
			"Committed frames currently retained for followers to tail (leader).",
			func() int64 { return int64(repl.FramesRetained()) })
		s.reg.CounterFunc("fuzzyknn_replication_snapshots_total",
			"Bootstrap snapshots cut for followers (leader).",
			repl.Snapshots)
		s.reg.CounterFunc("fuzzyknn_replication_bytes_streamed_total",
			"Replication payload bytes served to followers (leader) or received from the leader (follower).",
			s.repl.bytesStreamed.Load)
	}
	if fol := s.opts.Follower; fol != nil {
		s.reg.GaugeFunc("fuzzyknn_replication_applied_seq",
			"Last leader frame sequence applied locally (follower).",
			func() int64 { return int64(fol.Stats().AppliedSeq) })
		s.reg.GaugeFunc("fuzzyknn_replication_lag_frames",
			"Frames the local index trails the leader's last observed commit by (follower).",
			func() int64 { return fol.Stats().LagFrames })
		s.reg.CounterFunc("fuzzyknn_replication_reconnects_total",
			"Transport failures that forced a replication backoff and retry (follower).",
			func() int64 { return fol.Stats().Reconnects })
		s.reg.CounterFunc("fuzzyknn_replication_bootstraps_total",
			"Full snapshot bootstraps, including re-bootstraps after truncation or leader restart (follower).",
			func() int64 { return fol.Stats().Bootstraps })
		s.reg.CounterFunc("fuzzyknn_replication_bytes_streamed_total",
			"Replication payload bytes served to followers (leader) or received from the leader (follower).",
			func() int64 { return fol.Stats().BytesStreamed })
	}
}

// rejectOnFollower answers 403 for mutation endpoints in follower role.
// Returns true when the request was rejected.
func (s *Server) rejectOnFollower(w http.ResponseWriter) bool {
	if s.opts.Follower == nil {
		return false
	}
	writeError(w, http.StatusForbidden,
		fmt.Errorf("read-only follower: send writes to the leader at %s", s.opts.Follower.Leader()))
	return true
}

// handleReplCheckpoint streams a consistent bootstrap snapshot.
func (s *Server) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	snap, err := s.opts.Replication.Snapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fuzzyknn.ErrDegraded) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	s.repl.bytesStreamed.Add(int64(len(snap)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	_, _ = w.Write(snap)
}

// handleReplLog streams committed frames from a sequence cursor,
// long-polling when the follower is caught up.
func (s *Server) handleReplLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("invalid or missing from parameter %q (want the next sequence to apply, >= 1)", q.Get("from")))
		return
	}
	wait, err := replica.ParseWaitMS(q.Get("wait_ms"), maxReplicationWait)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	maxBytes := 4 << 20
	if mb := q.Get("max_bytes"); mb != "" {
		n, err := strconv.Atoi(mb)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid max_bytes %q", mb))
			return
		}
		if n > maxReplicationBytes {
			n = maxReplicationBytes
		}
		maxBytes = n
	}
	// wait==0 yields an already-expired context: FramesSince then reports
	// current availability without blocking.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	frames, latest, err := s.opts.Replication.FramesSince(ctx, from, maxBytes)
	if err != nil {
		if errors.Is(err, replica.ErrTruncated) {
			writeError(w, http.StatusGone, fmt.Errorf(
				"sequence %d outside the retained window [%d, %d]: re-bootstrap from /replication/checkpoint",
				from, s.opts.Replication.OldestSeq(), latest))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	body := replica.EncodeStream(s.opts.Replication.Generation(), latest, frames)
	s.repl.bytesStreamed.Add(int64(len(body)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// ReplicationHandler returns a handler serving only the replication
// endpoints, for a dedicated listener (fuzzyserve -replication-listen) so
// follower traffic does not share the query listener. Requires
// Options.Replication; shares the main server's byte accounting.
func (s *Server) ReplicationHandler() http.Handler {
	mux := http.NewServeMux()
	if s.opts.Replication != nil {
		mux.HandleFunc("GET /replication/checkpoint", s.handleReplCheckpoint)
		mux.HandleFunc("GET /replication/log", s.handleReplLog)
	}
	return mux
}

// ReplicationJSON is the replication block of GET /stats. Leader fields:
// latest_seq, oldest_retained_seq, frames_retained, snapshots. Follower
// fields: leader, applied_seq, leader_seq, lag_frames, reconnects,
// bootstraps. bytes_streamed counts served (leader) or received (follower)
// payload bytes.
type ReplicationJSON struct {
	Role              string `json:"role"` // "leader" | "follower"
	Generation        uint64 `json:"generation"`
	LatestSeq         uint64 `json:"latest_seq,omitempty"`
	OldestRetainedSeq uint64 `json:"oldest_retained_seq,omitempty"`
	FramesRetained    int    `json:"frames_retained,omitempty"`
	Snapshots         int64  `json:"snapshots,omitempty"`
	Leader            string `json:"leader,omitempty"`
	AppliedSeq        uint64 `json:"applied_seq"`
	LeaderSeq         uint64 `json:"leader_seq,omitempty"`
	LagFrames         int64  `json:"lag_frames"`
	Reconnects        int64  `json:"reconnects,omitempty"`
	Bootstraps        int64  `json:"bootstraps,omitempty"`
	BytesStreamed     int64  `json:"bytes_streamed,omitempty"`
}

// replicationStats builds the /stats replication block, or nil when the
// server plays neither role.
func (s *Server) replicationStats() *ReplicationJSON {
	if repl := s.opts.Replication; repl != nil {
		return &ReplicationJSON{
			Role:              "leader",
			Generation:        repl.Generation(),
			LatestSeq:         repl.LastSeq(),
			AppliedSeq:        repl.LastSeq(), // a leader is trivially caught up with itself
			OldestRetainedSeq: repl.OldestSeq(),
			FramesRetained:    repl.FramesRetained(),
			Snapshots:         repl.Snapshots(),
			BytesStreamed:     s.repl.bytesStreamed.Load(),
		}
	}
	if fol := s.opts.Follower; fol != nil {
		st := fol.Stats()
		return &ReplicationJSON{
			Role:          "follower",
			Generation:    st.Generation,
			Leader:        fol.Leader(),
			AppliedSeq:    st.AppliedSeq,
			LeaderSeq:     st.LeaderSeq,
			LagFrames:     st.LagFrames,
			Reconnects:    st.Reconnects,
			Bootstraps:    st.Bootstraps,
			BytesStreamed: st.BytesStreamed,
		}
	}
	return nil
}
