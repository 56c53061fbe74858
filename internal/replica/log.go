package replica

import (
	"context"
	"sync"
	"sync/atomic"

	"fuzzyknn/internal/fuzzy"
)

// Retention defaults: how much committed-frame history a leader keeps in
// memory for followers to tail. A follower that falls further behind than
// the window re-bootstraps from a snapshot instead.
const (
	DefaultRetainFrames = 4096
	DefaultRetainBytes  = 64 << 20
)

// Log is the leader-side frame log: an in-memory window of encoded
// committed frames with monotonically increasing sequence numbers, plus a
// generation token minted at construction. Appends come from the write
// path (already serialized by the recorder); reads come from the
// replication handlers and may block waiting for the next frame.
type Log struct {
	gen          uint64
	retainFrames int
	retainBytes  int64

	mu     sync.Mutex
	frames [][]byte // frames[i] holds seq next-len(frames)+i
	next   uint64   // seq assigned to the next Append; first frame is seq 1
	bytes  int64    // sum of len(frames[i])
	notify chan struct{}

	framesAppended atomic.Int64
}

// NewLog builds a frame log for one leader incarnation. gen must be unique
// across incarnations (the caller mints it from the wall clock);
// retainFrames/retainBytes bound the window (<= 0 selects the defaults).
func NewLog(gen uint64, retainFrames int, retainBytes int64) *Log {
	if retainFrames <= 0 {
		retainFrames = DefaultRetainFrames
	}
	if retainBytes <= 0 {
		retainBytes = DefaultRetainBytes
	}
	return &Log{
		gen:          gen,
		retainFrames: retainFrames,
		retainBytes:  retainBytes,
		next:         1,
		notify:       make(chan struct{}),
	}
}

// Generation returns the leader incarnation token.
func (l *Log) Generation() uint64 { return l.gen }

// LastSeq returns the sequence of the most recently appended frame (0
// before the first append).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// OldestSeq returns the oldest retained sequence (LastSeq+1 when nothing
// is retained: the window is empty and nothing older can be served).
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - uint64(len(l.frames))
}

// FramesRetained returns the current window size in frames.
func (l *Log) FramesRetained() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// FramesAppended reports the lifetime appended-frame total.
func (l *Log) FramesAppended() int64 { return l.framesAppended.Load() }

// Append encodes one committed mutation group as the next frame, wakes
// blocked readers, trims the window to the retention bounds, and returns
// the assigned sequence. The caller must already have committed the group
// locally and must serialize Append calls in commit order (the recorder's
// write mutex does both).
func (l *Log) Append(inserts []*fuzzy.Object, deletes []uint64) uint64 {
	l.mu.Lock()
	seq := l.next
	frame := EncodeFrame(seq, inserts, deletes)
	l.next++
	l.frames = append(l.frames, frame)
	l.bytes += int64(len(frame))
	for len(l.frames) > l.retainFrames || (l.bytes > l.retainBytes && len(l.frames) > 1) {
		l.bytes -= int64(len(l.frames[0]))
		l.frames[0] = nil
		l.frames = l.frames[1:]
	}
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	l.framesAppended.Add(1)
	return seq
}

// FramesSince returns retained encoded frames with sequence >= from, in
// order, bounded by maxBytes (but always at least one frame when any
// qualifies), along with the latest committed sequence. When the caller is
// fully caught up (from == LastSeq+1) it blocks until a new frame arrives
// or ctx is done, then returns whatever exists — possibly nothing, which is
// a normal empty long-poll. A from below the retention window (or beyond
// the issued range) fails with ErrTruncated: that history cannot be served
// and the follower must re-bootstrap.
func (l *Log) FramesSince(ctx context.Context, from uint64, maxBytes int) ([][]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	for {
		l.mu.Lock()
		oldest := l.next - uint64(len(l.frames))
		latest := l.next - 1
		switch {
		case from < oldest || from > l.next:
			l.mu.Unlock()
			return nil, latest, ErrTruncated
		case from < l.next:
			start := int(from - oldest)
			var out [][]byte
			size := 0
			for _, f := range l.frames[start:] {
				if len(out) > 0 && size+len(f) > maxBytes {
					break
				}
				out = append(out, f)
				size += len(f)
			}
			l.mu.Unlock()
			return out, latest, nil
		}
		// from == l.next: caught up; wait for the next append.
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, latest, nil
		}
	}
}
