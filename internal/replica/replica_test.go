package replica

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
)

func obj(id uint64, x, y float64) *fuzzy.Object {
	return fuzzy.MustNew(id, []fuzzy.WeightedPoint{
		{P: geom.Point{x, y}, Mu: 1},
		{P: geom.Point{x + 1, y + 1}, Mu: 0.5},
	})
}

func sameObject(t *testing.T, a, b *fuzzy.Object) {
	t.Helper()
	if a.ID() != b.ID() || a.Len() != b.Len() || a.Dims() != b.Dims() {
		t.Fatalf("object mismatch: id %d/%d len %d/%d dims %d/%d",
			a.ID(), b.ID(), a.Len(), b.Len(), a.Dims(), b.Dims())
	}
	for i := 0; i < a.Len(); i++ {
		pa, ma := a.At(i)
		pb, mb := b.At(i)
		if ma != mb || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("object %d point %d mismatch: %v/%v %v/%v", a.ID(), i, pa, pb, ma, mb)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	ins := []*fuzzy.Object{obj(1, 0, 0), obj(7, 3, 4)}
	dels := []uint64{42, 99}
	enc := EncodeFrame(12, ins, dels)
	f, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if f.Seq != 12 || len(f.Inserts) != 2 || !reflect.DeepEqual(f.Deletes, dels) {
		t.Fatalf("bad frame: %+v", f)
	}
	for i := range ins {
		sameObject(t, ins[i], f.Inserts[i])
		if f.InsertCRCs[i] != ObjectCRC(ins[i]) {
			t.Fatalf("insert %d CRC mismatch", i)
		}
	}
	// Empty-insert frame (pure deletes) must round-trip too.
	enc = EncodeFrame(13, nil, []uint64{5})
	if f, _, err = DecodeFrame(enc); err != nil || f.Seq != 13 || len(f.Deletes) != 1 {
		t.Fatalf("pure-delete frame: %+v err %v", f, err)
	}
}

func TestFrameCorruption(t *testing.T) {
	enc := EncodeFrame(1, []*fuzzy.Object{obj(1, 0, 0)}, nil)
	for _, mut := range []struct {
		name string
		b    func() []byte
	}{
		{"truncated", func() []byte { return enc[:len(enc)-3] }},
		{"bitflip", func() []byte {
			c := append([]byte(nil), enc...)
			c[frameHeaderSize+2] ^= 0x40
			return c
		}},
	} {
		if _, _, err := DecodeFrame(mut.b()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: want ErrCorrupt, got %v", mut.name, err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	objs := []*fuzzy.Object{obj(1, 0, 0), obj(2, 5, 5), obj(9, -1, 2)}
	enc := EncodeSnapshot(77, 123, 2, objs)
	s, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gen != 77 || s.Seq != 123 || s.Dims != 2 || len(s.Objects) != 3 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	for i := range objs {
		sameObject(t, objs[i], s.Objects[i])
		if s.CRCs[i] != ObjectCRC(objs[i]) {
			t.Fatalf("object %d CRC mismatch", i)
		}
	}
	// A byte past the objects is refused, even under a checksum that holds.
	padded := append(enc[:len(enc)-crcSize:len(enc)-crcSize], 0)
	if _, err := DecodeSnapshot(binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for a trailing byte, got %v", err)
	}
	enc[len(enc)-7] ^= 1
	if _, err := DecodeSnapshot(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after bitflip, got %v", err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	frames := [][]byte{
		EncodeFrame(4, []*fuzzy.Object{obj(1, 0, 0)}, nil),
		EncodeFrame(5, nil, []uint64{1}),
	}
	gen, latest, decoded, err := DecodeStream(EncodeStream(9, 5, frames))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 9 || latest != 5 || len(decoded) != 2 || decoded[0].Seq != 4 || decoded[1].Seq != 5 {
		t.Fatalf("bad stream: gen %d latest %d frames %+v", gen, latest, decoded)
	}
	if _, _, _, err := DecodeStream([]byte("not a stream at all")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, _, _, err := DecodeStream(append(EncodeStream(9, 5, frames), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for a trailing byte, got %v", err)
	}
}

func TestLogAppendAndFramesSince(t *testing.T) {
	l := NewLog(1, 0, 0)
	if l.LastSeq() != 0 || l.OldestSeq() != 1 {
		t.Fatalf("empty log: last %d oldest %d", l.LastSeq(), l.OldestSeq())
	}
	for i := 1; i <= 5; i++ {
		if seq := l.Append([]*fuzzy.Object{obj(uint64(i), float64(i), 0)}, nil); seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	ctx := context.Background()
	frames, latest, err := l.FramesSince(ctx, 3, 0)
	if err != nil || latest != 5 || len(frames) != 3 {
		t.Fatalf("FramesSince(3): %d frames latest %d err %v", len(frames), latest, err)
	}
	f, _, err := DecodeFrame(frames[0])
	if err != nil || f.Seq != 3 {
		t.Fatalf("first frame seq %d err %v", f.Seq, err)
	}
	// maxBytes clamps but always serves at least one frame.
	frames, _, err = l.FramesSince(ctx, 1, 1)
	if err != nil || len(frames) != 1 {
		t.Fatalf("maxBytes=1: %d frames err %v", len(frames), err)
	}
	// from == LastSeq+1 with an expired context is an empty poll, not an error.
	done, cancel := context.WithCancel(ctx)
	cancel()
	frames, latest, err = l.FramesSince(done, 6, 0)
	if err != nil || len(frames) != 0 || latest != 5 {
		t.Fatalf("caught-up poll: %d frames latest %d err %v", len(frames), latest, err)
	}
	// Out-of-range requests are truncations.
	if _, _, err := l.FramesSince(ctx, 0, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("from=0: want ErrTruncated, got %v", err)
	}
	if _, _, err := l.FramesSince(ctx, 7, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("from beyond next: want ErrTruncated, got %v", err)
	}
}

func TestLogRetention(t *testing.T) {
	l := NewLog(1, 3, 1<<20)
	for i := 1; i <= 10; i++ {
		l.Append(nil, []uint64{uint64(i)})
	}
	if got := l.OldestSeq(); got != 8 {
		t.Fatalf("oldest retained %d, want 8", got)
	}
	if _, _, err := l.FramesSince(context.Background(), 5, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("trimmed seq: want ErrTruncated, got %v", err)
	}
}

func TestFramesSinceWakesOnAppend(t *testing.T) {
	l := NewLog(1, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		l.Append(nil, []uint64{1})
	}()
	frames, latest, err := l.FramesSince(ctx, 1, 0)
	if err != nil || len(frames) != 1 || latest != 1 {
		t.Fatalf("wake: %d frames latest %d err %v", len(frames), latest, err)
	}
}

// fakeApplier implements Applier over a plain map with the store's batch
// contract (duplicate insert or missing delete rejects the whole batch).
type fakeApplier struct {
	mu   sync.Mutex
	objs map[uint64]*fuzzy.Object
}

func newFakeApplier() *fakeApplier { return &fakeApplier{objs: map[uint64]*fuzzy.Object{}} }

func (a *fakeApplier) ApplyBatch(ins []*fuzzy.Object, dels []uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, o := range ins {
		if _, ok := a.objs[o.ID()]; ok {
			return fmt.Errorf("duplicate id %d", o.ID())
		}
	}
	for _, id := range dels {
		if _, ok := a.objs[id]; !ok {
			return fmt.Errorf("unknown id %d", id)
		}
	}
	for _, o := range ins {
		a.objs[o.ID()] = o
	}
	for _, id := range dels {
		delete(a.objs, id)
	}
	return nil
}

func (a *fakeApplier) ids() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []uint64
	for id := range a.objs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// testLeader is a minimal in-process leader: a state map plus a frame Log,
// serving the two replication endpoints the way the real server does.
type testLeader struct {
	mu   sync.Mutex
	gen  uint64
	log  *Log
	objs map[uint64]*fuzzy.Object
}

func newTestLeader(gen uint64, retainFrames int) *testLeader {
	return &testLeader{gen: gen, log: NewLog(gen, retainFrames, 0), objs: map[uint64]*fuzzy.Object{}}
}

func (tl *testLeader) apply(ins []*fuzzy.Object, dels []uint64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, o := range ins {
		tl.objs[o.ID()] = o
	}
	for _, id := range dels {
		delete(tl.objs, id)
	}
	tl.log.Append(ins, dels)
}

func (tl *testLeader) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replication/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		tl.mu.Lock()
		defer tl.mu.Unlock()
		ids := make([]uint64, 0, len(tl.objs))
		for id := range tl.objs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		objs := make([]*fuzzy.Object, len(ids))
		for i, id := range ids {
			objs[i] = tl.objs[id]
		}
		w.Write(EncodeSnapshot(tl.gen, tl.log.LastSeq(), 2, objs))
	})
	mux.HandleFunc("GET /replication/log", func(w http.ResponseWriter, r *http.Request) {
		var from uint64
		fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
		wait, _ := ParseWaitMS(r.URL.Query().Get("wait_ms"), 55*time.Second)
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		frames, latest, err := tl.log.FramesSince(ctx, from, 0)
		if errors.Is(err, ErrTruncated) {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.Write(EncodeStream(tl.gen, latest, frames))
	})
	return mux
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	tl := newTestLeader(100, 0)
	tl.apply([]*fuzzy.Object{obj(1, 0, 0), obj(2, 1, 1)}, nil)
	srv := httptest.NewServer(tl.handler())
	defer srv.Close()

	target := newFakeApplier()
	f, err := NewFollower(srv.URL, target, nil, &Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := target.ids(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("after bootstrap: %v", got)
	}
	st := f.Stats()
	if st.Generation != 100 || st.AppliedSeq != 1 || st.LagFrames != 0 || st.Bootstraps != 1 {
		t.Fatalf("stats after bootstrap: %+v", st)
	}

	// Tail two more frames.
	tl.apply([]*fuzzy.Object{obj(3, 2, 2)}, nil)
	tl.apply(nil, []uint64{1})
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := target.ids(); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("after tail: %v", got)
	}
	if st := f.Stats(); st.AppliedSeq != 3 || st.Bootstraps != 1 {
		t.Fatalf("stats after tail: %+v", st)
	}

	// SyncTo parks mid-history even when more frames are retained.
	target2 := newFakeApplier()
	f2, err := NewFollower(srv.URL, target2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap already lands at the head; park via SyncTo on a fresh
	// leader position instead: applied=3, add frames, stop at 4 of 5.
	if err := f2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	tl.apply([]*fuzzy.Object{obj(4, 3, 3)}, nil)
	tl.apply([]*fuzzy.Object{obj(5, 4, 4)}, nil)
	if err := f2.SyncTo(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if st := f2.Stats(); st.AppliedSeq != 4 {
		t.Fatalf("SyncTo(4): applied %d", st.AppliedSeq)
	}
	if got := target2.ids(); !reflect.DeepEqual(got, []uint64{2, 3, 4}) {
		t.Fatalf("after SyncTo(4): %v", got)
	}
	if err := f2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := target2.ids(); !reflect.DeepEqual(got, []uint64{2, 3, 4, 5}) {
		t.Fatalf("after final sync: %v", got)
	}
}

func TestFollowerRebootstrapOnTruncation(t *testing.T) {
	tl := newTestLeader(100, 2) // tiny retention window
	tl.apply([]*fuzzy.Object{obj(1, 0, 0)}, nil)
	srv := httptest.NewServer(tl.handler())
	defer srv.Close()

	target := newFakeApplier()
	f, err := NewFollower(srv.URL, target, nil, &Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Push the window past the follower's position: frames 2..6, retention 2.
	for i := 2; i <= 6; i++ {
		tl.apply([]*fuzzy.Object{obj(uint64(i), float64(i), 0)}, nil)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := target.ids(); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("after truncation recovery: %v", got)
	}
	if st := f.Stats(); st.Bootstraps < 2 {
		t.Fatalf("want a re-bootstrap, stats %+v", st)
	}
}

func TestFollowerRebootstrapOnGenerationChange(t *testing.T) {
	tl1 := newTestLeader(100, 0)
	tl1.apply([]*fuzzy.Object{obj(1, 0, 0), obj(2, 1, 1)}, nil)

	// A handler indirection lets "the leader restarts" happen under one URL.
	var cur struct {
		sync.Mutex
		h http.Handler
	}
	cur.h = tl1.handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Lock()
		h := cur.h
		cur.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	target := newFakeApplier()
	f, err := NewFollower(srv.URL, target, nil, &Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Leader restarts: new generation, overlapping but different history.
	tl2 := newTestLeader(200, 0)
	tl2.apply([]*fuzzy.Object{obj(2, 9, 9), obj(7, 7, 7)}, nil)
	cur.Lock()
	cur.h = tl2.handler()
	cur.Unlock()

	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := target.ids(); !reflect.DeepEqual(got, []uint64{2, 7}) {
		t.Fatalf("after generation change: %v", got)
	}
	// Object 2 changed payload across generations; the diff must have
	// replaced it, not kept the stale copy.
	target.mu.Lock()
	p, _ := target.objs[2].At(0)
	target.mu.Unlock()
	if p[0] != 9 {
		t.Fatalf("object 2 not replaced after re-bootstrap: %v", p)
	}
	if st := f.Stats(); st.Generation != 200 || st.Bootstraps < 2 {
		t.Fatalf("stats after generation change: %+v", st)
	}
}
