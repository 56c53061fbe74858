package replica

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/golden"
)

// TestGoldenFormats pins the frame and FZKNRL01 stream encodings (see
// package golden for where the reference bytes come from): the running code
// must write the reference bytes again, and decoding the reference then
// re-encoding what came out must reproduce it. A snapshot is a stream, so
// the stream's reference pins its grammar too.
func TestGoldenFormats(t *testing.T) {
	rng := rand.New(rand.NewPCG(2010, 12))
	objs := make([]*fuzzy.Object, 6)
	for i := range objs {
		wps := make([]fuzzy.WeightedPoint, 2+rng.IntN(5))
		for j := range wps {
			wps[j] = fuzzy.WeightedPoint{P: geom.Point{rng.Float64() * 100, rng.Float64() * 100}, Mu: 1 - rng.Float64()}
		}
		wps[0].Mu = 1
		objs[i] = fuzzy.MustNew(uint64(i+1), wps)
	}
	frames := [][]byte{
		EncodeFrame(7, objs[:2], nil),
		EncodeFrame(8, nil, []uint64{1}),
		EncodeFrame(9, objs[2:5], []uint64{2, 40}),
	}
	fresh := t.TempDir()
	for name, b := range map[string][]byte{
		"frame.bin":  frames[2],
		"stream.bin": EncodeStream(0xfeed, 9, frames),
	} {
		if err := os.WriteFile(filepath.Join(fresh, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden.Check(t, fresh, nil)

	reencode := func(f Frame) []byte { return EncodeFrame(f.Seq, f.Inserts, f.Deletes) }

	ref := golden.Read(t, filepath.Join(golden.Dir, "frame.bin"))
	f, n, err := DecodeFrame(ref)
	if err != nil || n != len(ref) {
		t.Fatalf("reference frame: consumed %d of %d bytes, err %v", n, len(ref), err)
	}
	if !bytes.Equal(reencode(f), ref) {
		t.Error("frame does not re-encode byte-identically")
	}
	for i, o := range f.Inserts {
		if f.InsertCRCs[i] != objectCRC(o) || objectCRC(o) != objectCRC(objs[2+i]) {
			t.Errorf("frame insert %d: wire CRC and objectCRC disagree", i)
		}
	}

	ref = golden.Read(t, filepath.Join(golden.Dir, "stream.bin"))
	gen, latest, fs, err := DecodeStream(ref)
	if err != nil {
		t.Fatalf("reference stream: %v", err)
	}
	again := make([][]byte, len(fs))
	for i, f := range fs {
		again[i] = reencode(f)
	}
	if !bytes.Equal(EncodeStream(gen, latest, again), ref) {
		t.Error("stream does not re-encode byte-identically")
	}
}

// TestRetiredSnapshotFormatIsCorrupt: testdata/compat holds a bootstrap
// snapshot in the retired FZKNRS01 grammar (magic, generation, sequence,
// dimensionality, count, objects, one CRC over the body), as the golden set
// pinned it before snapshots became streams. A follower that meets one — a
// leader on the older release — must refuse it as ErrCorrupt and apply
// nothing.
func TestRetiredSnapshotFormatIsCorrupt(t *testing.T) {
	old := golden.Read(t, filepath.Join("testdata", "compat", "snapshot-fzknrs01.bin"))
	if !bytes.HasPrefix(old, []byte("FZKNRS01")) {
		t.Fatalf("compat fixture starts %q, want the FZKNRS01 magic", old[:8])
	}
	if s, err := DecodeSnapshot(old); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("retired snapshot decodes to %+v, %v; want ErrCorrupt", s, err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(old) }))
	defer srv.Close()
	target := newFakeApplier()
	f, err := NewFollower(srv.URL, target, &Options{MinBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = f.Sync(ctx)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sync against a leader serving the retired snapshot: %v; want the deadline, wrapping ErrCorrupt", err)
	}
	if st := f.Stats(); len(target.ids()) != 0 || st.Bootstraps != 0 || st.Reconnects == 0 {
		t.Fatalf("follower applied %v, stats %+v; want nothing applied and the bootstrap refused and retried", target.ids(), st)
	}
}
