package replica

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/golden"
)

// TestGoldenFormats pins the frame, FZKNRL01 stream and FZKNRS01 snapshot
// encodings (see package golden for where the reference bytes come from):
// the running code must write the reference bytes again, and decoding the
// reference then re-encoding what came out must reproduce it.
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
		"frame.bin":    frames[2],
		"stream.bin":   EncodeStream(0xfeed, 9, frames),
		"snapshot.bin": EncodeSnapshot(0xfeed, 9, 2, objs),
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
		if f.InsertCRCs[i] != ObjectCRC(o) || ObjectCRC(o) != ObjectCRC(objs[2+i]) {
			t.Errorf("frame insert %d: wire CRC and ObjectCRC disagree", i)
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

	ref = golden.Read(t, filepath.Join(golden.Dir, "snapshot.bin"))
	s, err := DecodeSnapshot(ref)
	if err != nil {
		t.Fatalf("reference snapshot: %v", err)
	}
	if !bytes.Equal(EncodeSnapshot(s.Gen, s.Seq, s.Dims, s.Objects), ref) {
		t.Error("snapshot does not re-encode byte-identically")
	}
	for i, o := range s.Objects {
		if s.CRCs[i] != ObjectCRC(o) {
			t.Errorf("snapshot object %d: wire CRC and ObjectCRC disagree", i)
		}
	}
}
