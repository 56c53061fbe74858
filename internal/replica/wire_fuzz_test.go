package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"testing"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

// craftedObject is a 16-byte object section entry whose header (n=2^29,
// d=2^32-1) wraps the naive 16 + n*d*8 + n*8 size formula to exactly 16: a
// decoder that trusts the formula sizes a 2^29-point slice from it.
func craftedObject() []byte {
	b := binary.LittleEndian.AppendUint32(nil, 16) // objLen
	b = binary.LittleEndian.AppendUint64(b, 1)     // id
	b = binary.LittleEndian.AppendUint32(b, 1<<29) // n
	return binary.LittleEndian.AppendUint32(b, 0xFFFFFFFF)
}

func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// craftedFrame is the 44-byte CRC-valid frame that used to take a follower
// down with "fatal error: runtime: out of memory".
func craftedFrame() []byte {
	obj := craftedObject()
	b := binary.LittleEndian.AppendUint64(nil, 1)             // seq
	b = binary.LittleEndian.AppendUint32(b, 1)                // nIns
	b = binary.LittleEndian.AppendUint32(b, 0)                // nDel
	b = binary.LittleEndian.AppendUint32(b, uint32(len(obj))) // payloadLen
	return withCRC(append(b, obj...))
}

// TestCraftedShapeIsCorruptNotOOM feeds the wrapping header through every
// replication decoder: each must answer ErrCorrupt having allocated next to
// nothing, instead of sizing memory by the header.
func TestCraftedShapeIsCorruptNotOOM(t *testing.T) {
	frame := craftedFrame()
	if len(frame) != 44 {
		t.Fatalf("reproducer is %d bytes, want the 44-byte frame", len(frame))
	}
	for name, decode := range map[string]func() error{
		"frame":    func() error { _, _, err := DecodeFrame(frame); return err },
		"stream":   func() error { _, _, _, err := DecodeStream(EncodeStream(9, 1, [][]byte{frame})); return err },
		"snapshot": func() error { _, err := DecodeSnapshot(EncodeStream(9, 1, [][]byte{frame})); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: refusing a crafted %d-byte input allocated %d bytes", name, len(frame), grew)
		}
	}
}

// TestNonFiniteCoordinateIsCorrupt: replication apply refuses a frame (CRC
// intact) that carries a NaN or infinite coordinate.
func TestNonFiniteCoordinateIsCorrupt(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		frame := EncodeFrame(4, []*fuzzy.Object{obj(1, 0, 0)}, nil)
		firstCoord := frameHeaderSize + 4 + codec.HeaderSize // header | object length | object header
		binary.LittleEndian.PutUint64(frame[firstCoord:], math.Float64bits(bad))
		frame = withCRC(frame[:len(frame)-crcSize])
		if _, _, err := DecodeFrame(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("coordinate %v: DecodeFrame = %v, want ErrCorrupt", bad, err)
		}
	}
}

func fuzzSeedFrames() [][]byte {
	return [][]byte{
		EncodeFrame(4, []*fuzzy.Object{obj(1, 0, 0), obj(2, 3, 4)}, nil),
		EncodeFrame(5, nil, []uint64{1}),
		EncodeFrame(6, []*fuzzy.Object{obj(9, -1, 2)}, []uint64{2, 77}),
	}
}

// addMutations seeds f with valid plus a truncation and single-byte
// corruptions of it.
func addMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, at := range []int{0, 9, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[at] ^= 0x40
		f.Add(mut)
	}
}

// reencodeFrame renders a decoded frame again. Decoding normalizes each
// object's points into descending-membership order (fuzzy.New), so this
// equals the input bytes whenever the input was written by EncodeFrame and
// is at least a fixed point otherwise.
func reencodeFrame(fr Frame) []byte { return EncodeFrame(fr.Seq, fr.Inserts, fr.Deletes) }

// FuzzDecodeFrame: never a panic or a header-sized allocation; a refusal
// is ErrCorrupt; an accepted frame re-encodes to the same length and that
// re-encoding decodes to itself.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		addMutations(f, fr)
	}
	f.Add(craftedFrame())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		again := reencodeFrame(fr)
		if len(again) != n {
			t.Fatalf("consumed %d bytes, re-encodes to %d", n, len(again))
		}
		fr2, _, err := DecodeFrame(again)
		if err != nil || !bytes.Equal(reencodeFrame(fr2), again) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}

// FuzzDecodeStream is FuzzDecodeFrame's contract over a whole
// /replication/log body.
func FuzzDecodeStream(f *testing.F) {
	addMutations(f, EncodeStream(9, 6, fuzzSeedFrames()))
	f.Add(EncodeStream(9, 1, [][]byte{craftedFrame()}))
	f.Add(EncodeStream(1, 0, nil))
	f.Add([]byte("FZKNRL01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, latest, frames, err := DecodeStream(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		enc := make([][]byte, len(frames))
		for i, fr := range frames {
			enc[i] = reencodeFrame(fr)
		}
		again := EncodeStream(gen, latest, enc)
		if len(again) != len(data) {
			t.Fatalf("stream of %d bytes re-encodes to %d", len(data), len(again))
		}
		if _, _, _, err := DecodeStream(again); err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
	})
}

// FuzzDecodeSnapshot is the same contract over a /replication/checkpoint
// body: every refusal is ErrCorrupt, and an accepted snapshot re-encodes,
// after one round (which re-cuts its frames), to a fixed point.
func FuzzDecodeSnapshot(f *testing.F) {
	objs := []*fuzzy.Object{obj(1, 0, 0), obj(2, 5, 5), obj(9, -1, 2)}
	addMutations(f, EncodeSnapshot(77, 123, objs))
	f.Add(EncodeStream(77, 123, [][]byte{EncodeFrame(123, objs[:1], nil), EncodeFrame(123, objs[1:], nil)}))
	f.Add(EncodeStream(77, 123, [][]byte{EncodeFrame(122, objs, nil)}))
	f.Add(EncodeStream(77, 123, [][]byte{EncodeFrame(123, objs, []uint64{4})}))
	f.Add(EncodeStream(9, 1, [][]byte{craftedFrame()}))
	f.Add(EncodeSnapshot(1, 0, nil))
	f.Add([]byte("FZKNRL01"))
	if old, err := os.ReadFile("testdata/compat/snapshot-fzknrs01.bin"); err == nil {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal is not ErrCorrupt: %v", err)
			}
			return
		}
		again := EncodeSnapshot(s.Gen, s.Seq, s.Objects)
		s2, err := DecodeSnapshot(again)
		if err != nil || s2.Gen != s.Gen || s2.Seq != s.Seq || !bytes.Equal(EncodeSnapshot(s2.Gen, s2.Seq, s2.Objects), again) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}
