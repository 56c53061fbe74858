package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
)

func randObject(rng *rand.Rand, id uint64, n, dims int) *fuzzy.Object {
	pts := make([]fuzzy.WeightedPoint, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.Float64() * 100
		}
		pts[i] = fuzzy.WeightedPoint{P: p, Mu: 1 - rng.Float64()}
	}
	pts[0].Mu = 1
	return fuzzy.MustNew(id, pts)
}

func sameObject(t *testing.T, a, b *fuzzy.Object) {
	t.Helper()
	if a.ID() != b.ID() || a.Len() != b.Len() || a.Dims() != b.Dims() {
		t.Fatalf("object shape changed: id %d/%d n %d/%d d %d/%d", a.ID(), b.ID(), a.Len(), b.Len(), a.Dims(), b.Dims())
	}
	for i := 0; i < a.Len(); i++ {
		pa, ma := a.At(i)
		pb, mb := b.At(i)
		if !pa.Equal(pb) || ma != mb {
			t.Fatalf("point %d changed", i)
		}
	}
}

// craftedHeader is the overflow attack both decoders once had to survive
// separately: n=2^29, d=2^32-1 makes the naive 16 + n*d*8 + n*8 wrap to
// exactly 16, so a 16-byte body "matches" while describing 2^61 floats.
func craftedHeader() []byte {
	hdr := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint64(hdr, 1)
	binary.LittleEndian.PutUint32(hdr[8:], 1<<29)
	binary.LittleEndian.PutUint32(hdr[12:], 0xFFFFFFFF)
	return hdr
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, shape := range [][2]int{{1, 1}, {3, 2}, {40, 3}, {7, 9}} {
		o := randObject(rng, rng.Uint64(), shape[0], shape[1])
		body := Append(nil, o)
		if len(body) != Size(o) {
			t.Fatalf("Size %d, Append wrote %d", Size(o), len(body))
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, o, got)

		prefix := []byte("prefix")
		rec := AppendRecord(bytes.Clone(prefix), o)
		if !bytes.HasPrefix(rec, prefix) || !bytes.Equal(rec[len(prefix):len(rec)-CRCSize], body) {
			t.Fatal("AppendRecord is not prefix + body + crc")
		}
		rec = rec[len(prefix):]
		if got, err = DecodeRecord(rec); err != nil {
			t.Fatal(err)
		}
		sameObject(t, o, got)
		if id, n, d, err := Shape(rec, len(rec)-CRCSize); err != nil || id != o.ID() || n != o.Len() || d != o.Dims() {
			t.Fatalf("Shape = %d, %d, %d, %v", id, n, d, err)
		}
		rec[len(rec)/2] ^= 1
		if err := VerifyRecord(rec); err == nil {
			t.Fatal("flipped bit passed the record checksum")
		}
	}
}

func TestShapeRefusesWhatTheBytesCannotHold(t *testing.T) {
	hdr := func(n, d uint32) []byte {
		h := make([]byte, HeaderSize)
		binary.LittleEndian.PutUint32(h[8:], n)
		binary.LittleEndian.PutUint32(h[12:], d)
		return h
	}
	for _, tc := range []struct {
		name   string
		hdr    []byte
		length int
	}{
		{"short header", make([]byte, HeaderSize-1), 40},
		{"length below header", hdr(1, 1), HeaderSize - 1},
		{"zero points", hdr(0, 2), HeaderSize},
		{"zero dims", hdr(2, 0), HeaderSize + 16},
		{"one byte short", hdr(2, 2), HeaderSize + 47},
		{"one cell long", hdr(2, 2), HeaderSize + 56},
		{"wrapping product", craftedHeader(), HeaderSize},
		{"max fields", hdr(0xFFFFFFFF, 0xFFFFFFFF), HeaderSize + 8},
	} {
		if _, _, _, err := Shape(tc.hdr, tc.length); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, n, d, err := Shape(hdr(2, 2), HeaderSize+48); err != nil || n != 2 || d != 2 {
		t.Fatalf("exact shape refused: n=%d d=%d err=%v", n, d, err)
	}
}

// TestCraftedHeaderAllocatesNothing is the OOM regression at its root: the
// decoder must refuse the wrapping header before sizing anything by it.
func TestCraftedHeaderAllocatesNothing(t *testing.T) {
	body := craftedHeader()
	rec := binary.LittleEndian.AppendUint32(bytes.Clone(body), Checksum(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errBody := Decode(body)
	_, errRec := DecodeRecord(rec)
	runtime.ReadMemStats(&after)
	if errBody == nil || errRec == nil {
		t.Fatalf("crafted header accepted: %v / %v", errBody, errRec)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing a %d-byte input allocated %d bytes", len(rec), grew)
	}
}

// FuzzCodecDecode hammers both decoders with arbitrary bytes: never a
// panic, and an accepted input is a coherent object whose re-encoding is a
// fixed point (byte-equal to the input whenever the input already lists its
// points in the descending-membership order fuzzy.New imposes).
func FuzzCodecDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 1))
	valid := AppendRecord(nil, randObject(rng, 7, 20, 2))
	f.Add(valid)
	f.Add(valid[:len(valid)-CRCSize])
	for i := 0; i < 4; i++ {
		mut := bytes.Clone(valid)
		mut[rng.IntN(len(mut))] ^= byte(1 + rng.IntN(255))
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(valid[:20])
	f.Add(craftedHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		if o, err := DecodeRecord(data); err == nil {
			if got := AppendRecord(nil, o); len(got) != len(data) {
				t.Fatalf("record re-encodes to %d bytes from %d", len(got), len(data))
			}
		}
		o, err := Decode(data)
		if err != nil {
			return
		}
		if o.Len() == 0 || Size(o) != len(data) {
			t.Fatalf("accepted an incoherent object: n=%d d=%d from %d bytes", o.Len(), o.Dims(), len(data))
		}
		again := Append(nil, o)
		o2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !bytes.Equal(Append(nil, o2), again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// FuzzCodecRoundTrip checks encode→decode is the identity for arbitrary
// valid object shapes derived from the fuzz input.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(1), 5, 2, int64(12345))
	f.Add(uint64(999), 100, 2, int64(777))
	f.Add(uint64(0), 1, 7, int64(-1))
	f.Fuzz(func(t *testing.T, id uint64, n, d int, seed int64) {
		if n < 1 || n > 2048 || d < 1 || d > 16 {
			return
		}
		o := randObject(rand.New(rand.NewPCG(uint64(seed), 3)), id, n, d)
		rec := AppendRecord(nil, o)
		got, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		sameObject(t, o, got)
		if !bytes.Equal(AppendRecord(nil, got), rec) {
			t.Fatal("decode→encode changed the bytes")
		}
	})
}

var sink *fuzzy.Object

// BenchmarkDecodeRecord is the decode half of every DiskStore.Get and
// LogStore.Get — the paper's unit of cost. Its allocs/op pin the slab
// decode: 2 (points + coordinate slab) on top of fuzzy.New's own, where the
// per-point decoder this replaced paid n+1.
func BenchmarkDecodeRecord(b *testing.B) {
	rec := AppendRecord(nil, randObject(rand.New(rand.NewPCG(5, 5)), 1, 100, 2))
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := DecodeRecord(rec)
		if err != nil {
			b.Fatal(err)
		}
		sink = o
	}
}
