package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
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

// sameObject demands structural equality: points and memberships in At
// order, the levels, the cut and MBR at every level, and Rep.
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
	la, lb := a.AppendLevels(nil), b.AppendLevels(nil)
	if !slices.Equal(la, lb) {
		t.Fatalf("levels changed: %v vs %v", la, lb)
	}
	for _, u := range la {
		if a.CutSize(u) != b.CutSize(u) || !a.MBR(u).Equal(b.MBR(u)) {
			t.Fatalf("cut at level %v changed: %d points in %v vs %d in %v", u, a.CutSize(u), a.MBR(u), b.CutSize(u), b.MBR(u))
		}
	}
	if !a.Rep().Equal(b.Rep()) {
		t.Fatalf("Rep changed: %v vs %v", a.Rep(), b.Rep())
	}
}

// pointsOf parses a body the slow way — one point at a time, in body order
// — for fuzzy.New to validate and sort: the reference Decode's one-pass
// slab path is held against.
func pointsOf(t *testing.T, body []byte) (uint64, []fuzzy.WeightedPoint) {
	t.Helper()
	id, n, d, err := Shape(body, len(body))
	if err != nil {
		t.Fatal(err)
	}
	f64 := func(cell int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(body[HeaderSize+8*cell:]))
	}
	pts := make([]fuzzy.WeightedPoint, n)
	for i := range pts {
		pts[i].P = make(geom.Point, d)
		for j := range pts[i].P {
			pts[i].P[j] = f64(i*d + j)
		}
		pts[i].Mu = f64(n*d + i)
	}
	return id, pts
}

// bodyOf lays out points in the given order, as a foreign writer might.
func bodyOf(id uint64, pts []fuzzy.WeightedPoint) []byte {
	b := binary.LittleEndian.AppendUint64(nil, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pts)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pts[0].P)))
	for _, wp := range pts {
		for _, c := range wp.P {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
		}
	}
	for _, wp := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(wp.Mu))
	}
	return b
}

// TestDecodeEqualsNew: a body decodes to the object fuzzy.New builds from
// the same points in the same order — with tied memberships (ties keep body
// order), and for a foreign body that is not sorted at all.
func TestDecodeEqualsNew(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 60; iter++ {
		n, d := 1+rng.IntN(50), 1+rng.IntN(4)
		pts := make([]fuzzy.WeightedPoint, n)
		for i := range pts {
			pts[i].P = make(geom.Point, d)
			for j := range pts[i].P {
				pts[i].P[j] = rng.Float64() * 100
			}
			pts[i].Mu = float64(1+rng.IntN(5)) / 5 // five levels: ties everywhere
		}
		pts[rng.IntN(n)].Mu = 1
		want := fuzzy.MustNew(uint64(iter), pts)

		foreign := bodyOf(uint64(iter), pts) // unsorted
		got, err := Decode(foreign)
		if err != nil {
			t.Fatal(err)
		}
		sameObject(t, want, got)

		own := Append(nil, want) // sorted: the slabs are kept as decoded
		if got, err = Decode(own); err != nil {
			t.Fatal(err)
		}
		sameObject(t, want, got)
		if !bytes.Equal(Append(nil, got), own) {
			t.Fatal("decode→encode changed the bytes")
		}
	}
}

// TestDecodeRefusesNonFiniteCoordinates: the decode boundary of the store,
// log replay, checkpoint load and replication apply.
func TestDecodeRefusesNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		body := bodyOf(1, []fuzzy.WeightedPoint{{P: geom.Point{0, 0}, Mu: 1}, {P: geom.Point{1, bad}, Mu: 0.5}})
		if _, err := Decode(body); !errors.Is(err, fuzzy.ErrBadCoord) {
			t.Errorf("coordinate %v: Decode = %v, want ErrBadCoord", bad, err)
		}
		rec := binary.LittleEndian.AppendUint32(body, Checksum(body))
		if _, err := DecodeRecord(rec); !errors.Is(err, fuzzy.ErrBadCoord) {
			t.Errorf("coordinate %v: DecodeRecord = %v, want ErrBadCoord", bad, err)
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
// panic; Decode accepts exactly the bodies fuzzy.New accepts point by point
// and builds the same object; and an accepted input is a coherent object
// whose re-encoding is a fixed point (byte-equal to the input whenever the
// input already lists its points in the descending-membership order
// fuzzy.New imposes).
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
	unsorted := []fuzzy.WeightedPoint{{P: geom.Point{1, 2}, Mu: 0.5}, {P: geom.Point{3, 4}, Mu: 1}, {P: geom.Point{5, 6}, Mu: 0.5}}
	f.Add(bodyOf(9, unsorted))
	unsorted[0].P[0] = math.Inf(1)
	f.Add(bodyOf(9, unsorted))

	f.Fuzz(func(t *testing.T, data []byte) {
		if o, err := DecodeRecord(data); err == nil {
			if got := AppendRecord(nil, o); len(got) != len(data) {
				t.Fatalf("record re-encodes to %d bytes from %d", len(got), len(data))
			}
		}
		o, err := Decode(data)
		if _, _, _, shapeErr := Shape(data, len(data)); shapeErr == nil {
			id, pts := pointsOf(t, data)
			ref, refErr := fuzzy.New(id, pts)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("Decode: %v, but fuzzy.New on the same points: %v", err, refErr)
			}
			if err == nil {
				sameObject(t, ref, o)
			}
		}
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

// TestDecodeAllocs pins what decoding allocates: the cell slab and the
// object header, whatever the number of points and membership levels.
func TestDecodeAllocs(t *testing.T) {
	body := Append(nil, randObject(rand.New(rand.NewPCG(5, 5)), 1, 128, 2))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Decode allocates %.0f times, want ≤ 2", allocs)
	}
}

// BenchmarkCodecDecode is the decode half of every DiskStore.Get and
// LogStore.Get — the paper's unit of cost — on the benchmark's object shape.
func BenchmarkCodecDecode(b *testing.B) {
	body := Append(nil, randObject(rand.New(rand.NewPCG(5, 5)), 1, 128, 2))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := Decode(body)
		if err != nil {
			b.Fatal(err)
		}
		sink = o
	}
}
