package store

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/dataset"
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
		mu := rng.Float64()
		if mu == 0 {
			mu = 0.5
		}
		pts[i] = fuzzy.WeightedPoint{P: p, Mu: mu}
	}
	pts[0].Mu = 1
	return fuzzy.MustNew(id, pts)
}

// insertOne and deleteOne are a group of one through the store's only
// write; the error is ApplyBatch's own (an *ItemError for a refused item).
func insertOne(m Mutator, o *fuzzy.Object) error {
	return m.ApplyBatch([]*fuzzy.Object{o}, nil)
}

func deleteOne(m Mutator, id uint64) error {
	return m.ApplyBatch(nil, []uint64{id})
}

func sameObject(t *testing.T, a, b *fuzzy.Object) {
	t.Helper()
	if a.ID() != b.ID() || a.Len() != b.Len() || a.Dims() != b.Dims() {
		t.Fatalf("object shape mismatch: %v vs %v", a, b)
	}
	for i := 0; i < a.Len(); i++ {
		pa, ma := a.At(i)
		pb, mb := b.At(i)
		if !pa.Equal(pb) || ma != mb {
			t.Fatalf("point %d mismatch", i)
		}
	}
}

func TestMemStore(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	objs := []*fuzzy.Object{
		randObject(rng, 1, 10, 2),
		randObject(rng, 2, 20, 2),
		randObject(rng, 5, 5, 2),
	}
	m, err := NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", m.Len(), m.Dims())
	}
	ids := m.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 5 {
		t.Fatalf("IDs = %v", ids)
	}
	got, err := m.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	sameObject(t, objs[1], got)
	if _, err := m.Get(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(99) err = %v", err)
	}
}

func TestMemStoreRejectsDuplicatesAndMixedDims(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a := randObject(rng, 1, 5, 2)
	if _, err := NewMemStore([]*fuzzy.Object{a, randObject(rng, 1, 5, 2)}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if _, err := NewMemStore([]*fuzzy.Object{a, randObject(rng, 2, 5, 3)}); err == nil {
		t.Fatal("mixed dims accepted")
	}
}

func TestDiskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	path := filepath.Join(t.TempDir(), "objects.fzs")
	var objs []*fuzzy.Object
	for i := 0; i < 50; i++ {
		objs = append(objs, randObject(rng, uint64(i*7+1), 1+rng.IntN(100), 2))
	}
	if err := WriteAll(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(objs) || s.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", s.Len(), s.Dims())
	}
	for _, o := range objs {
		got, err := s.Get(o.ID())
		if err != nil {
			t.Fatalf("Get(%d): %v", o.ID(), err)
		}
		sameObject(t, o, got)
	}
	if _, err := s.Get(424242); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing id err = %v", err)
	}
}

func TestWriterRejectsBadAppends(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	path := filepath.Join(t.TempDir(), "w.fzs")
	w, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := randObject(rng, 1, 5, 2)
	if err := w.Append(o); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(o); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := w.Append(randObject(rng, 2, 5, 3)); err == nil {
		t.Fatal("wrong dims accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterBuffers: Append writes through the Writer's buffer with its one
// record buffer — no allocation of its own per object — and an error met
// when the buffer is flushed comes back from Close.
func TestWriterBuffers(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	objs := make([]*fuzzy.Object, 201)
	for i := range objs {
		objs[i] = randObject(rng, uint64(i+1), 64, 2)
	}
	w, err := Create(filepath.Join(t.TempDir(), "w.fzs"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(objs[0]); err != nil {
		t.Fatal(err)
	}
	next := 1
	// What is left is the directory's and the id set's growth.
	if n := testing.AllocsPerRun(len(objs)-2, func() {
		if err := w.Append(objs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n > 0.5 {
		t.Errorf("Append allocates %v times per object, want ≤ 0.5", n)
	}
	if err := w.f.Close(); err != nil { // the buffered records can no longer land
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported no error for records it could not write")
	}
}

func TestCreateRejectsBadDims(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("dims 0 accepted")
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.fzs")
	if err := WriteAll(path, 2, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	dir := t.TempDir()
	good := filepath.Join(dir, "good.fzs")
	if err := WriteAll(good, 2, []*fuzzy.Object{randObject(rng, 1, 20, 2)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"bad header magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xFF
			return c
		},
		"bad version": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8] = 99
			return c
		},
		"truncated": func(b []byte) []byte {
			return b[:len(b)/2]
		},
		"bad footer magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xFF
			return c
		},
		"tiny file": func([]byte) []byte {
			return []byte("FZKNNST1")
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".fzs")
			if err := os.WriteFile(p, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestGetDetectsRecordCorruption(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	path := filepath.Join(t.TempDir(), "c.fzs")
	if err := WriteAll(path, 2, []*fuzzy.Object{randObject(rng, 1, 20, 2)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the record payload (after the header).
	data[headerSize+20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err) // directory still fine
	}
	defer s.Close()
	if _, err := s.Get(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt record = %v, want ErrCorrupt", err)
	}
}

func TestCountingWrapper(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	m, _ := NewMemStore([]*fuzzy.Object{randObject(rng, 1, 5, 2)})
	c := NewCounting(m)
	if c.Count() != 0 {
		t.Fatal("fresh counter not zero")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(99) // errors still count as probes
	if c.Count() != 6 {
		t.Fatalf("Count = %d, want 6", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestCountingConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	m, _ := NewMemStore([]*fuzzy.Object{randObject(rng, 1, 5, 2)})
	c := NewCounting(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Get(1)
			}
		}()
	}
	wg.Wait()
	if c.Count() != 800 {
		t.Fatalf("Count = %d, want 800", c.Count())
	}
}

func TestLRUCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	var objs []*fuzzy.Object
	for i := 1; i <= 4; i++ {
		objs = append(objs, randObject(rng, uint64(i), 5, 2))
	}
	m, _ := NewMemStore(objs)
	counted := NewCounting(m)
	l := NewLRU(counted, 2)

	l.Get(1)
	l.Get(2)
	l.Get(1) // hit
	l.Get(3) // evicts 2
	l.Get(2) // miss again
	hits, misses := l.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4", hits, misses)
	}
	if counted.Count() != 4 {
		t.Fatalf("inner accesses = %d, want 4", counted.Count())
	}
	// Errors are not cached.
	if _, err := l.Get(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(99) = %v", err)
	}
	if l.Len() != 4 || l.Dims() != 2 || len(l.IDs()) != 4 {
		t.Fatal("LRU should delegate metadata to inner reader")
	}
}

func TestLRUBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLRU(nil, 0)
}

func TestDiskStoreConcurrentGets(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	path := filepath.Join(t.TempDir(), "conc.fzs")
	var objs []*fuzzy.Object
	for i := 0; i < 20; i++ {
		objs = append(objs, randObject(rng, uint64(i+1), 50, 2))
	}
	if err := WriteAll(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < 100; i++ {
				id := uint64(r.IntN(20) + 1)
				if _, err := s.Get(id); err != nil {
					errCh <- err
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOpenRejectsCraftedDirectory: a directory is untrusted input. Both
// reproducers panicked at the parent of this test — a length no buffer can
// hold reached readObject's make, and a count whose byte size wraps to 0
// passed the bounds equation and sized the directory map.
func TestOpenRejectsCraftedDirectory(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	path := filepath.Join(t.TempDir(), "crafted.fzs")
	if err := WriteAll(path, 2, []*fuzzy.Object{randObject(rng, 1, 10, 2)}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := len(valid) - footerSize
	ent := foot - dirEntSize
	recLen := binary.LittleEndian.Uint64(valid[ent+16:])
	for _, tc := range []struct {
		name string
		at   int
		v    uint64
		also func(img []byte)
	}{
		{"entry length 1<<62", ent + 16, 1 << 62, nil},
		{"entry length one past the directory", ent + 16, recLen + 1, nil},
		{"entry length below a record", ent + 16, codec.HeaderSize + codec.CRCSize - 1, nil},
		{"entry offset inside the header", ent + 8, headerSize - 1, nil},
		{"entry offset+length wraps", ent + 8, 1<<64 - 8, nil},
		{"count whose size wraps to 0", foot + 8, 1 << 61, func(img []byte) {
			binary.LittleEndian.PutUint64(img[foot:], uint64(foot))
		}},
	} {
		img := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(img[tc.at:], tc.v)
		if tc.also != nil {
			tc.also(img)
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// benchObjects generates objects of the fuzzyload benchmark's shape (§6.1,
// 128 points, d=2): one membership level per point.
func benchObjects(tb testing.TB, n int) []*fuzzy.Object {
	p := dataset.Default(dataset.Synthetic)
	p.N, p.PointsPerObject = n, 128
	objs, err := dataset.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return objs
}

func benchDiskStore(tb testing.TB, objs []*fuzzy.Object) Reader {
	path := filepath.Join(tb.TempDir(), "bench.fzs")
	if err := WriteAll(path, 2, objs); err != nil {
		tb.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

func benchLogStore(tb testing.TB, objs []*fuzzy.Object) Reader {
	s, err := OpenLogPolicy(filepath.Join(tb.TempDir(), "bench.fzl"), 2, SyncOff)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if err := s.ApplyBatch(objs, nil); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestGetAllocs pins what a probe allocates: the payload slab and the
// object header — no slice per point, no per-level arrays. The record
// buffer is pooled, so the bound leaves room for the race runtime dropping
// a pool put.
func TestGetAllocs(t *testing.T) {
	objs := benchObjects(t, 8)
	for name, s := range map[string]Reader{"disk": benchDiskStore(t, objs), "log": benchLogStore(t, objs)} {
		id := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			id = id%uint64(len(objs)) + 1
			if _, err := s.Get(id); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: Get allocates %.0f times, want ≤ 4", name, allocs)
		}
	}
}

func benchmarkStoreGet(b *testing.B, open func(testing.TB, []*fuzzy.Object) Reader) {
	const n = 2000
	s := open(b, benchObjects(b, n))
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(uint64(rng.IntN(n) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreGetDisk(b *testing.B) { benchmarkStoreGet(b, benchDiskStore) }
func BenchmarkStoreGetLog(b *testing.B)  { benchmarkStoreGet(b, benchLogStore) }
