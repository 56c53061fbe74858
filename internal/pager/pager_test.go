package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fuzzyknn/internal/rtree"
)

// writePages commits a generation of n one-entry leaf pages at path and
// returns the opened file.
func writePages(t *testing.T, path string, n int) *File {
	t.Helper()
	w, err := NewWriter(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.WritePage(LeafPage, 1, []byte{byte(i), 0xab, 0xcd}); err != nil {
			t.Fatal(err)
		}
	}
	err = w.Commit(Manifest{RootPage: 0, Dims: 2, Height: 1, MinEntries: 1, MaxEntries: 2, Objects: uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 5)
	defer f.Close()

	m := f.Manifest()
	if m.PageSize != PageAlign {
		t.Fatalf("page size %d, want %d (rounded)", m.PageSize, PageAlign)
	}
	if m.PageCount != 5 || m.Generation != 1 || m.Objects != 5 {
		t.Fatalf("manifest %+v", m)
	}
	buf := make([]byte, m.PageSize)
	for page := uint32(0); page < m.PageCount; page++ {
		flags, count, payload, err := f.ReadPage(page, buf)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		if flags != LeafPage || count != 1 {
			t.Fatalf("page %d: flags %d count %d", page, flags, count)
		}
		if payload[0] != byte(page) || payload[1] != 0xab || payload[2] != 0xcd {
			t.Fatalf("page %d: payload %v", page, payload[:4])
		}
	}
	if _, _, _, err := f.ReadPage(5, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range read: %v", err)
	}
}

func TestCommitBumpsGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	for want := uint64(1); want <= 3; want++ {
		f := writePages(t, path, 2)
		if g := f.Manifest().Generation; g != want {
			t.Fatalf("generation %d, want %d", g, want)
		}
		f.Close()
	}
}

func TestWriterRejectsOversizedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	w, err := NewWriter(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if _, err := w.WritePage(0, 1, make([]byte, PageAlign)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// The writer is poisoned: commit must fail and publish nothing.
	if err := w.Commit(Manifest{RootPage: 0, Dims: 2, Height: 1, MinEntries: 1, MaxEntries: 2}); err == nil {
		t.Fatal("commit after write error succeeded")
	}
	if _, err := os.Stat(ManifestPath(path)); !os.IsNotExist(err) {
		t.Fatalf("manifest published after abort: %v", err)
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	writePages(t, path, 3).Close()
	orig, err := os.ReadFile(ManifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip anywhere in the manifest must be rejected.
	for off := range orig {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(ManifestPath(path), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: %v", off, err)
		}
	}
	// Truncation too.
	if err := os.WriteFile(ManifestPath(path), orig[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated manifest: %v", err)
	}
	// So are a padded manifest and fields that cannot describe a page
	// file, under checksums that hold.
	good := Manifest{Version: Version, PageSize: PageAlign, PageCount: 3, RootPage: 2, Dims: 2, Height: 2, MinEntries: 2, MaxEntries: 6}
	padded := append(encodeManifest(good)[:manifestSize-4], 0)
	with := func(edit func(*Manifest)) []byte { m := good; edit(&m); return encodeManifest(m) }
	for name, buf := range map[string][]byte{
		"padded":                   binary.LittleEndian.AppendUint32(padded, crc32.ChecksumIEEE(padded)),
		"root past the last page":  with(func(m *Manifest) { m.RootPage = 3 }),
		"min entries above max":    with(func(m *Manifest) { m.MinEntries = 7 }),
		"version below the oldest": with(func(m *Manifest) { m.Version = MinVersion - 1 }),
		"version past the current": with(func(m *Manifest) { m.Version = Version + 1 }),
	} {
		if _, err := decodeManifest(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := decodeManifest(encodeManifest(good)); err != nil {
		t.Fatal(err)
	}
}

func TestPageCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 3)
	f.Close()

	dataPath := PageFilePath(path, 1)
	data, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[PageAlign+PageHeaderSize] ^= 0xff // page 1's first payload byte
	if err := os.WriteFile(dataPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, f.Manifest().PageSize)
	if _, _, _, err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("intact page 0: %v", err)
	}
	if _, _, _, err := f.ReadPage(1, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt page 1: %v", err)
	}

	// A size that disagrees with the manifest fails at Open.
	if err := os.WriteFile(dataPath, data[:2*PageAlign], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated page file: %v", err)
	}
}

// countingDecode returns a fresh frame per call and counts invocations.
func countingDecode(calls *int) DecodeFunc {
	return func(page uint32, flags, count uint16, payload []byte) (*rtree.Node, error) {
		*calls++
		return rtree.NewFrame(true, nil), nil
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 6)
	defer f.Close()

	calls := 0
	c := NewCache(f, 2*int64(PageAlign), countingDecode(&calls)) // room for 2 pages

	n0, hit := c.Load(0)
	if hit || n0 == nil {
		t.Fatalf("first load: hit=%v node=%v", hit, n0)
	}
	if _, hit = c.Load(0); !hit {
		t.Fatal("second load of page 0 missed")
	}
	for page := uint32(1); page < 6; page++ {
		c.Load(page)
	}
	st := c.Stats()
	if st.Misses != 6 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 6 misses 1 hit", st)
	}
	if st.Evictions < 4 {
		t.Fatalf("evictions %d, want >= 4 for 6 pages through a 2-page cache", st.Evictions)
	}
	if st.ResidentBytes > st.CapacityBytes {
		t.Fatalf("resident %d exceeds capacity %d", st.ResidentBytes, st.CapacityBytes)
	}
	if calls != 6 {
		t.Fatalf("decode ran %d times, want 6", calls)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCachePinSurvivesEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 5)
	defer f.Close()

	calls := 0
	c := NewCache(f, int64(PageAlign), countingDecode(&calls)) // 1-page cache
	c.Pin(0)
	c.Load(0)
	for page := uint32(1); page < 5; page++ {
		c.Load(page)
	}
	before := c.Stats().Misses
	if _, hit := c.Load(0); !hit {
		t.Fatal("pinned page 0 was evicted")
	}
	if after := c.Stats().Misses; after != before {
		t.Fatalf("pinned reload missed (misses %d -> %d)", before, after)
	}
	// Once unpinned it becomes evictable again.
	c.Unpin(0)
	for page := uint32(1); page < 5; page++ {
		c.Load(page)
		c.Load(page) // set ref bits so CLOCK rotates past them onto 0
	}
	c.Load(1)
	c.Load(2)
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions through a 1-page cache")
	}
}

func TestCacheSingleflight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 1)
	defer f.Close()

	var mu sync.Mutex
	calls := 0
	c := NewCache(f, int64(PageAlign), func(page uint32, flags, count uint16, payload []byte) (*rtree.Node, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return rtree.NewFrame(true, nil), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, _ := c.Load(0); n == nil {
				t.Error("nil frame")
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("decode ran %d times for one page, want 1 (singleflight)", calls)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses %d, want exactly 1 physical read", st.Misses)
	}
	if st.Hits != 15 {
		t.Fatalf("hits %d, want 15 (waiters and repeats count as hits)", st.Hits)
	}
}

func TestCacheFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 2)
	defer f.Close()

	c := NewCache(f, int64(PageAlign), func(page uint32, flags, count uint16, payload []byte) (*rtree.Node, error) {
		return nil, fmt.Errorf("%w: synthetic decode failure", ErrCorrupt)
	})
	n, hit := c.Load(0)
	if n == nil {
		t.Fatal("failed load must degrade to a frame, not nil")
	}
	if hit {
		t.Fatal("failed load reported as hit")
	}
	if n.Len() != 0 || !n.Leaf() {
		t.Fatal("degraded frame is not an empty leaf")
	}
	if err := c.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", err)
	}
	// Out-of-range pages trip the same fail-stop.
	c2 := NewCache(f, int64(PageAlign), countingDecode(new(int)))
	c2.Load(99)
	if err := c2.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range Err() = %v", err)
	}
}
