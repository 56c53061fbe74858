package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/store"
)

// pagedPair is one equivalence fixture: the same dataset served fully
// in-memory and through a page file with a deliberately tiny block cache,
// at the same shard count.
type pagedPair struct {
	objs    []*fuzzy.Object
	mem     Searcher
	paged   Searcher
	closers []interface{ Close() error }
}

func (p *pagedPair) close() {
	for _, c := range p.closers {
		c.Close()
	}
}

// tinyCache forces mid-query evictions: room for three pages per shard on
// trees dozens of pages deep.
const tinyCache = 3 * pager.PageAlign

func newPagedPair(t testing.TB, seed uint64, n, shards int, cacheBytes int64) *pagedPair {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	objs := makeObjects(rng, n, 10, 12, 8)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinEntries: 2, MaxEntries: 4}
	dir := t.TempDir()
	p := &pagedPair{objs: objs}
	if shards <= 1 {
		ix, err := Build(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "index.fzp")
		if err := ix.SavePaged(path); err != nil {
			t.Fatal(err)
		}
		px, err := OpenPagedIndex(ms, path, cacheBytes, -1, opts)
		if err != nil {
			t.Fatal(err)
		}
		p.mem, p.paged = ix, px
		p.closers = append(p.closers, px)
		return p
	}
	sx, err := BuildSharded(ms, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	pagedShards := make([]*Index, shards)
	for i := 0; i < shards; i++ {
		sh := sx.Shard(i)
		path := filepath.Join(dir, "index.fzp.shard"+string(rune('0'+i)))
		if err := sh.SavePaged(path); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		px, err := OpenPagedIndex(ms, path, cacheBytes, sh.Len(), opts)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		pagedShards[i] = px.Index
		p.closers = append(p.closers, px)
	}
	psx, err := NewSharded(pagedShards)
	if err != nil {
		t.Fatal(err)
	}
	p.mem, p.paged = sx, psx
	return p
}

// assertSameAnswers compares results and logical cost counters between the
// in-memory and paged runs of one query. The paged side must return
// byte-identical answers, visit the same nodes and probe the same objects —
// block-cache activity shows up only in the page counters.
func assertSameAnswers[R any](t *testing.T, label string, want, got []R, wantSt, gotSt Stats) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: paged answers differ\n mem: %+v\npaged: %+v", label, want, got)
	}
	if wantSt.NodeAccesses != gotSt.NodeAccesses {
		t.Fatalf("%s: node accesses %d (mem) vs %d (paged)", label, wantSt.NodeAccesses, gotSt.NodeAccesses)
	}
	if wantSt.ObjectAccesses != gotSt.ObjectAccesses {
		t.Fatalf("%s: object accesses %d (mem) vs %d (paged) — cache activity must not change the paper's accounting", label, wantSt.ObjectAccesses, gotSt.ObjectAccesses)
	}
	if wantSt.DistanceEvals != gotSt.DistanceEvals {
		t.Fatalf("%s: distance evals %d (mem) vs %d (paged)", label, wantSt.DistanceEvals, gotSt.DistanceEvals)
	}
	if wantSt.PageReads != 0 || wantSt.PageCacheHits != 0 {
		t.Fatalf("%s: in-memory run charged page I/O: %+v", label, wantSt)
	}
}

// TestPagedOpenReadsNoObjects pins what the page file is for: opening it
// costs no store probe at all (a scan-built open probes every object), and
// what it decodes is, leaf record for leaf record, the summary the build
// computed — bitwise, since answers are compared byte for byte.
func TestPagedOpenReadsNoObjects(t *testing.T) {
	rng := rand.New(rand.NewPCG(503, 2))
	ms, err := store.NewMemStore(makeObjects(rng, 60, 12, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(ms, Options{MinEntries: 2, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.fzp")
	if err := built.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(ms)
	px, err := OpenPagedIndex(counting, path, tinyCache, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	if n := counting.Count(); n != 0 {
		t.Fatalf("opening the page file read %d objects from the store", n)
	}
	leaves := func(ix *Index) map[uint64][]float64 {
		out := make(map[uint64][]float64)
		var walk func(n *rtree.Node)
		walk = func(n *rtree.Node) {
			n = n.Resolve()
			for i := 0; i < n.Len(); i++ {
				if n.Leaf() {
					box, sum := n.EntrySummary(i)
					out[n.ID(i)] = append(slices.Clone(box), sum...)
				} else {
					walk(n.Child(i))
				}
			}
		}
		walk(ix.treeForTest().Root())
		return out
	}
	want, got := leaves(built), leaves(px.Index)
	if len(want) != 60 || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded leaf summaries differ from the built ones (%d built, %d decoded)", len(want), len(got))
	}
}

// TestPagedEmptyIndex round-trips the degenerate tree: an index over no
// objects saves, reopens over an empty store and answers with nothing.
func TestPagedEmptyIndex(t *testing.T) {
	ms, err := store.NewMemStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.fzp")
	if err := ix.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	px, err := OpenPagedIndex(ms, path, tinyCache, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	if px.Len() != 0 {
		t.Fatalf("Len = %d", px.Len())
	}
	q := makeQuery(rand.New(rand.NewPCG(1, 1)), 8, 10, 4)
	if res, _, err := px.AKNN(q, 3, 0.5, LBLPUB); err != nil || len(res) != 0 {
		t.Fatalf("AKNN over the empty paged index: %v, %v", res, err)
	}
}

// TestPagedIndexIsReadOnly: a paged tree's shape is bound to its page file,
// so every write — a group, or the one-item sugar — is refused before
// anything moves, on one tree and behind the sharded coordinator alike,
// even though the pair's backing MemStore would take the write.
func TestPagedIndexIsReadOnly(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := newPagedPair(t, 5, 40, shards, tinyCache)
			defer p.close()
			o := makeObjectsWithBase(rand.New(rand.NewPCG(1, 2)), 9000, 1, 8, 12, 8)[0]
			writes := map[string]func() error{
				"Insert": func() error { _, err := Insert(p.paged, o); return err },
				"Delete": func() error { _, err := Delete(p.paged, 1); return err },
				"ApplyBatch insert": func() error {
					_, err := p.paged.ApplyBatch([]*fuzzy.Object{o}, nil)
					return err
				},
				"ApplyBatch mixed": func() error {
					_, err := p.paged.ApplyBatch([]*fuzzy.Object{o}, []uint64{1, 2, 3})
					return err
				},
			}
			for name, write := range writes {
				if err := write(); !errors.Is(err, store.ErrReadOnly) {
					t.Errorf("%s: %v, want ErrReadOnly", name, err)
				}
				if got := p.paged.Len(); got != 40 {
					t.Errorf("%s: Len = %d after a refused write, want 40", name, got)
				}
				if err := p.paged.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
					t.Errorf("%s: CheckInvariants after a refused write: %v", name, err)
				}
			}
		})
	}
}

// TestPagedResave covers saving a page file from an already-paged index
// (stub resolution during the save walk): the second generation must serve
// the same answers.
func TestPagedResave(t *testing.T) {
	p := newPagedPair(t, 9, 60, 1, tinyCache)
	defer p.close()
	px := p.paged.(*PagedIndex)
	path2 := filepath.Join(t.TempDir(), "resaved.fzp")
	if err := px.SavePaged(path2); err != nil {
		t.Fatal(err)
	}
	ms := pagedStoreOf(t, p)
	px2, err := OpenPagedIndex(ms, path2, tinyCache, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px2.Close()
	if g := px2.Generation(); g != 1 {
		t.Fatalf("fresh path generation %d, want 1", g)
	}
	q := makeQuery(rand.New(rand.NewPCG(3, 4)), 12, 12, 8)
	want, _, err := p.mem.AKNN(q, 5, 0.5, Basic)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := px2.AKNN(q, 5, 0.5, Basic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resaved index answers differ:\n%+v\n%+v", want, got)
	}
}

// pagedStoreOf digs the fixture's store back out via the index under test.
func pagedStoreOf(t *testing.T, p *pagedPair) store.Reader {
	t.Helper()
	return p.paged.(*PagedIndex).Index.store
}

func TestPagedMismatchRejected(t *testing.T) {
	p := newPagedPair(t, 13, 30, 1, tinyCache)
	defer p.close()
	path := filepath.Join(t.TempDir(), "other.fzp")
	if err := p.mem.(*Index).SavePaged(path); err != nil {
		t.Fatal(err)
	}
	// A store with a different population must be rejected.
	other, err := store.NewMemStore(makeObjects(rand.New(rand.NewPCG(8, 8)), 7, 8, 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPagedIndex(other, path, tinyCache, -1, Options{}); !errors.Is(err, ErrPagedMismatch) {
		t.Fatalf("mismatched store: %v, want ErrPagedMismatch", err)
	}
}

// TestPagedCorruptionFailsLoudly flips one payload byte in a non-root page:
// opening still succeeds (the root is intact), but any query that touches
// the damaged page must return an error — never a silently truncated
// answer.
func TestPagedCorruptionFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	objs := makeObjects(rng, 80, 10, 12, 8)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, Options{MinEntries: 2, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.fzp")
	if err := ix.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	m, err := pager.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	dataPath := pager.PageFilePath(path, m.Generation)
	data, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.PageCount < 3 {
		t.Fatalf("fixture too small: %d pages", m.PageCount)
	}
	data[2*int(m.PageSize)+pager.PageHeaderSize] ^= 0xff // page 2's payload
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	px, err := OpenPagedIndex(ms, path, tinyCache, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	q := makeQuery(rng, 12, 12, 8)
	// The linear scan walks every leaf, so it must cross the bad page.
	if _, _, err := px.LinearScanAKNN(q, 5, 0.5); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("linear scan over corrupt page: %v, want ErrCorrupt", err)
	}
	// The failure is sticky: every later query keeps reporting it.
	if _, _, err := px.AKNN(q, 5, 0.5, Basic); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("AKNN after sticky failure: %v, want ErrCorrupt", err)
	}
	if err := px.CheckInvariants(); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("CheckInvariants: %v, want ErrCorrupt", err)
	}
	// An interior entry's child page must come after its own, so that a
	// corrupt page cannot make a cycle.
	payload := binary.LittleEndian.AppendUint32(make([]byte, interiorRecordSize(2)-4), 3) // one 2-D row, child page 3
	for _, page := range []uint32{3, 4} {
		if _, err := decodePage(nil, 2, fuzzy.SummaryLen(2), 10, page, 0, 1, payload); !errors.Is(err, pager.ErrCorrupt) {
			t.Errorf("page %d with child page 3: %v, want ErrCorrupt", page, err)
		}
	}
}

// FuzzPagedReopen feeds arbitrary page-file and manifest bytes into
// OpenPagedIndex: every outcome must be a typed error or a queryable index,
// never a panic. Seeds mutate every manifest field (one per u32/u64 slot
// plus magic and checksum) and truncate the page file at page boundaries.
func FuzzPagedReopen(f *testing.F) {
	rng := rand.New(rand.NewPCG(31, 32))
	objs := makeObjects(rng, 24, 8, 12, 8)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := Build(ms, Options{MinEntries: 2, MaxEntries: 4})
	if err != nil {
		f.Fatal(err)
	}
	base := filepath.Join(f.TempDir(), "seed.fzp")
	if err := ix.SavePaged(base); err != nil {
		f.Fatal(err)
	}
	manBytes, err := os.ReadFile(pager.ManifestPath(base))
	if err != nil {
		f.Fatal(err)
	}
	m, err := pager.ReadManifest(base)
	if err != nil {
		f.Fatal(err)
	}
	pageBytes, err := os.ReadFile(pager.PageFilePath(base, m.Generation))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(pageBytes, manBytes) // the intact generation
	// One seed per manifest field: magic, version, pageSize, pageCount,
	// rootPage, dims, height, minEntries, maxEntries, generation, objects,
	// and the trailing checksum.
	for _, off := range []int{0, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56} {
		mut := append([]byte(nil), manBytes...)
		mut[off] ^= 0xff
		f.Add(pageBytes, mut)
	}
	// Truncations at every page boundary, including the empty file.
	for n := 0; n <= int(m.PageCount); n++ {
		f.Add(append([]byte(nil), pageBytes[:n*int(m.PageSize)]...), manBytes)
	}
	// A torn write inside one page.
	flip := append([]byte(nil), pageBytes...)
	flip[int(m.PageSize)+pager.PageHeaderSize+3] ^= 0x80
	f.Add(flip, manBytes)

	q := makeQuery(rng, 8, 12, 8)
	f.Fuzz(func(t *testing.T, page, man []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.fzp")
		// The fuzzed manifest decides which generation file Open looks for;
		// place the page bytes at every generation named by any seed (the
		// intact manifest says gen 1, mutated ones may say anything — a
		// missing data file is just an open error, also a fine outcome).
		if err := os.WriteFile(pager.PageFilePath(path, 1), page, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pager.ManifestPath(path), man, 0o644); err != nil {
			t.Fatal(err)
		}
		px, err := OpenPagedIndex(ms, path, tinyCache, -1, Options{})
		if err != nil {
			// A mutated generation field points at a data file that was
			// never written — a plain not-exist error, equally typed.
			if !errors.Is(err, pager.ErrCorrupt) && !errors.Is(err, ErrPagedMismatch) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		defer px.Close()
		// The file opened: queries may fail loudly (CRC-collision pages,
		// dangling object ids) but must never panic or hang; bounded
		// traversals are guaranteed by the forward-only child check.
		if res, _, err := px.AKNN(q, 3, 0.5, Basic); err == nil {
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					t.Fatalf("unsorted AKNN answer from accepted file: %+v", res)
				}
			}
		}
		_, _, _ = px.RKNN(q, 2, 0.3, 0.7, RSSICR)
		_ = px.CheckInvariants()
	})
}

// BenchmarkPagedAKNN measures paged query latency as the block cache
// shrinks from holding the whole index to 5% of it, against the in-memory
// tree as the reference. CI's bench gate watches the warm full-cache case.
func BenchmarkPagedAKNN(b *testing.B) {
	rng := rand.New(rand.NewPCG(77, 78))
	objs := makeObjects(rng, 2000, 8, 100, 0)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.fzp")
	if err := ix.SavePaged(path); err != nil {
		b.Fatal(err)
	}
	m, err := pager.ReadManifest(path)
	if err != nil {
		b.Fatal(err)
	}
	total := int64(m.PageCount) * int64(m.PageSize)
	q := makeQuery(rng, 8, 100, 0)

	run := func(b *testing.B, s Searcher) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.AKNN(q, 10, 0.5, LBLPUB); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mem", func(b *testing.B) { run(b, ix) })
	for _, c := range []struct {
		name string
		pct  int64
	}{{"cache=100pct", 100}, {"cache=25pct", 25}, {"cache=5pct", 5}} {
		b.Run(c.name, func(b *testing.B) {
			px, err := OpenPagedIndex(ms, path, total*c.pct/100, -1, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer px.Close()
			if _, _, err := px.AKNN(q, 10, 0.5, LBLPUB); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, px)
			b.StopTimer()
			cs, _ := px.CacheStats()
			if cs.Hits+cs.Misses > 0 {
				b.ReportMetric(float64(cs.Hits)/float64(cs.Hits+cs.Misses), "hit-ratio")
			}
		})
	}
}

// leafPageOf saves ix to a page file and returns its fullest leaf page, raw,
// with the arguments decodePage needs beside it.
func leafPageOf(t testing.TB, ix *Index) (m pager.Manifest, page uint32, flags, count uint16, payload []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "leaf.fzp")
	if err := ix.SavePaged(path); err != nil {
		t.Fatal(err)
	}
	f, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m = f.Manifest()
	for pg := uint32(0); pg < m.PageCount; pg++ {
		fl, n, pl, err := f.ReadPage(pg, make([]byte, m.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if fl&pager.LeafPage != 0 && n > count {
			page, flags, count, payload = pg, fl, n, pl
		}
	}
	return m, page, flags, count, payload
}

// TestDecodePageAllocs pins leaf page decoding at three allocations per
// page — the ids, the rows the frame adopts as its slab and the node —
// however many entries the page holds.
func TestDecodePageAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	ms, err := store.NewMemStore(makeObjects(rng, 400, 8, 12, 0))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, page, flags, count, payload := leafPageOf(t, ix)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := decodePage(nil, int(m.Dims), summaryLen(int(m.Dims), m.Version), m.PageCount, page, flags, count, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("decoding a leaf page of %d entries allocates %.0f times, want ≤ 3 (ids, rows, node)", count, allocs)
	}
}

// BenchmarkDecodePage is what a block-cache miss costs after the read: one
// leaf page of a default-fan-out tree decoded into a node frame.
func BenchmarkDecodePage(b *testing.B) {
	rng := rand.New(rand.NewPCG(79, 80))
	ms, err := store.NewMemStore(makeObjects(rng, 2000, 8, 12, 0))
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(ms, Options{})
	if err != nil {
		b.Fatal(err)
	}
	m, page, flags, count, payload := leafPageOf(b, ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePage(nil, int(m.Dims), summaryLen(int(m.Dims), m.Version), m.PageCount, page, flags, count, payload); err != nil {
			b.Fatal(err)
		}
	}
}
