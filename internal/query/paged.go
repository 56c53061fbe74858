package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/pager"
	"fuzzyknn/internal/rtree"
	"fuzzyknn/internal/store"
)

// Paged indexes: the R-tree is serialized into fixed-size CRC'd pages (one
// node per page, ids assigned in pre-order so every child page id exceeds
// its parent's — page graphs are acyclic by construction) and served
// through a block cache. OpenPagedIndex keeps only the root node resident;
// interior entries hold stub nodes that traversals resolve on visit, so
// best-first search faults in exactly the pages its priority order reaches.
//
// A leaf record is the id and the row a leaf entry carries (support MBR and
// flat summary: kernel MBR, boundary lines, representative point, witness
// group, radial line — bitwise identical floats), and interior records are
// the exact entry MBR plus the child's page id. A manifest of version 2
// marks a file whose leaf summaries end at the representative point, one of
// version 3 a file whose summaries end at the witness group. Each is served
// as written: a §3.4 descent from a version-2 row starts at the
// representative, and the cut key of a row of either keys by the box
// alone. Because the serialized tree preserves the in-memory tree
// shape node for node, a paged index returns byte-identical answers and
// identical NodeAccesses counts; only the new PageReads/PageCacheHits stats
// differ from zero.

// ErrPagedMismatch reports a page file that does not describe the given
// store (different dimensionality or object count).
var ErrPagedMismatch = errors.New("query: page file does not match store")

// summaryLen returns the floats of a leaf summary at dimensionality d in a
// page file of manifest version v: rows that end at the representative
// point in version 2 (fuzzy.RepSummaryLen), at the witness group in version
// 3 (fuzzy.WitnessSummaryLen), and the current version's fuzzy.SummaryLen.
func summaryLen(d int, v uint32) int {
	switch v {
	case 2:
		return fuzzy.RepSummaryLen(d)
	case 3:
		return fuzzy.WitnessSummaryLen(d)
	}
	return fuzzy.SummaryLen(d)
}

// leafRecordSize is the fixed per-object record size of leaf pages whose
// summaries are sumLen floats at dimensionality d: the id, then the row.
func leafRecordSize(d, sumLen int) int { return 8 + (2*d+sumLen)*8 }

// interiorRecordSize is the fixed per-entry record size of interior pages:
// the entry MBR plus the child page id.
func interiorRecordSize(d int) int { return 2*d*8 + 4 }

// pagePayloadSize returns the payload capacity one node needs at the given
// dimensionality, leaf summary length and fan-out.
func pagePayloadSize(d, sumLen, maxEntries int) int {
	return max(leafRecordSize(d, sumLen), interiorRecordSize(d)) * maxEntries
}

// SavePaged serializes the current snapshot's R-tree to a page file at path
// (manifest at path+".manifest") via the temp+fsync+rename discipline. The
// saved tree keeps the snapshot's exact shape, so OpenPagedIndex serves
// byte-identical answers with identical node-access counts.
func (ix *Index) SavePaged(path string) error {
	s := ix.read()
	d := s.dims
	tree := s.tree

	// Number nodes in pre-order, resolving any page-backed nodes once and
	// retaining them until their page is written.
	type savedNode struct {
		n        *rtree.Node
		children []uint32
	}
	var nodes []savedNode
	var visit func(n *rtree.Node) uint32
	visit = func(n *rtree.Node) uint32 {
		id := uint32(len(nodes))
		nodes = append(nodes, savedNode{n: n})
		if !n.Leaf() {
			kids := make([]uint32, n.Len())
			for i := range kids {
				kids[i] = visit(n.Child(i).Resolve())
			}
			nodes[id].children = kids
		}
		return id
	}
	visit(tree.Root().Resolve())
	// The rows are written as the tree holds them: a tree opened from an
	// older file saves as the version whose rows it holds.
	version, sumLen := uint32(pager.Version), fuzzy.SummaryLen(d)
	for _, sn := range nodes {
		if sn.n.Leaf() && sn.n.Len() > 0 {
			_, sum := sn.n.EntrySummary(0)
			for v := uint32(pager.MinVersion); v < pager.Version; v++ {
				if len(sum) == summaryLen(d, v) {
					version, sumLen = v, len(sum)
				}
			}
			break
		}
	}

	min, max := ix.opts.MinEntries, tree.MaxEntries()
	if min == 0 {
		min = rtree.DefaultMinEntries
	}
	if min > max {
		min = max
	}
	w, err := pager.NewWriter(path, uint32(pager.PageHeaderSize+pagePayloadSize(d, sumLen, max)))
	if err != nil {
		return err
	}
	payload := make([]byte, 0, pagePayloadSize(d, sumLen, max))
	// A record is the entry's row — its rectangle and, in a leaf, its flat
	// summary — after a leaf's id or before an interior entry's child page.
	appendFloats := func(vs []float64) {
		for _, v := range vs {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	for _, sn := range nodes {
		payload = payload[:0]
		n, flags := sn.n, uint16(0)
		if n.Leaf() {
			flags = pager.LeafPage
		}
		for i := 0; i < n.Len(); i++ {
			box, sum := n.EntrySummary(i)
			if n.Leaf() {
				payload = binary.LittleEndian.AppendUint64(payload, n.ID(i))
			}
			appendFloats(box)
			appendFloats(sum)
			if !n.Leaf() {
				payload = binary.LittleEndian.AppendUint32(payload, sn.children[i])
			}
		}
		if _, err := w.WritePage(flags, uint16(n.Len()), payload); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Commit(pager.Manifest{
		Version:    version,
		RootPage:   0,
		Dims:       uint32(d),
		Height:     uint32(tree.Height()),
		MinEntries: uint32(min),
		MaxEntries: uint32(max),
		Objects:    uint64(tree.Len()),
	})
}

// decodePage turns one page into a node frame. Interior child references
// must point strictly forward (pre-order ids), which makes cycles — and
// therefore unbounded traversals over a corrupt file — structurally
// impossible.
func decodePage(src rtree.NodeSource, d, sumLen int, pageCount uint32, page uint32, flags uint16, count uint16, payload []byte) (*rtree.Node, error) {
	leaf := flags&pager.LeafPage != 0
	rec := interiorRecordSize(d)
	if leaf {
		rec = leafRecordSize(d, sumLen)
	}
	if int(count)*rec > len(payload) {
		return nil, fmt.Errorf("%w: page %d holds %d records of %d bytes beyond its payload", pager.ErrCorrupt, page, count, rec)
	}
	// A record is the entry's row — a leaf's after its id, an interior
	// entry's before its child page — so the records are read straight into
	// the slab the frame adopts: decoding allocates per page, not per entry.
	stride := 2 * d
	if leaf {
		stride += sumLen
	}
	packed := make([]float64, int(count)*stride)
	pos := 0
	readRow := func(i int) {
		for k := range packed[i*stride : (i+1)*stride] {
			packed[i*stride+k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
		}
	}
	if leaf {
		ids := make([]uint64, count)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint64(payload[pos:])
			pos += 8
			readRow(i)
		}
		return rtree.NewLeaf(d, packed, ids), nil
	}
	kids := make([]*rtree.Node, count)
	for i := range kids {
		readRow(i)
		child := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		if child <= page || child >= pageCount {
			return nil, fmt.Errorf("%w: page %d references child page %d (must be in (%d, %d))", pager.ErrCorrupt, page, child, page, pageCount)
		}
		kids[i] = rtree.NewStub(src, child)
	}
	return rtree.NewInterior(d, packed, kids), nil
}

// PagedIndex is an Index served from a page file through a block cache
// instead of a fully resident tree. It implements the complete Searcher
// interface (the query machinery is shared with in-memory indexes via stub
// resolution); mutations are rejected with store.ErrReadOnly. Close
// releases the page file.
type PagedIndex struct {
	*Index
	file *pager.File
}

var _ Searcher = (*PagedIndex)(nil)

// OpenPagedIndex serves the page file at path over st's objects through a
// block cache holding at most cacheBytes of pages. Only the root page is
// loaded (and pinned); everything else faults in on first touch. The store
// must match the page file's dimensionality, and the manifest's object
// count must equal expectObjects (pass -1 for st.Len() — a shard of a
// partitioned index passes its partition's population instead, since the
// store is shared). The node capacities in opts give way to the ones the
// manifest recorded.
func OpenPagedIndex(st store.Reader, path string, cacheBytes int64, expectObjects int, opts Options) (*PagedIndex, error) {
	f, err := pager.Open(path)
	if err != nil {
		return nil, err
	}
	m := f.Manifest()
	if st.Len() > 0 && m.Objects > 0 && int(m.Dims) != st.Dims() {
		f.Close()
		return nil, fmt.Errorf("%w: dims %d vs store %d", ErrPagedMismatch, m.Dims, st.Dims())
	}
	if expectObjects < 0 {
		expectObjects = st.Len()
	}
	if int(m.Objects) != expectObjects {
		f.Close()
		return nil, fmt.Errorf("%w: %d indexed objects for %d expected", ErrPagedMismatch, m.Objects, expectObjects)
	}
	opts.MinEntries, opts.MaxEntries = int(m.MinEntries), int(m.MaxEntries)

	d, sumLen := int(m.Dims), summaryLen(int(m.Dims), m.Version)
	var cache *pager.Cache
	decode := func(page uint32, flags uint16, count uint16, payload []byte) (*rtree.Node, error) {
		return decodePage(cache, d, sumLen, m.PageCount, page, flags, count, payload)
	}
	cache = pager.NewCache(f, cacheBytes, decode)
	cache.Pin(m.RootPage) // the root stays resident for the index lifetime
	root, _ := cache.Load(m.RootPage)
	if err := cache.Err(); err != nil {
		f.Close()
		return nil, err
	}
	tree := rtree.NewPagedTree(root, int(m.Height), int(m.Objects), int(m.MinEntries), int(m.MaxEntries))
	ix := newIndex(tree, st, opts)
	ix.pageCache = cache
	return &PagedIndex{Index: ix, file: f}, nil
}

// Close releases the page file. In-flight queries on old snapshots must
// have drained.
func (p *PagedIndex) Close() error { return p.file.Close() }

// Generation returns the page file generation being served.
func (p *PagedIndex) Generation() uint64 { return p.file.Manifest().Generation }

// resolveNode returns a node's decoded form, charging any page fault to the
// query's stats: a cache miss is one page read, a cache hit is free I/O but
// still recorded so hit ratios are observable per query. In-memory nodes
// cost one nil check.
func resolveNode(n *rtree.Node, st *Stats) *rtree.Node {
	src := n.Source()
	if src == nil {
		return n
	}
	rn, hit := src.Load(n.Page())
	if hit {
		st.PageCacheHits++
	} else {
		st.PageReads++
	}
	return rn
}

// pagedErr surfaces the block cache's sticky failure so a degraded
// traversal (a page that failed its CRC or could not be read resolves to an
// empty node) reports an error instead of a silently truncated answer.
func (ix *Index) pagedErr() error {
	if ix.pageCache == nil {
		return nil
	}
	if err := ix.pageCache.Err(); err != nil {
		return fmt.Errorf("query: paged read failed: %w", err)
	}
	return nil
}

// CacheStats returns the block cache's counters; ok is false for a fully
// resident (non-paged) index.
func (ix *Index) CacheStats() (cs pager.CacheStats, ok bool) {
	if ix.pageCache == nil {
		return cs, false
	}
	return ix.pageCache.Stats(), true
}
