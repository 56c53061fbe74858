// Package rtree implements an R-tree over axis-aligned rectangles with
// opaque leaf payloads.
//
// It provides exactly what the paper's search algorithms need (§3.1): a
// height-balanced hierarchy of MBRs whose internal structure is exposed for
// custom best-first traversals, plus rectangle range search. Two
// construction paths are supported: incremental insertion with Guttman's
// quadratic split, and Sort-Tile-Recursive (STR) bulk loading for building
// indexes over whole datasets deterministically.
//
// # Mutation and snapshots
//
// Insert and Delete never modify nodes visible to another tree: every node
// is stamped with the ownership generation of the tree that created it,
// Clone (O(1) — it copies only the tree header) moves both trees to fresh
// generations, and a mutation copies a node exactly when its stamp differs
// from the mutating tree's generation — after which the copy is owned and
// further mutations in the same ownership span update it in place. The
// pair supports cheap snapshot isolation:
//
//	snap := t.Clone() // or keep t.Root()/Height()/Len() from before
//	t.Insert(r, data) // snap still sees the old, fully consistent tree
//
// The in-place half is what makes group commits cheap: a clone receiving a
// batch of inserts copies and repacks each touched node once per batch,
// not once per insert, while every node reachable from any other clone
// stays intact (classic persistent-structure transients).
//
// A Tree itself is not safe for concurrent mutation; callers serialize
// writers and publish clones (e.g. through an atomic pointer) to readers.
// Deletion follows Guttman's CondenseTree: underfull nodes are dissolved
// and their leaf entries reinserted, so the min-fill invariant survives
// arbitrary insert/delete sequences.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fuzzyknn/internal/geom"
)

// Default node capacities. MaxEntries is the paper's C_max.
const (
	DefaultMaxEntries = 64
	DefaultMinEntries = DefaultMaxEntries * 2 / 5
)

// Entry is a node slot: either an interior entry (Child != nil) whose Rect
// is the exact MBR of the child node, or a leaf entry carrying Data.
type Entry struct {
	Rect  geom.Rect
	Child *Node // nil for leaf entries
	Data  any   // payload of leaf entries
}

// Node is an R-tree node. Nodes are exposed read-only so query algorithms
// can run their own traversals; do not mutate entries.
type Node struct {
	leaf    bool
	entries []Entry

	// gen is the ownership generation of the tree that created this node.
	// A tree may mutate a node in place iff the node's gen equals its own;
	// any other node is copied first (see Tree.mutable). Clone retires
	// both trees' generations, so every node reachable from a cloned-away
	// snapshot is frozen forever.
	gen uint64

	// packed flattens the entries into one contiguous slice, so best-first
	// traversals scan their bounds sequentially instead of chasing slice
	// headers per entry: stride floats per entry — the rectangle's lower
	// corner, its upper corner and, in a leaf whose payloads are all
	// Summarized with one common length, the payload's summary. It is filled
	// by pack() when a node's entries are final (nodes are immutable once
	// reachable from a published root).
	packed []float64
	dims   int // d of the entry rectangles; 0 while the node is empty
	stride int // floats per entry in packed: 2·d, plus the summary's length

	// src/page make the node a stub: a placeholder holding no entries that
	// resolves on demand to the decoded form of page via src (see Resolve).
	// Stubs let page-backed trees share every traversal with in-memory
	// trees at the cost of one nil check per node visit.
	src  NodeSource
	page uint32
}

// Summarized is the optional interface of leaf payloads that carry a flat
// float summary the searches bound them by (the query layer's per-object
// §3.2 summaries). A leaf lays every payload's summary out in its packed
// slab right after the entry's rectangle, so a traversal reads an entry's
// bound inputs from one stretch of contiguous memory instead of from the
// payload. A summary must not change once its payload is in a tree.
type Summarized interface {
	Summary() []float64
}

// Leaf reports whether the node's entries are leaf entries.
func (n *Node) Leaf() bool { return n.leaf }

// Entries returns the node's entries. The slice must not be modified.
func (n *Node) Entries() []Entry { return n.entries }

// pack (re)builds the packed slab from the current entries. Construction
// paths call it exactly when a node's entry set is final.
func (n *Node) pack() {
	if len(n.entries) == 0 {
		n.packed, n.dims, n.stride = nil, 0, 0
		return
	}
	d, s := n.entries[0].Rect.Dims(), summaryLen(n)
	n.dims, n.stride = d, 2*d+s
	need := n.stride * len(n.entries)
	if cap(n.packed) < need {
		n.packed = make([]float64, need)
	}
	n.packed = n.packed[:need]
	for i, e := range n.entries {
		p := n.packed[n.stride*i : n.stride*(i+1)]
		copy(p, e.Rect.Lo)
		copy(p[d:], e.Rect.Hi)
		if s > 0 {
			copy(p[2*d:], e.Data.(Summarized).Summary())
		}
	}
}

// summaryLen returns the length of the summaries a leaf lays out: that of
// its payloads' when they are all Summarized with one common length, and 0
// otherwise.
func summaryLen(n *Node) int {
	if !n.leaf || len(n.entries) == 0 {
		return 0
	}
	first, ok := n.entries[0].Data.(Summarized)
	if !ok {
		return 0
	}
	s := len(first.Summary())
	for _, e := range n.entries[1:] {
		if p, ok := e.Data.(Summarized); !ok || len(p.Summary()) != s {
			return 0
		}
	}
	return s
}

// checkPacked verifies the packed slab mirrors the entry rectangles and the
// payload summaries bit for bit.
func (n *Node) checkPacked() error {
	if len(n.entries) == 0 {
		return nil
	}
	d, s := n.entries[0].Rect.Dims(), summaryLen(n)
	if n.dims != d || n.stride != 2*d+s || len(n.packed) != n.stride*len(n.entries) {
		return fmt.Errorf("packed slab has %d floats of stride %d at %d dims, want %d of stride %d at %d",
			len(n.packed), n.stride, n.dims, (2*d+s)*len(n.entries), 2*d+s, d)
	}
	for i, e := range n.entries {
		box, sum := n.EntrySummary(i)
		if !sameBits(box[:d], e.Rect.Lo) || !sameBits(box[d:], e.Rect.Hi) {
			return fmt.Errorf("packed rect %d diverges from entry rect %v", i, e.Rect)
		}
		if s > 0 && !sameBits(sum, e.Data.(Summarized).Summary()) {
			return fmt.Errorf("packed summary %d diverges from its payload's", i)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// EntrySummary returns leaf entry i's stretch of the packed slab: its
// rectangle's corners (the lower, then the upper: 2·d floats) and its
// payload's summary (nil when the leaf lays none out). Both are views into
// memory the node owns: read them, do not keep or modify them.
func (n *Node) EntrySummary(i int) (box, sum []float64) {
	p := n.packed[n.stride*i : n.stride*(i+1) : n.stride*(i+1)]
	box, sum = p[:2*n.dims:2*n.dims], p[2*n.dims:]
	if len(sum) == 0 {
		sum = nil
	}
	return box, sum
}

// EntryMinDist returns MinDist(entries[i].Rect, r), reading the i-th
// rectangle from the packed slab when available. The value is bitwise
// identical to geom.MinDist on the entry's Rect.
func (n *Node) EntryMinDist(i int, r geom.Rect) float64 {
	d := len(r.Lo)
	if n.stride == 0 || len(n.packed) < n.stride*(i+1) {
		return geom.MinDist(n.entries[i].Rect, r)
	}
	base := n.stride * i
	return geom.MinDistLoHi(n.packed[base:base+d], n.packed[base+d:base+2*d], r)
}

// Tree is an R-tree. Create with New or BulkLoad.
type Tree struct {
	root       *Node
	minEntries int
	maxEntries int
	height     int // number of levels; 1 = root is a leaf
	size       int // number of leaf entries

	// gen is this tree's ownership generation: nodes stamped with it may
	// be mutated in place, all others are copied on write. lineage is the
	// generation counter shared by every clone of one tree family; Clone
	// draws two fresh generations from it so neither side can touch the
	// nodes the other may still serve.
	gen     uint64
	lineage *uint64

	// relaxedMinFill marks trees whose construction may legitimately leave
	// underfull nodes (STR bulk loading packs full nodes and puts the
	// remainder in the last one). CheckInvariants skips the min-fill check
	// for such trees.
	relaxedMinFill bool
}

// New returns an empty tree with the given node capacities. min must be at
// least 1 and at most max/2; max must be at least 2. Zero values select the
// defaults.
func New(min, max int) *Tree {
	if min == 0 {
		min = DefaultMinEntries
	}
	if max == 0 {
		max = DefaultMaxEntries
	}
	if max < 2 || min < 1 || min > max/2 {
		panic(fmt.Sprintf("rtree: invalid capacities min=%d max=%d", min, max))
	}
	lineage := uint64(1)
	return &Tree{
		root:       &Node{leaf: true, gen: 1},
		minEntries: min,
		maxEntries: max,
		height:     1,
		gen:        1,
		lineage:    &lineage,
	}
}

// Len returns the number of stored leaf entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity C_max.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// Root returns the root node for custom traversals.
func (t *Tree) Root() *Node { return t.root }

// Bounds returns the MBR of everything stored (empty rect for empty tree).
func (t *Tree) Bounds() geom.Rect {
	var r geom.Rect
	for _, e := range t.root.entries {
		r.ExpandRect(e.Rect)
	}
	return r
}

// Clone returns a snapshot of the tree in O(1): only the header is copied,
// all nodes are shared. Both trees move to fresh ownership generations, so
// every shared node is frozen — the clone and the original can each be
// mutated without disturbing the other's view, each copying shared nodes
// on first touch and mutating only nodes it created afterwards.
func (t *Tree) Clone() *Tree {
	c := *t
	*t.lineage += 2
	c.gen = *t.lineage - 1
	t.gen = *t.lineage
	return &c
}

// mutable returns a node this tree may mutate: n itself when this tree
// created it (its generation matches), otherwise a fresh owned copy of n's
// entries. The copy leaves packed empty; mutators repack once the entry
// set settles.
func (t *Tree) mutable(n *Node) *Node {
	if n.gen == t.gen {
		return n
	}
	nn := &Node{leaf: n.leaf, gen: t.gen, entries: make([]Entry, len(n.entries), len(n.entries)+1)}
	copy(nn.entries, n.entries)
	return nn
}

// Insert adds a leaf entry with the given rectangle and payload. The
// previous tree structure remains intact for snapshot holders: only fresh
// copies of the nodes along the insertion path are modified.
func (t *Tree) Insert(r geom.Rect, data any) {
	if r.IsEmpty() {
		panic("rtree: cannot insert empty rectangle")
	}
	t.insertEntry(Entry{Rect: r.Clone(), Data: data})
	t.size++
}

// insertEntry places a leaf entry without touching the size counter (shared
// by Insert and the condense-tree reinsertion pass).
func (t *Tree) insertEntry(e Entry) {
	root, split := t.insert(t.root, e, t.height-1)
	if split != nil {
		// Root split: grow the tree by one level.
		root = &Node{
			leaf: false,
			gen:  t.gen,
			entries: []Entry{
				{Rect: nodeMBR(root), Child: root},
				{Rect: nodeMBR(split), Child: split},
			},
		}
		root.pack()
		t.height++
	}
	t.root = root
}

// insert places e at the given level (0 = leaf) below n, returning the
// replacement for n and, if the replacement overflowed, the node split off
// of it. Nodes owned by other trees are never modified; nodes this tree
// owns update in place.
func (t *Tree) insert(n *Node, e Entry, level int) (*Node, *Node) {
	nn := t.mutable(n)
	if level == 0 {
		nn.entries = append(nn.entries, e)
		if len(nn.entries) > t.maxEntries {
			return nn, t.splitNode(nn)
		}
		nn.pack()
		return nn, nil
	}
	i := chooseSubtree(nn, e.Rect)
	child, split := t.insert(nn.entries[i].Child, e, level-1)
	nn.entries[i] = Entry{Rect: nodeMBR(child), Child: child}
	if split != nil {
		nn.entries = append(nn.entries, Entry{Rect: nodeMBR(split), Child: split})
		if len(nn.entries) > t.maxEntries {
			return nn, t.splitNode(nn)
		}
	}
	nn.pack()
	return nn, nil
}

// Delete removes one leaf entry whose rectangle equals r and whose payload
// satisfies match, reporting whether such an entry was found. Underfull
// nodes along the way are dissolved and their leaf entries reinserted
// (Guttman's CondenseTree), and a root left with a single child is cut, so
// the tree stays height-balanced with min-fill intact. Like Insert, the
// change is copy-on-write: previously obtained roots keep their view.
func (t *Tree) Delete(r geom.Rect, match func(data any) bool) bool {
	if r.IsEmpty() || t.size == 0 {
		return false
	}
	var orphans []Entry
	root, found := t.deleteFrom(t.root, r, match, &orphans)
	if !found {
		return false
	}
	t.root = root
	// Cut the root while it is an interior node with at most one child.
	for !t.root.leaf {
		switch len(t.root.entries) {
		case 0:
			t.root = &Node{leaf: true, gen: t.gen}
			t.height = 1
		case 1:
			t.root = t.root.entries[0].Child
			t.height--
		default:
			goto condensed
		}
	}
condensed:
	t.size--
	for _, e := range orphans {
		t.insertEntry(e)
	}
	return true
}

// deleteFrom removes the matching entry below n, returning n's replacement
// (nil when n dissolved into orphans) and whether the entry was found. Leaf
// entries of dissolved subtrees are appended to orphans for reinsertion.
// Like insert, only nodes this tree owns are modified in place.
func (t *Tree) deleteFrom(n *Node, r geom.Rect, match func(any) bool, orphans *[]Entry) (*Node, bool) {
	if n.leaf {
		idx := -1
		for i, e := range n.entries {
			if e.Rect.Equal(r) && match(e.Data) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return n, false
		}
		nn := t.mutable(n)
		nn.entries = append(nn.entries[:idx], nn.entries[idx+1:]...)
		if n != t.root && len(nn.entries) < t.minEntries {
			*orphans = append(*orphans, nn.entries...)
			return nil, true
		}
		nn.pack()
		return nn, true
	}
	for i, e := range n.entries {
		if !e.Rect.ContainsRect(r) {
			continue
		}
		child, found := t.deleteFrom(e.Child, r, match, orphans)
		if !found {
			continue
		}
		nn := t.mutable(n)
		if child != nil {
			nn.entries[i] = Entry{Rect: nodeMBR(child), Child: child}
		} else {
			nn.entries = append(nn.entries[:i], nn.entries[i+1:]...)
		}
		if n != t.root && len(nn.entries) < t.minEntries {
			collectLeafEntries(nn, orphans)
			return nil, true
		}
		nn.pack()
		return nn, true
	}
	return n, false
}

// collectLeafEntries appends every leaf entry below n to out.
func collectLeafEntries(n *Node, out *[]Entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, e := range n.entries {
		collectLeafEntries(e.Child, out)
	}
}

// chooseSubtree picks the child needing the least area enlargement to cover
// r, breaking ties by smaller area (Guttman's ChooseLeaf).
func chooseSubtree(n *Node, r geom.Rect) int {
	best := -1
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		enl := e.Rect.EnlargementArea(r)
		area := e.Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split in place, leaving one group
// in n and returning the other as a fresh node.
func (t *Tree) splitNode(n *Node) *Node {
	entries := n.entries
	seedA, seedB := pickSeeds(entries)

	groupA := []Entry{entries[seedA]}
	groupB := []Entry{entries[seedB]}
	rectA := entries[seedA].Rect.Clone()
	rectB := entries[seedB].Rect.Clone()

	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach min fill, do it.
		if len(groupA)+len(rest) == t.minEntries {
			for _, e := range rest {
				groupA = append(groupA, e)
				rectA.ExpandRect(e.Rect)
			}
			break
		}
		if len(groupB)+len(rest) == t.minEntries {
			for _, e := range rest {
				groupB = append(groupB, e)
				rectB.ExpandRect(e.Rect)
			}
			break
		}
		// PickNext: entry with the greatest preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for i, e := range rest {
			dA := rectA.EnlargementArea(e.Rect)
			dB := rectB.EnlargementArea(e.Rect)
			if diff := math.Abs(dA - dB); diff > bestDiff {
				bestIdx, bestDiff = i, diff
				bestDA, bestDB = dA, dB
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		// Resolve ties by smaller area, then smaller group.
		toA := bestDA < bestDB
		if bestDA == bestDB {
			aA, aB := rectA.Area(), rectB.Area()
			toA = aA < aB || (aA == aB && len(groupA) <= len(groupB))
		}
		if toA {
			groupA = append(groupA, e)
			rectA.ExpandRect(e.Rect)
		} else {
			groupB = append(groupB, e)
			rectB.ExpandRect(e.Rect)
		}
	}

	n.entries = groupA
	n.pack()
	other := &Node{leaf: n.leaf, gen: t.gen, entries: groupB}
	other.pack()
	return other
}

// pickSeeds returns the pair of entries wasting the most area if grouped
// together (Guttman's quadratic PickSeeds).
func pickSeeds(entries []Entry) (int, int) {
	worst := math.Inf(-1)
	a, b := 0, 1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].Rect.Union(entries[j].Rect)
			waste := u.Area() - entries[i].Rect.Area() - entries[j].Rect.Area()
			if waste > worst {
				worst, a, b = waste, i, j
			}
		}
	}
	return a, b
}

// nodeMBR computes the exact MBR of a node's entries.
func nodeMBR(n *Node) geom.Rect {
	var r geom.Rect
	for _, e := range n.entries {
		r.ExpandRect(e.Rect)
	}
	return r
}

// Search invokes fn for every leaf entry whose rectangle intersects r,
// stopping early if fn returns false.
func (t *Tree) Search(r geom.Rect, fn func(Entry) bool) {
	t.search(t.root, r, fn)
}

func (t *Tree) search(n *Node, r geom.Rect, fn func(Entry) bool) bool {
	n = n.Resolve(nil)
	for _, e := range n.entries {
		if !e.Rect.Intersects(r) {
			continue
		}
		if n.leaf {
			if !fn(e) {
				return false
			}
		} else if !t.search(e.Child, r, fn) {
			return false
		}
	}
	return true
}

// BulkItem is one input to BulkLoad.
type BulkItem struct {
	Rect geom.Rect
	Data any
}

// BulkLoad builds a tree over items with the Sort-Tile-Recursive algorithm:
// items are sorted and tiled into slabs dimension by dimension, packed into
// full leaves, and upper levels are packed recursively. The result is
// deterministic for a given input order. Capacity semantics match New.
func BulkLoad(items []BulkItem, min, max int) *Tree {
	t := New(min, max)
	t.relaxedMinFill = true
	if len(items) == 0 {
		return t
	}
	entries := make([]Entry, len(items))
	for i, it := range items {
		if it.Rect.IsEmpty() {
			panic("rtree: cannot bulk load empty rectangle")
		}
		entries[i] = Entry{Rect: it.Rect.Clone(), Data: it.Data}
	}
	dims := entries[0].Rect.Dims()
	nodes := packLevel(entries, true, t.maxEntries, dims)
	t.height = 1
	for len(nodes) > 1 {
		up := make([]Entry, len(nodes))
		for i, n := range nodes {
			up[i] = Entry{Rect: nodeMBR(n), Child: n}
		}
		nodes = packLevel(up, false, t.maxEntries, dims)
		t.height++
	}
	t.root = nodes[0]
	t.size = len(items)
	return t
}

// packLevel tiles entries into nodes of up to max entries using recursive
// STR over the given number of dimensions.
func packLevel(entries []Entry, leaf bool, max, dims int) []*Node {
	var nodes []*Node
	strTile(entries, 0, dims, max, func(chunk []Entry) {
		n := &Node{leaf: leaf, entries: append([]Entry(nil), chunk...)}
		n.pack()
		nodes = append(nodes, n)
	})
	return nodes
}

// strTile recursively slices entries into slabs along dimension dim so that
// the final chunks hold at most max entries, then emits them.
func strTile(entries []Entry, dim, dims, max int, emit func([]Entry)) {
	if len(entries) <= max {
		emit(entries)
		return
	}
	if dim == dims-1 {
		// Last dimension: sort and emit runs of max.
		sortByCenter(entries, dim)
		for start := 0; start < len(entries); start += max {
			end := start + max
			if end > len(entries) {
				end = len(entries)
			}
			emit(entries[start:end])
		}
		return
	}
	sortByCenter(entries, dim)
	// Number of leaf pages below, spread across the remaining dimensions.
	pages := int(math.Ceil(float64(len(entries)) / float64(max)))
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	per := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	for start := 0; start < len(entries); start += per {
		end := start + per
		if end > len(entries) {
			end = len(entries)
		}
		strTile(entries[start:end], dim+1, dims, max, emit)
	}
}

func sortByCenter(entries []Entry, dim int) {
	slices.SortStableFunc(entries, func(a, b Entry) int {
		ca := a.Rect.Lo[dim] + a.Rect.Hi[dim]
		cb := b.Rect.Lo[dim] + b.Rect.Hi[dim]
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return 0
	})
}

// CheckInvariants validates structural invariants; it is used by tests and
// returns a descriptive error on the first violation found:
//   - interior entry rectangles are the exact MBRs of their children
//     (which implies MBR containment down the whole tree),
//   - all leaves sit at the same depth (height consistency),
//   - no node exceeds maxEntries, and non-root nodes are non-empty,
//   - non-root nodes of incrementally built trees hold at least minEntries
//     (bulk-loaded trees are exempt: STR legitimately leaves the last node
//     of a level underfull),
//   - the recorded size matches the number of reachable leaf entries,
//   - every node's packed slab mirrors its entries' rectangles and, in a
//     leaf, their payloads' summaries bit for bit.
func (t *Tree) CheckInvariants() error {
	leafDepth := -1
	count := 0
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("node overflow: %d > %d", len(n.entries), t.maxEntries)
		}
		if err := n.checkPacked(); err != nil {
			return err
		}
		if len(n.entries) == 0 && n != t.root {
			return errors.New("empty non-root node")
		}
		if !t.relaxedMinFill && n != t.root && len(n.entries) < t.minEntries {
			return fmt.Errorf("node underflow: %d < %d", len(n.entries), t.minEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaves at different depths: %d vs %d", depth, leafDepth)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			if e.Child == nil {
				return errors.New("interior entry without child")
			}
			child := e.Child.Resolve(nil)
			if got := nodeMBR(child); !got.Equal(e.Rect) {
				return fmt.Errorf("stale MBR: entry %v vs child %v", e.Rect, got)
			}
			if err := walk(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root.Resolve(nil), 1); err != nil {
		return err
	}
	if leafDepth != -1 && leafDepth != t.height {
		return fmt.Errorf("height %d but leaves at depth %d", t.height, leafDepth)
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d reachable leaf entries", t.size, count)
	}
	return nil
}
