// Package rtree implements an R-tree over axis-aligned rectangles whose
// leaf entries are object ids, each with an optional float summary.
//
// It provides exactly what the paper's search algorithms need (§3.1): a
// height-balanced hierarchy of MBRs whose internal structure is exposed for
// custom best-first traversals. Two construction paths are supported:
// incremental insertion with Guttman's quadratic split, and
// Sort-Tile-Recursive (STR) bulk loading for building indexes over whole
// datasets deterministically.
//
// # Rows
//
// A node is one float slab of rows beside a leaf's ids or an interior
// node's children. Entry i's row is its rectangle's lower and upper
// corners (2·d floats) and, in a leaf, its summary: the w floats a search
// bounds it by (w = 7·d for the query layer's §3.2 summaries, 0 in a tree
// of bare ids), one w per tree. The row is the only copy of what it holds.
// A copy into a slab never reads views of that same slab: splits and STR
// tiles write fresh slabs, and orphans are reinserted from a slab of their
// own.
//
// # Mutation and snapshots
//
// Insert and Delete never modify nodes visible to another tree: every node
// is stamped with the ownership generation of the tree that created it,
// Clone (O(1) — it copies only the tree header) moves both trees to fresh
// generations, and a mutation copies a node exactly when its stamp differs
// from the mutating tree's generation — after which the copy is owned and
// further mutations in the same ownership span append, overwrite and remove
// its rows in place. The pair supports cheap snapshot isolation:
//
//	snap := t.Clone() // or keep t.Root()/Height()/Len() from before
//	t.Insert(r, id)   // snap still sees the old, fully consistent tree
//
// The in-place half is what makes group commits cheap: a clone receiving a
// batch of inserts copies each touched node once per batch, not once per
// insert, while every node reachable from any other clone stays intact
// (classic persistent-structure transients).
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

// Node is an R-tree node. Nodes are exposed read-only so query algorithms
// can run their own traversals: they read entry i through ID, Child,
// EntrySummary, EntryRect and EntryMinDist.
type Node struct {
	leaf   bool
	dims   int // d of the entry rectangles
	stride int // floats per row: 2·d, plus the tree's summary length in a leaf

	// packed holds the rows, stride floats each, in entry order; ids (in a
	// leaf) and kids (in an interior node) hold the rest of each entry.
	packed []float64
	ids    []uint64
	kids   []*Node

	// gen is the ownership generation of the tree that created this node.
	// A tree may mutate a node in place iff the node's gen equals its own;
	// any other node is copied first (see Tree.mutable). Clone retires
	// both trees' generations, so every node reachable from a cloned-away
	// snapshot is frozen forever.
	gen uint64

	// src/page make the node a stub: a placeholder holding no entries that
	// resolves on demand to the decoded form of page via src (see Resolve).
	// Stubs let page-backed trees share every traversal with in-memory
	// trees at the cost of one nil check per node visit.
	src  NodeSource
	page uint32
}

// Leaf reports whether the node's entries are leaf entries.
func (n *Node) Leaf() bool { return n.leaf }

// Len returns the number of the node's entries.
func (n *Node) Len() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.kids)
}

// ID returns leaf entry i's id.
func (n *Node) ID(i int) uint64 { return n.ids[i] }

// Child returns interior entry i's child.
func (n *Node) Child(i int) *Node { return n.kids[i] }

// row returns entry i's row.
func (n *Node) row(i int) []float64 {
	return n.packed[n.stride*i : n.stride*(i+1) : n.stride*(i+1)]
}

// corners returns entry i's rectangle as its two corner slices.
func (n *Node) corners(i int) (lo, hi []float64) {
	p := n.row(i)
	return p[:n.dims:n.dims], p[n.dims : 2*n.dims : 2*n.dims]
}

// EntryRect returns entry i's rectangle, a view into the node's slab:
// read it, do not modify it.
func (n *Node) EntryRect(i int) geom.Rect {
	lo, hi := n.corners(i)
	return geom.Rect{Lo: lo, Hi: hi}
}

// EntrySummary returns entry i's row: its rectangle's corners (the lower,
// then the upper: 2·d floats) and its summary (nil in an interior node or a
// tree of bare ids). Both are views into memory the node owns: read them,
// do not keep or modify them.
func (n *Node) EntrySummary(i int) (box, sum []float64) {
	p := n.row(i)
	box, sum = p[:2*n.dims:2*n.dims], p[2*n.dims:]
	if len(sum) == 0 {
		sum = nil
	}
	return box, sum
}

// EntryMinDist returns MinDist(entry i's rectangle, r), bitwise
// geom.MinDist on the rectangle EntryRect returns.
func (n *Node) EntryMinDist(i int, r geom.Rect) float64 {
	lo, hi := n.corners(i)
	return geom.MinDistLoHi(lo, hi, r)
}

// Bounds returns the MBR of the node's entries in fresh memory (the empty
// rectangle for an empty node).
func (n *Node) Bounds() geom.Rect {
	if n.Len() == 0 {
		return geom.Rect{}
	}
	b := make([]float64, 2*n.dims)
	n.mbrInto(b)
	return geom.Rect{Lo: b[:n.dims:n.dims], Hi: b[n.dims:]}
}

// mbrInto writes the MBR of the node's entries, which must exist, to
// dst[:2·d]: the first row's corners, expanded by each further row in turn.
func (n *Node) mbrInto(dst []float64) {
	d := n.dims
	lo, hi := dst[:d], dst[d:2*d]
	copy(lo, n.packed[:d])
	copy(hi, n.packed[d:2*d])
	for i := 1; i < n.Len(); i++ {
		slo, shi := n.corners(i)
		expand(lo, hi, slo, shi)
	}
}

// expand grows the box (lo, hi) in place to include (slo, shi).
func expand(lo, hi, slo, shi []float64) {
	for i := range lo {
		if slo[i] < lo[i] {
			lo[i] = slo[i]
		}
		if shi[i] > hi[i] {
			hi[i] = shi[i]
		}
	}
}

// area returns the volume of the box (lo, hi): the product of its extents,
// starting from 1.0, as geom.Rect.Area.
func area(lo, hi []float64) float64 {
	a := 1.0
	for i := range lo {
		a *= hi[i] - lo[i]
	}
	return a
}

// unionArea returns the volume of the MBR of boxes a and b without
// building it: the corners a expanded by b would have, dimension by
// dimension, multiplied as area does.
func unionArea(alo, ahi, blo, bhi []float64) float64 {
	a := 1.0
	for i := range alo {
		l, h := alo[i], ahi[i]
		if blo[i] < l {
			l = blo[i]
		}
		if bhi[i] > h {
			h = bhi[i]
		}
		a *= h - l
	}
	return a
}

// appendRow appends a row: the box's corners, then sum (none in an
// interior node). Every row of a node has one stride.
func (n *Node) appendRow(lo, hi, sum []float64) {
	if stride := 2*len(lo) + len(sum); len(n.packed) == 0 {
		n.dims, n.stride = len(lo), stride
	} else if stride != n.stride {
		panic(fmt.Sprintf("rtree: a row of stride %d in a node of stride %d", stride, n.stride))
	}
	n.packed = append(append(append(n.packed, lo...), hi...), sum...)
}

// appendLeaf appends a leaf entry.
func (n *Node) appendLeaf(r geom.Rect, id uint64, sum []float64) {
	n.appendRow(r.Lo, r.Hi, sum)
	n.ids = append(n.ids, id)
}

// appendKid appends an interior entry for k, whose row is k's MBR.
func (n *Node) appendKid(k *Node) {
	n.dims, n.stride = k.dims, 2*k.dims
	at := len(n.packed)
	n.packed = append(n.packed, make([]float64, n.stride)...)
	k.mbrInto(n.packed[at:])
	n.kids = append(n.kids, k)
}

// remove deletes entry i in place.
func (n *Node) remove(i int) {
	n.packed = slices.Delete(n.packed, n.stride*i, n.stride*(i+1))
	if n.leaf {
		n.ids = slices.Delete(n.ids, i, i+1)
	} else {
		n.kids = slices.Delete(n.kids, i, i+1)
	}
}

// subset returns a copy of n holding the given entries of n, in that
// order, in fresh memory.
func (n *Node) subset(entries []int) *Node {
	s := *n
	s.packed = make([]float64, 0, len(entries)*n.stride)
	if n.leaf {
		s.ids = make([]uint64, 0, len(entries))
	} else {
		s.kids = make([]*Node, 0, len(entries))
	}
	for _, i := range entries {
		s.packed = append(s.packed, n.row(i)...)
		if n.leaf {
			s.ids = append(s.ids, n.ids[i])
		} else {
			s.kids = append(s.kids, n.kids[i])
		}
	}
	return &s
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
func (t *Tree) Bounds() geom.Rect { return t.root.Bounds() }

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
// created it (its generation matches), otherwise an owned copy of n with
// room for one more entry.
func (t *Tree) mutable(n *Node) *Node {
	if n.gen == t.gen {
		return n
	}
	nn := *n
	nn.gen = t.gen
	nn.packed = append(make([]float64, 0, len(n.packed)+n.stride), n.packed...)
	if n.leaf {
		nn.ids = append(make([]uint64, 0, len(n.ids)+1), n.ids...)
	} else {
		nn.kids = append(make([]*Node, 0, len(n.kids)+1), n.kids...)
	}
	return &nn
}

// Insert adds a leaf entry with rectangle r, id and summary (every entry
// of a tree has a summary of one length; none in a tree of bare ids). The
// previous tree structure remains intact for snapshot holders: only fresh
// copies of the nodes along the insertion path are modified.
func (t *Tree) Insert(r geom.Rect, id uint64, summary ...float64) {
	if r.IsEmpty() {
		panic("rtree: cannot insert empty rectangle")
	}
	t.insertRow(r, id, summary)
	t.size++
}

// insertRow places a leaf entry without touching the size counter (shared
// by Insert and the condense-tree reinsertion pass).
func (t *Tree) insertRow(r geom.Rect, id uint64, sum []float64) {
	root, split := t.insert(t.root, r, id, sum, t.height-1)
	if split != nil {
		// Root split: grow the tree by one level.
		up := &Node{gen: t.gen}
		up.appendKid(root)
		up.appendKid(split)
		root = up
		t.height++
	}
	t.root = root
}

// insert places a leaf entry below n, which sits level levels above the
// leaves, returning the replacement for n and, if the replacement
// overflowed, the node split off of it. Nodes owned by other trees are
// never modified; nodes this tree owns update in place.
func (t *Tree) insert(n *Node, r geom.Rect, id uint64, sum []float64, level int) (*Node, *Node) {
	nn := t.mutable(n)
	if level == 0 {
		nn.appendLeaf(r, id, sum)
	} else {
		i := nn.chooseSubtree(r.Lo, r.Hi)
		child, split := t.insert(nn.kids[i], r, id, sum, level-1)
		nn.kids[i] = child
		child.mbrInto(nn.row(i))
		if split == nil {
			return nn, nil
		}
		nn.appendKid(split)
	}
	if nn.Len() > t.maxEntries {
		return nn, t.splitNode(nn)
	}
	return nn, nil
}

// Delete removes one leaf entry whose rectangle equals r and whose id
// satisfies match (it is handed the id), reporting whether such an entry
// was found. Underfull nodes along the way are dissolved and their leaf
// entries reinserted (Guttman's CondenseTree), and a root left with a
// single child is cut, so the tree stays height-balanced with min-fill
// intact. Like Insert, the change is copy-on-write: previously obtained
// roots keep their view.
func (t *Tree) Delete(r geom.Rect, match func(id any) bool) bool {
	if r.IsEmpty() || t.size == 0 {
		return false
	}
	orphans := Node{leaf: true} // the dissolved nodes' leaf entries, in a slab of their own
	root, found := t.deleteFrom(t.root, r, match, &orphans)
	if !found {
		return false
	}
	t.root = root
	// Cut the root while it is an interior node with at most one child.
	for !t.root.leaf && t.root.Len() <= 1 {
		if t.root.Len() == 0 {
			t.root = &Node{leaf: true, gen: t.gen}
			t.height = 1
		} else {
			t.root = t.root.kids[0]
			t.height--
		}
	}
	t.size--
	for i := range orphans.ids {
		_, sum := orphans.EntrySummary(i)
		t.insertRow(orphans.EntryRect(i), orphans.ids[i], sum)
	}
	return true
}

// deleteFrom removes the matching entry below n, returning n's replacement
// (nil when n dissolved into orphans) and whether the entry was found. Leaf
// entries of dissolved subtrees are appended to orphans for reinsertion.
// Like insert, only nodes this tree owns are modified in place.
func (t *Tree) deleteFrom(n *Node, r geom.Rect, match func(any) bool, orphans *Node) (*Node, bool) {
	if n.leaf {
		for i := range n.ids {
			if n.EntryRect(i).Equal(r) && match(n.ids[i]) {
				nn := t.mutable(n)
				nn.remove(i)
				return t.condense(n, nn, orphans), true
			}
		}
		return n, false
	}
	for i := range n.kids {
		if !n.EntryRect(i).ContainsRect(r) {
			continue
		}
		child, found := t.deleteFrom(n.kids[i], r, match, orphans)
		if !found {
			continue
		}
		nn := t.mutable(n)
		if child != nil {
			nn.kids[i] = child
			child.mbrInto(nn.row(i))
		} else {
			nn.remove(i)
		}
		return t.condense(n, nn, orphans), true
	}
	return n, false
}

// condense returns nn, n's replacement after a deletion below it — or nil,
// having copied every leaf entry below nn into orphans, when n is not the
// root and nn holds fewer than min entries.
func (t *Tree) condense(n, nn, orphans *Node) *Node {
	if n == t.root || nn.Len() >= t.minEntries {
		return nn
	}
	var collect func(n *Node)
	collect = func(n *Node) {
		if !n.leaf {
			for _, k := range n.kids {
				collect(k)
			}
			return
		}
		orphans.dims, orphans.stride = n.dims, n.stride
		orphans.packed = append(orphans.packed, n.packed...)
		orphans.ids = append(orphans.ids, n.ids...)
	}
	collect(nn)
	return nil
}

// chooseSubtree picks the child needing the least area enlargement to
// cover the box (lo, hi), breaking ties by smaller area (Guttman's
// ChooseLeaf).
func (n *Node) chooseSubtree(lo, hi []float64) int {
	best := -1
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i := range n.kids {
		elo, ehi := n.corners(i)
		a := area(elo, ehi)
		enl := unionArea(elo, ehi, lo, hi) - a
		if enl < bestEnl || (enl == bestEnl && a < bestArea) {
			best, bestEnl, bestArea = i, enl, a
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split of n, which it owns: n
// keeps one group and the other is returned as a fresh node, each group's
// rows in a fresh slab.
func (t *Tree) splitNode(n *Node) *Node {
	m, d := n.Len(), n.dims
	seedA, seedB := n.pickSeeds()

	idx := make([]int, 3*m)
	groupA := append(idx[:0:m], seedA)
	groupB := append(idx[m:m:2*m], seedB)
	rest := idx[2*m : 2*m]
	for i := 0; i < m; i++ {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	boxes := make([]float64, 4*d)
	copy(boxes, n.row(seedA)[:2*d])
	copy(boxes[2*d:], n.row(seedB)[:2*d])
	loA, hiA, loB, hiB := boxes[:d], boxes[d:2*d], boxes[2*d:3*d], boxes[3*d:]

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach min fill, do it.
		if len(groupA)+len(rest) == t.minEntries {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) == t.minEntries {
			groupB = append(groupB, rest...)
			break
		}
		// PickNext: entry with the greatest preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for k, i := range rest {
			lo, hi := n.corners(i)
			dA := unionArea(loA, hiA, lo, hi) - area(loA, hiA)
			dB := unionArea(loB, hiB, lo, hi) - area(loB, hiB)
			if diff := math.Abs(dA - dB); diff > bestDiff {
				bestIdx, bestDiff = k, diff
				bestDA, bestDB = dA, dB
			}
		}
		i := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		// Resolve ties by smaller area, then smaller group.
		toA := bestDA < bestDB
		if bestDA == bestDB {
			aA, aB := area(loA, hiA), area(loB, hiB)
			toA = aA < aB || (aA == aB && len(groupA) <= len(groupB))
		}
		lo, hi := n.corners(i)
		if toA {
			groupA = append(groupA, i)
			expand(loA, hiA, lo, hi)
		} else {
			groupB = append(groupB, i)
			expand(loB, hiB, lo, hi)
		}
	}

	other := n.subset(groupB)
	*n = *n.subset(groupA)
	return other
}

// pickSeeds returns the pair of entries wasting the most area if grouped
// together (Guttman's quadratic PickSeeds).
func (n *Node) pickSeeds() (int, int) {
	worst := math.Inf(-1)
	a, b := 0, 1
	for i := 0; i < n.Len(); i++ {
		loI, hiI := n.corners(i)
		for j := i + 1; j < n.Len(); j++ {
			loJ, hiJ := n.corners(j)
			if waste := unionArea(loI, hiI, loJ, hiJ) - area(loI, hiI) - area(loJ, hiJ); waste > worst {
				worst, a, b = waste, i, j
			}
		}
	}
	return a, b
}

// BulkItem is one input to BulkLoad.
type BulkItem struct {
	Rect    geom.Rect
	Data    uint64    // the entry's id
	Summary []float64 // the entry's summary; one length across the items
}

// BulkLoad builds a tree over items with the Sort-Tile-Recursive algorithm:
// items are sorted and tiled into slabs dimension by dimension, packed into
// full leaves, and upper levels are packed recursively. The result is
// deterministic for a given input order. Capacity semantics match New.
// Every node's rows are copied into a fresh slab of its own.
func BulkLoad(items []BulkItem, min, max int) *Tree {
	t := New(min, max)
	t.relaxedMinFill = true
	if len(items) == 0 {
		return t
	}
	d, w := items[0].Rect.Dims(), len(items[0].Summary)
	for _, it := range items {
		if it.Rect.IsEmpty() || it.Rect.Dims() != d || len(it.Summary) != w {
			panic("rtree: cannot bulk load an empty rectangle or entries of different shapes")
		}
	}
	// pack tiles count entries into nodes of up to max, filling each with
	// add, in fresh slabs of the given stride.
	pack := func(count, stride int, leaf bool, center func(i, dim int) float64, add func(n *Node, i int)) (nodes []*Node) {
		order := make([]int, count)
		for i := range order {
			order[i] = i
		}
		strTile(order, 0, d, t.maxEntries, center, func(chunk []int) {
			n := &Node{leaf: leaf, packed: make([]float64, 0, len(chunk)*stride)}
			if leaf {
				n.ids = make([]uint64, 0, len(chunk))
			} else {
				n.kids = make([]*Node, 0, len(chunk))
			}
			for _, i := range chunk {
				add(n, i)
			}
			nodes = append(nodes, n)
		})
		return nodes
	}
	nodes := pack(len(items), 2*d+w, true, func(i, dim int) float64 {
		return items[i].Rect.Lo[dim] + items[i].Rect.Hi[dim]
	}, func(n *Node, i int) {
		n.appendLeaf(items[i].Rect, items[i].Data, items[i].Summary)
	})
	for t.height = 1; len(nodes) > 1; t.height++ {
		level := nodes
		boxes := make([]float64, 2*d*len(level)) // the level's MBRs, in order
		for i, n := range level {
			n.mbrInto(boxes[2*d*i:])
		}
		nodes = pack(len(level), 2*d, false, func(i, dim int) float64 {
			return boxes[2*d*i+dim] + boxes[2*d*i+d+dim]
		}, func(n *Node, i int) {
			n.appendRow(boxes[2*d*i:2*d*i+d], boxes[2*d*i+d:2*d*(i+1)], nil)
			n.kids = append(n.kids, level[i])
		})
	}
	t.root = nodes[0]
	t.size = len(items)
	return t
}

// strTile recursively slices entries into slabs along dimension dim so that
// the final chunks hold at most max entries, then emits them.
func strTile(order []int, dim, dims, max int, center func(i, dim int) float64, emit func([]int)) {
	if len(order) <= max {
		emit(order)
		return
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := center(a, dim), center(b, dim)
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return 0
	})
	if dim == dims-1 {
		// Last dimension: emit runs of max.
		for start := 0; start < len(order); start += max {
			emit(order[start:min(start+max, len(order))])
		}
		return
	}
	// Number of leaf pages below, spread across the remaining dimensions.
	pages := int(math.Ceil(float64(len(order)) / float64(max)))
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	per := int(math.Ceil(float64(len(order)) / float64(slabs)))
	for start := 0; start < len(order); start += per {
		strTile(order[start:min(start+per, len(order))], dim+1, dims, max, center, emit)
	}
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
//   - every node's slab holds one row per entry, an interior row is a
//     rectangle, and every non-empty leaf has the one stride.
func (t *Tree) CheckInvariants() error {
	leafDepth, leafStride := -1, -1
	count := 0
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		m := n.Len()
		switch {
		case m > t.maxEntries:
			return fmt.Errorf("node overflow: %d > %d", m, t.maxEntries)
		case m == 0 && n != t.root:
			return errors.New("empty non-root node")
		case !t.relaxedMinFill && n != t.root && m < t.minEntries:
			return fmt.Errorf("node underflow: %d < %d", m, t.minEntries)
		case len(n.packed) != n.stride*m:
			return fmt.Errorf("slab of %d floats for %d rows of stride %d", len(n.packed), m, n.stride)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaves at different depths: %d vs %d", depth, leafDepth)
			}
			if m > 0 {
				if leafStride == -1 {
					leafStride = n.stride
				} else if n.stride != leafStride {
					return fmt.Errorf("leaf rows of stride %d beside leaf rows of stride %d", n.stride, leafStride)
				}
			}
			count += m
			return nil
		}
		if n.stride != 2*n.dims {
			return fmt.Errorf("interior rows of stride %d at %d dims", n.stride, n.dims)
		}
		for i, k := range n.kids {
			if k == nil {
				return errors.New("interior entry without child")
			}
			child := k.Resolve()
			if got := child.Bounds(); !got.Equal(n.EntryRect(i)) {
				return fmt.Errorf("stale MBR: entry %v vs child %v", n.EntryRect(i), got)
			}
			if err := walk(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root.Resolve(), 1); err != nil {
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
