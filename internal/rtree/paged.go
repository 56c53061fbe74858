package rtree

import "fuzzyknn/internal/geom"

// Page-backed trees.
//
// A tree served from disk keeps only its root node resident; every interior
// entry points at a stub — a node carrying nothing but a (source, page)
// reference. Traversals resolve a stub exactly when they visit it, so the
// best-first algorithms fault in only the pages their priority order
// actually reaches. Resolution yields an ordinary decoded node (a "frame"),
// typically served from the source's block cache; frames are immutable and
// garbage-collected, so a frame evicted from the cache stays valid for any
// traversal still holding it.

// NodeSource supplies decoded nodes for page-backed trees. Load returns the
// decoded frame for the given page and whether it was served from cache
// (false = a page read was performed). Implementations must be safe for
// concurrent use and must return a usable node — on an unrecoverable read
// error they record it (fail-stop) and return an empty leaf so traversals
// terminate; callers surface the recorded error at query end.
type NodeSource interface {
	Load(page uint32) (n *Node, hit bool)
}

// NewStub returns a placeholder node that Resolve loads from src on demand.
func NewStub(src NodeSource, page uint32) *Node {
	return &Node{src: src, page: page}
}

// Entry is one entry of a frame NewFrame builds: an interior entry's Rect
// and Child, or a leaf entry's Rect, ID and Summary.
type Entry struct {
	Rect    geom.Rect
	Child   *Node
	ID      uint64
	Summary []float64
}

// NewFrame builds a decoded node from final entries, laying their rows out
// in a fresh slab.
func NewFrame(leaf bool, entries []Entry) *Node {
	n := &Node{leaf: leaf}
	for _, e := range entries {
		if leaf {
			n.appendLeaf(e.Rect, e.ID, e.Summary)
		} else {
			n.appendRow(e.Rect.Lo, e.Rect.Hi, nil)
			n.kids = append(n.kids, e.Child)
		}
	}
	return n
}

// NewLeaf returns a leaf frame that adopts its rows and ids: entry i is
// ids[i] beside the i-th of len(ids) equal rows of packed, each a
// rectangle's corners at d = dims, then a summary.
func NewLeaf(dims int, packed []float64, ids []uint64) *Node {
	n := &Node{leaf: true, dims: dims, stride: 2 * dims, packed: packed, ids: ids}
	if len(ids) > 0 {
		n.stride = len(packed) / len(ids)
	}
	return n
}

// NewInterior returns an interior frame that adopts its rows and children:
// entry i is kids[i] with the rectangle packed[2d·i : 2d·(i+1)], d = dims.
func NewInterior(dims int, packed []float64, kids []*Node) *Node {
	return &Node{dims: dims, stride: 2 * dims, packed: packed, kids: kids}
}

// Source returns the node's page source (nil for in-memory nodes).
func (n *Node) Source() NodeSource { return n.src }

// Page returns the page backing a stub node.
func (n *Node) Page() uint32 { return n.page }

// Resolve returns the node's decoded form: n itself for in-memory nodes and
// resolved frames, or the frame loaded from the node's source for stubs.
func (n *Node) Resolve() *Node {
	if n.src == nil {
		return n
	}
	f, _ := n.src.Load(n.page)
	return f
}

// NewPagedTree assembles a read-only tree over page-backed nodes. root must
// already be resolved (it stays resident for the tree's lifetime); interior
// entries below it hold stubs. size and height come from the page file's
// manifest. Paged trees use relaxed min-fill: they are bulk-loaded shapes
// and are never mutated.
func NewPagedTree(root *Node, height, size, min, max int) *Tree {
	lineage := uint64(1)
	return &Tree{
		root:           root,
		minEntries:     min,
		maxEntries:     max,
		height:         height,
		size:           size,
		gen:            1,
		lineage:        &lineage,
		relaxedMinFill: true,
	}
}
