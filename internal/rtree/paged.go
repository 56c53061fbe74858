package rtree

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

// PageCounts accumulates page-load accounting across one traversal.
type PageCounts struct {
	Reads int // loads that missed the cache (one page read each)
	Hits  int // loads served from the cache
}

// NewStub returns a placeholder node that Resolve loads from src on demand.
func NewStub(src NodeSource, page uint32) *Node {
	return &Node{src: src, page: page}
}

// NewFrame builds a decoded page-backed node from final entries (the slice
// is retained). The packed slab is built immediately.
func NewFrame(leaf bool, entries []Entry) *Node {
	n := &Node{leaf: leaf, entries: entries}
	n.pack()
	return n
}

// NewLeafFrame is NewFrame for a decoded leaf that already has its packed
// slab: packed holds, for every entry in order, its rectangle's corners and
// its payload's summary — exactly what pack would lay out — and the frame
// adopts it instead of building its own. A page decoder reads each record
// into packed and hands the entry and its payload views of it, so a page's
// rectangles and summaries are held once.
func NewLeafFrame(entries []Entry, packed []float64) *Node {
	n := &Node{leaf: true, entries: entries}
	if len(entries) > 0 {
		n.packed, n.dims, n.stride = packed, entries[0].Rect.Dims(), len(packed)/len(entries)
	}
	return n
}

// Source returns the node's page source (nil for in-memory nodes).
func (n *Node) Source() NodeSource { return n.src }

// Page returns the page backing a stub node.
func (n *Node) Page() uint32 { return n.page }

// Resolve returns the node's decoded form: n itself for in-memory nodes and
// resolved frames, or the frame loaded from the node's source for stubs.
// When c is non-nil, a stub resolution charges it one read or one hit.
func (n *Node) Resolve(c *PageCounts) *Node {
	if n.src == nil {
		return n
	}
	f, hit := n.src.Load(n.page)
	if c != nil {
		if hit {
			c.Hits++
		} else {
			c.Reads++
		}
	}
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
