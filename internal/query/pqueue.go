package query

import (
	"fuzzyknn/internal/rtree"
)

// Element kinds in the best-first priority queue. The kind participates in
// the ordering: at equal keys, nodes resolve before leaf entries and leaf
// entries before exact objects, so an object is emitted only after every
// equal-keyed lower bound has been refined. Together with the object-id
// tiebreak this makes the emitted order deterministic under distance ties
// (ranking by (distance, id)).
const (
	kindNode int8 = iota
	kindLeaf
	kindObject
)

// pqItem is one priority-queue element: an R-tree node keyed by MinDist, an
// unresolved leaf entry keyed by its lower bound, or a probed object keyed
// by its exact α-distance. A cheap leaf entry's key is a lower bound of the
// one the search gives it when it reaches the top (aknnRun.refineTop).
// tree is the index of the tree the element came from in the searched
// forest (always 0 on a single tree); it and cheap sit in the padding after
// kind, so the element stays 48 bytes.
type pqItem struct {
	key   float64
	kind  int8
	cheap bool
	tree  int32
	id    uint64      // object id for leaf/object entries; 0 for nodes
	node  *rtree.Node // the node to expand, or the leaf holding the entry
	ent   int         // the entry's index in node, for kindLeaf
	dist  float64     // exact α-distance for kindObject
}

// lessThan is the queue's strict weak order: (key, kind, id) ascending.
func (a pqItem) lessThan(b pqItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

// bestFirstQueue is the typed binary heap of the best-first searches; see
// typedHeap for why it is not container/heap.
type bestFirstQueue struct{ typedHeap[pqItem] }

func (q *bestFirstQueue) PeekKey() float64 { return q.h[0].key }
func (q *bestFirstQueue) PeekKind() int8   { return q.h[0].kind }
func (q *bestFirstQueue) PeekCheap() bool  { return q.h[0].cheap }
