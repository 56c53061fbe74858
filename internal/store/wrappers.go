package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"fuzzyknn/internal/fuzzy"
)

// As finds the first layer of r's wrapper chain — r itself, then whatever
// each layer's Unwrap returns — that implements T. It is how every optional
// store capability (Mutator, BatchMutator, LivenessChecker, Checkpointer) is
// looked up, the errors.As shape: a wrapper implements only what it must
// intercept and exposes the rest of the stack through Unwrap, instead of
// forwarding every capability a store below it might have.
func As[T any](r Reader) (T, bool) {
	for r != nil {
		if t, ok := r.(T); ok {
			return t, true
		}
		u, ok := r.(interface{ Unwrap() Reader })
		if !ok {
			break
		}
		r = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Counting wraps a Reader and counts Get calls. It reproduces the paper's
// headline cost metric: every Get is one "object access" regardless of what
// the underlying reader does. Writes are not counted — the metric charges
// object retrievals only — so Counting intercepts none of them: As reaches
// the write, liveness and checkpoint sides through Unwrap. Safe for
// concurrent use.
type Counting struct {
	Reader
	n atomic.Int64
}

// NewCounting wraps r.
func NewCounting(r Reader) *Counting { return &Counting{Reader: r} }

// Get implements Reader, incrementing the access counter.
func (c *Counting) Get(id uint64) (*fuzzy.Object, error) {
	c.n.Add(1)
	return c.Reader.Get(id)
}

// Count returns the number of Get calls since construction or the last Reset.
func (c *Counting) Count() int64 { return c.n.Load() }

// Unwrap returns the wrapped reader, the next layer for As.
func (c *Counting) Unwrap() Reader { return c.Reader }

// Reset zeroes the access counter.
func (c *Counting) Reset() { c.n.Store(0) }

// asMutator resolves the write side of r's stack, or fails with ErrReadOnly.
func asMutator(r Reader) (Mutator, error) {
	if m, ok := As[Mutator](r); ok {
		return m, nil
	}
	return nil, fmt.Errorf("%w: %T has no write side", ErrReadOnly, r)
}

// forwardBatch routes a batch mutation to the wrapped store's batch side
// when it has one. A plain Mutator gets the items one by one — same
// outcome when everything is valid, but without cross-item atomicity: the
// first failure aborts with the items before it already applied.
func forwardBatch(r Reader, inserts []*fuzzy.Object, deletes []uint64) error {
	if bm, ok := As[BatchMutator](r); ok {
		return bm.ApplyBatch(inserts, deletes)
	}
	m, err := asMutator(r)
	if err != nil {
		return err
	}
	for i, o := range inserts {
		if err := m.Insert(o); err != nil {
			return &ItemError{Pos: i, Err: err}
		}
	}
	for i, id := range deletes {
		if err := m.Delete(id); err != nil {
			return &ItemError{Delete: true, Pos: i, Err: err}
		}
	}
	return nil
}

// LRU wraps a Reader with a fixed-capacity least-recently-used object cache.
// It is an extension beyond the paper (which always charges a probe) used by
// the cache-ablation benchmarks; place it *under* a Counting wrapper to keep
// the paper's accounting, or *over* one to count only cache misses. Of the
// optional capabilities it implements only the writes, which it must see to
// invalidate; As reaches the rest through Unwrap.
type LRU struct {
	inner    Reader
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *lruItem
	items map[uint64]*list.Element
	gen   uint64 // bumped by invalidate; stale fetches must not re-cache

	hits, misses atomic.Int64
}

type lruItem struct {
	id  uint64
	obj *fuzzy.Object
}

// NewLRU wraps r with a cache of at most capacity objects (capacity >= 1).
func NewLRU(r Reader, capacity int) *LRU {
	if capacity < 1 {
		panic("store: LRU capacity must be >= 1")
	}
	return &LRU{
		inner:    r,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[uint64]*list.Element),
	}
}

// Get implements Reader.
func (l *LRU) Get(id uint64) (*fuzzy.Object, error) {
	l.mu.Lock()
	if el, ok := l.items[id]; ok {
		l.ll.MoveToFront(el)
		obj := el.Value.(*lruItem).obj
		l.mu.Unlock()
		l.hits.Add(1)
		return obj, nil
	}
	gen := l.gen
	l.mu.Unlock()
	l.misses.Add(1)
	obj, err := l.inner.Get(id)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// An invalidate between the unlocked fetch and here means obj may be a
	// superseded version (delete + re-insert of the id); serve it to this
	// caller but do not cache it.
	if _, ok := l.items[id]; !ok && l.gen == gen {
		l.items[id] = l.ll.PushFront(&lruItem{id: id, obj: obj})
		if l.ll.Len() > l.capacity {
			victim := l.ll.Back()
			l.ll.Remove(victim)
			delete(l.items, victim.Value.(*lruItem).id)
		}
	}
	l.mu.Unlock()
	return obj, nil
}

// IDs implements Reader.
func (l *LRU) IDs() []uint64 { return l.inner.IDs() }

// Len implements Reader.
func (l *LRU) Len() int { return l.inner.Len() }

// Dims implements Reader.
func (l *LRU) Dims() int { return l.inner.Dims() }

// Unwrap returns the wrapped reader, the next layer for As.
func (l *LRU) Unwrap() Reader { return l.inner }

// Stats returns cache hits and misses since construction.
func (l *LRU) Stats() (hits, misses int64) { return l.hits.Load(), l.misses.Load() }

// invalidate drops id from the cache so the next Get refetches it, and
// bumps the generation so in-flight fetches cannot re-cache a stale copy.
// The generation is deliberately global rather than per-id: it only
// suppresses caching for fetches whose microsecond unlock window overlaps
// a mutation (the next Get of the same id caches normally), which costs
// far less than tracking per-id generations for every mutated id forever.
func (l *LRU) invalidate(id uint64) {
	l.mu.Lock()
	if el, ok := l.items[id]; ok {
		l.ll.Remove(el)
		delete(l.items, id)
	}
	l.gen++
	l.mu.Unlock()
}

// Insert implements Mutator by forwarding to the wrapped store's write side
// (ErrReadOnly when it has none), invalidating any cached version of the id.
func (l *LRU) Insert(o *fuzzy.Object) error {
	m, err := asMutator(l.inner)
	if err != nil {
		return err
	}
	if err := m.Insert(o); err != nil {
		return err
	}
	l.invalidate(o.ID())
	return nil
}

// Delete implements Mutator by forwarding; the cached version is dropped so
// a later re-insert of the id cannot serve stale data.
func (l *LRU) Delete(id uint64) error {
	m, err := asMutator(l.inner)
	if err != nil {
		return err
	}
	if err := m.Delete(id); err != nil {
		return err
	}
	l.invalidate(id)
	return nil
}

// ApplyBatch implements BatchMutator by forwarding the group. Every
// touched id is invalidated even on failure: a rejected batch applied
// nothing on a real BatchMutator, but the sequential fallback over a plain
// Mutator may have landed a prefix, and a spurious invalidation only costs
// a refetch.
func (l *LRU) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	err := forwardBatch(l.inner, inserts, deletes)
	for _, o := range inserts {
		if o != nil {
			l.invalidate(o.ID())
		}
	}
	for _, id := range deletes {
		l.invalidate(id)
	}
	return err
}
