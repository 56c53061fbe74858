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
// store capability (Mutator, LivenessChecker, Checkpointer) is looked up,
// the errors.As shape: a wrapper implements only what it must intercept and
// exposes the rest of the stack through Unwrap, instead of forwarding every
// capability a store below it might have.
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

// LRU wraps a Reader with a fixed-capacity least-recently-used object cache.
// It is an extension beyond the paper (which always charges a probe) used by
// the cache-ablation benchmarks; place it *under* a Counting wrapper to keep
// the paper's accounting, or *over* one to count only cache misses. Of the
// optional capabilities it implements only the write, which it must see to
// invalidate; As reaches the rest through Unwrap.
type LRU struct {
	inner    Reader
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *lruItem
	items map[uint64]*list.Element
	gen   uint64 // bumped by every committed write; stale fetches must not re-cache

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
	// A committed write between the unlocked fetch and here means obj may
	// be a superseded version (delete + re-insert of the id); serve it to
	// this caller but do not cache it.
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

// ApplyBatch implements Mutator by forwarding the group to the wrapped
// store's write side (ErrReadOnly when it has none) and dropping every id a
// committed group touched, so a later re-insert of a deleted id cannot
// serve stale data. The generation bump keeps in-flight fetches from
// re-caching a superseded copy; it is deliberately global rather than
// per-id: it only suppresses caching for fetches whose microsecond unlock
// window overlaps a mutation (the next Get of the same id caches normally),
// which costs far less than tracking per-id generations for every mutated
// id forever. A refused group applied nothing, so it invalidates nothing.
func (l *LRU) ApplyBatch(inserts []*fuzzy.Object, deletes []uint64) error {
	m, ok := As[Mutator](l.inner)
	if !ok {
		return fmt.Errorf("%w: %T has no write side", ErrReadOnly, l.inner)
	}
	if err := m.ApplyBatch(inserts, deletes); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	drop := func(id uint64) {
		if el, ok := l.items[id]; ok {
			l.ll.Remove(el)
			delete(l.items, id)
		}
	}
	for _, o := range inserts {
		drop(o.ID())
	}
	for _, id := range deletes {
		drop(id)
	}
	l.gen++
	return nil
}
