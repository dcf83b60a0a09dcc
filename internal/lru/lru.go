// Package lru is the one least-recently-used map behind the mediator's
// caches: the rewrite-plan cache (federate), the federated result cache
// (serve) and the observed-cardinality store (obs).
//
// Its epoch is the one stale-fill rule they share. The voiD and
// alignment KBs change while the mediator runs, so a value computed
// before an invalidation may describe the old state: a filler snapshots
// Epoch before computing and hands it to Put, and Put refuses the value
// if any invalidation has happened since.
package lru

import (
	"container/list"
	"iter"
)

// Cache is a map bounded to a fixed number of keys that evicts the least
// recently used one. It does no locking: its owner serialises every call.
type Cache[K comparable, V any] struct {
	capacity int
	ll       *list.List // of *entry[K, V], front = most recently used
	items    map[K]*list.Element
	epoch    uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity keys.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Epoch returns the invalidation epoch: snapshot it before computing a
// value and pass it to Put.
func (c *Cache[K, V]) Epoch() uint64 { return c.epoch }

// Put stores val under key as the most recently used entry, evicting the
// least recently used one past capacity. It stores nothing when an
// invalidation has moved the epoch past the snapshot the value was
// computed under. It reports whether val was stored and whether an entry
// was evicted for it.
func (c *Cache[K, V]) Put(key K, val V, epoch uint64) (stored, evicted bool) {
	if epoch != c.epoch {
		return false, false
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return true, false
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key, val})
	for c.ll.Len() > c.capacity {
		c.remove(c.ll.Back())
		evicted = true
	}
	return true, evicted
}

// Remove drops key, as an expiry does: it is not an invalidation and
// leaves the epoch alone.
func (c *Cache[K, V]) Remove(key K) {
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

// RemoveFunc invalidates every entry match selects and advances the
// epoch, so values computed before the call are not stored after it. It
// returns how many entries it dropped.
func (c *Cache[K, V]) RemoveFunc(match func(K, V) bool) int {
	c.epoch++
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); match(e.key, e.val) {
			c.remove(el)
			n++
		}
		el = next
	}
	return n
}

// Clear invalidates every entry and advances the epoch. It returns how
// many entries it dropped.
func (c *Cache[K, V]) Clear() int {
	c.epoch++
	n := c.ll.Len()
	c.ll.Init()
	clear(c.items)
	return n
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// All yields every entry from the least to the most recently used,
// without changing recency, so Putting them back in order into an empty
// cache restores it.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry[K, V]); !yield(e.key, e.val) {
				return
			}
		}
	}
}

func (c *Cache[K, V]) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*entry[K, V]).key)
}
