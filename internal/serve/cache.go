package serve

import (
	"container/list"
	"sync"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
)

// Entry is one cached federated answer: the materialised rows of a
// SELECT (or the boolean of an ASK) plus a trimmed per-dataset summary,
// under the owl:sameAs-canonicalised cache key. An entry is shared by
// every hit and read-only once stored.
type Entry struct {
	// Key is the canonicalised (query, source ontology, targets, limit)
	// fingerprint the mediator computed.
	Key string
	// Vars are the projection variables; Rows the merged rows over them,
	// back to back in one buffer.
	Vars []string
	Rows eval.RowBuf
	// Ask carries the ASK outcome; IsAsk discriminates (an ASK entry has
	// no Rows).
	Ask   bool
	IsAsk bool
	// Summary is the fan-out summary at fill time, Solutions stripped.
	Summary *federate.Result
	// Datasets are the data set URIs the answer was assembled from, for
	// voiD-subscription invalidation.
	Datasets []string

	expires time.Time
}

// CacheMetrics are the cache's lifetime counters.
type CacheMetrics struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// ResultCache is a size- and TTL-bounded LRU of federated answers.
//
// Stale-fill protection mirrors the rewrite-plan cache's in-flight
// invalidation (PR 2): callers snapshot Version before executing and
// pass it to Put; any invalidation — targeted or full — bumps the
// version, so an answer computed against pre-invalidation state is
// silently discarded instead of cached. Safe for concurrent use.
type ResultCache struct {
	mu      sync.Mutex
	size    int
	ttl     time.Duration
	maxRows int
	lru     *list.List // of *Entry, front = most recent
	byKey   map[string]*list.Element
	version uint64
	m       CacheMetrics

	// now is the TTL clock, injectable for deterministic tests.
	now func() time.Time
}

// NewResultCache builds a cache of at most size entries, each living at
// most ttl and holding at most maxRows solutions.
func NewResultCache(size int, ttl time.Duration, maxRows int) *ResultCache {
	return &ResultCache{
		size:    size,
		ttl:     ttl,
		maxRows: maxRows,
		lru:     list.New(),
		byKey:   map[string]*list.Element{},
		now:     time.Now,
	}
}

// MaxRows is the per-entry solution cap; fills that exceed it must not
// be cached.
func (c *ResultCache) MaxRows() int { return c.maxRows }

// Version returns the invalidation epoch. Snapshot it before computing
// an answer and hand it to Put: a Put under a stale version is a no-op.
func (c *ResultCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Get returns the live entry under key, counting hit or miss. Expired
// entries count as misses and are dropped.
func (c *ResultCache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if ok {
		e := el.Value.(*Entry)
		if c.now().Before(e.expires) {
			c.lru.MoveToFront(el)
			c.m.Hits++
			return e, true
		}
		c.removeLocked(el)
		c.m.Evictions++
	}
	c.m.Misses++
	return nil, false
}

// Put inserts the entry unless the invalidation epoch moved past
// version while the answer was being computed (the stale in-flight
// fill) or the entry exceeds the row cap. It reports whether the entry
// was stored.
func (c *ResultCache) Put(e *Entry, version uint64) bool {
	if e.Rows.N > c.maxRows {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		return false
	}
	if el, ok := c.byKey[e.Key]; ok {
		c.removeLocked(el)
	}
	e.expires = c.now().Add(c.ttl)
	c.byKey[e.Key] = c.lru.PushFront(e)
	for c.lru.Len() > c.size {
		c.removeLocked(c.lru.Back())
		c.m.Evictions++
	}
	return true
}

func (c *ResultCache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.byKey, el.Value.(*Entry).Key)
}

// InvalidateDataset drops every entry whose answer touched the data set
// and bumps the invalidation epoch, so in-flight fills that read the
// old state never land. Returns how many entries were dropped.
func (c *ResultCache) InvalidateDataset(uri string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	n := 0
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*Entry)
		for _, ds := range e.Datasets {
			if ds == uri {
				c.removeLocked(el)
				c.m.Invalidations++
				n++
				break
			}
		}
	}
	return n
}

// Flush drops everything and bumps the invalidation epoch (alignment
// changes can alter any rewritten answer).
func (c *ResultCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	c.m.Invalidations += uint64(c.lru.Len())
	c.lru.Init()
	c.byKey = map[string]*list.Element{}
}

// Len reports how many entries are cached (expired ones included until
// touched).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Metrics returns the lifetime counters.
func (c *ResultCache) Metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}
