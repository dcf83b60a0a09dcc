package serve

import (
	"sync"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/lru"
)

// Entry is one cached federated answer: the materialised rows of a
// SELECT (or the boolean of an ASK) plus a trimmed per-dataset summary,
// under the owl:sameAs-canonicalised cache key. An entry is shared by
// every hit and read-only once stored.
type Entry struct {
	// Key is the canonicalised (query, limit, source set) fingerprint the
	// mediator computed.
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

	expires time.Time
}

// CacheMetrics are the cache's lifetime counters.
type CacheMetrics struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// CacheMaxRows caps how many solutions one entry may hold; larger
// answers are never cached.
const CacheMaxRows = 10000

// ResultCache is a size- and TTL-bounded LRU of federated answers.
//
// A fill follows the stale-fill rule of every mediator cache (package
// lru): callers snapshot Version before executing and pass it to Put;
// any invalidation — targeted or full — moves the version, so an answer
// computed against pre-invalidation state is silently discarded instead
// of cached. Safe for concurrent use.
type ResultCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries *lru.Cache[string, *Entry]
	m       CacheMetrics

	// now is the TTL clock, injectable for deterministic tests.
	now func() time.Time
}

// NewResultCache builds a cache of at most size entries, each living at
// most ttl.
func NewResultCache(size int, ttl time.Duration) *ResultCache {
	return &ResultCache{ttl: ttl, entries: lru.New[string, *Entry](size), now: time.Now}
}

// Version returns the invalidation epoch. Snapshot it before computing
// an answer and hand it to Put: a Put under a stale version is a no-op.
func (c *ResultCache) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Epoch()
}

// Get returns the live entry under key, counting hit or miss. Expired
// entries count as misses and are dropped.
func (c *ResultCache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(key)
	if ok {
		if c.now().Before(e.expires) {
			c.m.Hits++
			return e, true
		}
		c.entries.Remove(key)
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
	if e.Rows.N > CacheMaxRows {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.expires = c.now().Add(c.ttl)
	stored, evicted := c.entries.Put(e.Key, e, version)
	if evicted {
		c.m.Evictions++
	}
	return stored
}

// Flush drops everything and moves the invalidation epoch, so in-flight
// fills that read the old state never land (a voiD or alignment change
// can alter any answer).
func (c *ResultCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Invalidations += uint64(c.entries.Clear())
}

// Len reports how many entries are cached (expired ones included until
// touched).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Metrics returns the lifetime counters.
func (c *ResultCache) Metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}
