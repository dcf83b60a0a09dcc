package serve

import (
	"slices"
	"sync"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/lru"
)

// Entry is one cached federated answer: the materialised rows of a
// SELECT (or the boolean of an ASK) plus a trimmed per-dataset summary,
// under the owl:sameAs-canonicalised cache key and the text keys of the
// requests it answered (see ResultCache). An entry is shared by every hit
// and read-only once stored.
type Entry struct {
	// Key is the canonicalised (query, limit, source set) fingerprint the
	// mediator computed.
	Key string
	// Vars are the projection variables; Rows the merged rows over them,
	// back to back in one buffer.
	Vars []string
	Rows eval.RowBuf
	// Ask carries the ASK outcome; IsAsk discriminates (an ASK entry has
	// no Rows). A hit by text key learns the query's form from it alone.
	Ask   bool
	IsAsk bool
	// Summary is the fan-out summary at fill time, Solutions stripped.
	Summary *federate.Result

	expires time.Time
	// texts are the text keys bound to the entry, which die with it.
	// Guarded by the cache's mutex; hits never read them.
	texts []textKey
}

// CacheMetrics are the cache's lifetime counters.
type CacheMetrics struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// ResultCache is a size- and TTL-bounded LRU of federated answers, each
// under its canonical key, with a text index beside it.
//
// The text index maps a request's text key — its tenant, and its limit,
// targets and query text as sent — to the answer that request hit or
// filled under its canonical key (Bind), so a repeated request finds its
// answer (GetText) before the mediator parses anything. The tenant is the
// *Tenant itself, not its ID: two tenants are one only when they are one
// value, and so one policy. A text key lives only as long as its answer:
// the answer's eviction, expiry or Flush drops it. The index holds at most
// as many text keys as the cache holds answers; Len counts answers.
//
// A fill follows the stale-fill rule of every mediator cache (package
// lru): callers snapshot Version before executing and pass it to Put and
// Bind; any invalidation — targeted or full — moves the version, so an
// answer computed against pre-invalidation state, or a text key learnt
// from one, is silently discarded instead of cached. A request moves Hits
// or Misses once: a hit by text counts, a miss by text does not (the
// lookup by canonical key that follows it counts). Safe for concurrent
// use.
type ResultCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	size    int
	entries *lru.Cache[string, *Entry]
	texts   map[textKey]textRef
	m       CacheMetrics

	// now is the TTL clock, injectable for deterministic tests.
	now func() time.Time
}

// textKey is a request's text key: its tenant and the rest of its text.
type textKey struct {
	tenant *Tenant
	text   string
}

// textRef is a text key's binding: its answer, and the query a hit's
// trace shows ("" for the text itself).
type textRef struct {
	e     *Entry
	shown string
}

// NewResultCache builds a cache of at most size entries, each living at
// most ttl.
func NewResultCache(size int, ttl time.Duration) *ResultCache {
	c := &ResultCache{ttl: ttl, size: size, entries: lru.New[string, *Entry](size),
		texts: make(map[textKey]textRef), now: time.Now}
	c.entries.Dropped = func(_ string, e *Entry) { c.unbindAll(e) }
	return c
}

// Version returns the invalidation epoch. Snapshot it before computing
// an answer and hand it to Put and Bind: under a stale version both are
// no-ops.
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
		c.expire(e)
	}
	c.m.Misses++
	return nil, false
}

// GetText returns the live entry bound to a request's text key and the
// query a hit's trace shows ("" for the text itself). A hit counts, and
// marks the entry used, as a hit by its canonical key does; a miss counts
// nothing. An expired entry is dropped with its keys.
func (c *ResultCache) GetText(tenant *Tenant, text []byte) (e *Entry, shown string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.texts[textKey{tenant, string(text)}]
	if !ok {
		return nil, "", false
	}
	if !c.now().Before(ref.e.expires) {
		c.expire(ref.e)
		return nil, "", false
	}
	c.entries.Get(ref.e.Key)
	c.m.Hits++
	return ref.e, ref.shown, true
}

// Bind records (tenant, text) as a text key of e, the entry its request
// hit or filled under its canonical key, with the query a later hit's
// trace shows ("" for the text itself). version is the one the request
// snapshotted before that lookup or fill: past an invalidation, or once e
// has left the cache, Bind records nothing. When the index is full, an
// arbitrary other text key makes room. It reports whether text is bound.
func (c *ResultCache) Bind(tenant *Tenant, text string, e *Entry, shown string, version uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.entries.Epoch() {
		return false
	}
	if live, ok := c.entries.Get(e.Key); !ok || live != e {
		return false
	}
	k := textKey{tenant, text}
	if ref, ok := c.texts[k]; ok {
		c.unbind(k, ref.e)
	}
	for other, ref := range c.texts {
		if len(c.texts) < c.size {
			break
		}
		c.unbind(other, ref.e)
	}
	c.texts[k] = textRef{e: e, shown: shown}
	e.texts = append(e.texts, k)
	return true
}

// expire drops an expired entry and its text keys.
func (c *ResultCache) expire(e *Entry) {
	c.entries.Remove(e.Key)
	c.unbindAll(e)
	c.m.Evictions++
}

func (c *ResultCache) unbind(k textKey, e *Entry) {
	delete(c.texts, k)
	if i := slices.Index(e.texts, k); i >= 0 {
		e.texts = slices.Delete(e.texts, i, i+1)
	}
}

func (c *ResultCache) unbindAll(e *Entry) {
	for _, k := range e.texts {
		delete(c.texts, k)
	}
	e.texts = nil
}

// Put inserts the entry unless the invalidation epoch moved past
// version while the answer was being computed (the stale in-flight
// fill) or the entry exceeds the held-rows cap (eval.MaxHeldRows). It
// reports whether the entry was stored.
func (c *ResultCache) Put(e *Entry, version uint64) bool {
	if e.Rows.N > eval.MaxHeldRows {
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
	clear(c.texts)
}

// Len reports how many answers are cached (expired ones included until
// touched); their text keys do not count.
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
