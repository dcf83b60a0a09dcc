package federate

import (
	"sync"

	"sparqlrw/internal/lru"
)

// PlanCache is an LRU cache of rewrite plans — the executor's are
// templates of rewritten query shapes — keyed by (query shape, target
// dataset), with singleflight-style deduplication:
// concurrent requests for the same missing key compute the rewrite once
// and share the result. A nil *PlanCache is a valid no-op cache (every Do
// computes).
type PlanCache[V any] struct {
	mu      sync.Mutex
	plans   *lru.Cache[PlanKey, V]
	flights map[PlanKey]*flight[V]
	hits    uint64 // includes singleflight waiters: they avoided a rewrite
	misses  uint64
}

// PlanKey identifies one rewrite: the sub-query's shape (the text
// sparql.Template.Key returns) and the data set it is rewritten for.
type PlanKey struct {
	Query, Dataset string
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewPlanCache returns a cache holding at most capacity plans; capacity
// <= 0 returns nil (caching disabled).
func NewPlanCache[V any](capacity int) *PlanCache[V] {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache[V]{plans: lru.New[PlanKey, V](capacity), flights: make(map[PlanKey]*flight[V])}
}

// Do returns the cached plan for key, or computes it with compute,
// deduplicating concurrent computations of the same key. cached reports
// whether the value was served without running compute in this goroutine.
// Errors are not cached: a failed compute leaves the key absent, and so
// does one an invalidation overtook (its waiters still get the value).
func (c *PlanCache[V]) Do(key PlanKey, compute func() (V, error)) (val V, cached bool, err error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	c.mu.Lock()
	if v, ok := c.plans.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	epoch := c.plans.Epoch()
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.plans.Put(key, f.val, epoch)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Invalidate removes every cached plan whose target data set satisfies
// match (nil matches everything); no rewrite in flight across the call is
// cached. It returns the number of cached entries removed.
func (c *PlanCache[V]) Invalidate(match func(dataset string) bool) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.RemoveFunc(func(k PlanKey, _ V) bool { return match == nil || match(k.Dataset) })
}

// Len returns the number of cached plans.
func (c *PlanCache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Len()
}

// Metrics returns the cumulative hit/miss counters (singleflight waiters
// count as hits).
func (c *PlanCache[V]) Metrics() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
