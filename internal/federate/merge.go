package federate

import (
	"context"
	"slices"
	"sync"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
)

// sink is a fan-out's row path from its workers to Fanout.Run: the batch
// channel, and the free list through which Run hands a full-size slab
// back to the workers once its rows are delivered. The workers
// canonicalise their batches through the executor's representative cache
// before they push them.
type sink struct {
	batches chan batch
	mu      sync.Mutex
	free    [batchDepth][]rdf.Term // free[:nfree] are slabs of maxBatchRows rows
	nfree   int
}

// lane is one target's way into the fan-out's sink: the batches pushed
// through it carry the target's index in the request.
type lane struct {
	*sink
	target int
}

// batch is a run of rows of one slab, from the request's target-th
// target. slab is set on the batch that holds the last rows of a
// full-size slab: the whole slab, free again once the batch is delivered,
// since a worker's batches are delivered in the order it pushed them.
type batch struct {
	eval.RowBuf
	target int
	slab   []rdf.Term
}

// push hands b to the fan-out's loop. While the push blocks on a full
// channel (the consumer is applying backpressure) the attempt's
// active-time deadline is paused; false means the fan-out was cancelled
// meanwhile.
func (s *sink) push(parent context.Context, b batch, pd *pausableDeadline) bool {
	select {
	case s.batches <- b:
		return true
	default:
	}
	pd.Pause()
	defer pd.Resume()
	select {
	case s.batches <- b:
		return true
	case <-parent.Done():
		return false
	}
}

// slab returns a slab of size terms: a free one, or a new one when there
// is none.
func (s *sink) slab(size int) []rdf.Term {
	s.mu.Lock()
	if s.nfree > 0 && len(s.free[s.nfree-1]) == size {
		s.nfree--
		slab := s.free[s.nfree]
		s.free[s.nfree] = nil
		s.mu.Unlock()
		return slab
	}
	s.mu.Unlock()
	return make([]rdf.Term, size)
}

// recycle puts a delivered slab on the free list, unless the list is
// full; its rows' terms stay until a worker decodes over them.
func (s *sink) recycle(slab []rdf.Term) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nfree < len(s.free) {
		s.free[s.nfree] = slab
		s.nfree++
	}
}

// merger is the fan-out's deduplicator: Fanout.Run hands it each batch of
// rows the workers canonicalised, and it drops the rows seen before —
// whole endpoints are never buffered. One merger serves one fan-out, on
// Run's goroutine, so it needs no locking.
type merger struct {
	seen       eval.KeySet
	duplicates int
}

// merge takes ownership of the batch: the rows not seen before are moved
// to the front and returned.
func (m *merger) merge(b eval.RowBuf) eval.RowBuf {
	kept := 0
	for i := range b.N {
		row := b.Row(i)
		if !m.seen.AddRow(row) {
			m.duplicates++
			continue
		}
		copy(b.Row(kept), row)
		kept++
	}
	b.N, b.Terms = kept, b.Terms[:kept*b.Width]
	return b
}

// RepCache is the mediator's one co-reference cache: the owl:sameAs class
// of every IRI a query names or an endpoint returns, as the sameas
// function, the planner's owner lookup, the fan-out's workers and the
// join engine ask for it. It is a funcs.CorefSource over another one.
//
// One fill caches a whole class: every member maps to one entry, sorted
// once and shared read-only, whose first member is the representative.
// Fills run in flights (flightCache), so concurrent requests ask the
// source once per IRI. A failed lookup of a source that reports failures
// (coref.Client.Lookup) answers the singleton class and stores nothing, so
// the next lookup asks again. Entries are valid while the source's epoch
// (coref.Store.Epoch) stands; a source without one keeps them for
// corefTTL. It is safe for concurrent use; a nil *RepCache is no
// co-reference: every IRI its own class.
type RepCache struct {
	lookup func(uri string) ([]string, error)
	epoch  interface{ Epoch() uint64 } // nil: entries expire after corefTTL
	seen   uint64                      // the source epoch the entries were filled under
	c      flightCache[string, *corefClass]
}

// repCacheCapacity bounds a RepCache to this many IRIs, each class member
// one: 13 MB of heap when full of two-member classes of 50-byte IRIs, and
// far more IRIs than the mediator's working set (a few thousand for the
// benchmark's universe).
const repCacheCapacity = 1 << 16

// corefTTL is how long a class from a source without an epoch (a remote
// coref.Client) is served before it is asked again: the result cache's
// default TTL.
const corefTTL = 5 * time.Minute

// lookuper is a coref source that reports a failed lookup
// (coref.Client).
type lookuper interface {
	Lookup(uri string) ([]string, error)
}

// corefClass is one owl:sameAs class, shared by its members' entries.
type corefClass struct {
	members []string  // sorted, never modified
	rep     rdf.Term  // members[0] as an IRI term
	expires time.Time // zero: until the source's epoch moves
}

// NewRepCache returns the co-reference cache over coref: coref itself
// when it is one already, nil (no co-reference) when it is nil.
func NewRepCache(coref funcs.CorefSource) *RepCache {
	switch src := coref.(type) {
	case nil:
		return nil
	case *RepCache:
		return src
	}
	c := &RepCache{c: newFlightCache[string, *corefClass](repCacheCapacity)}
	if l, ok := coref.(lookuper); ok {
		c.lookup = l.Lookup
	} else {
		c.lookup = func(uri string) ([]string, error) { return coref.Equivalents(uri), nil }
	}
	if e, ok := coref.(interface{ Epoch() uint64 }); ok {
		c.epoch, c.seen = e, e.Epoch()
	}
	return c
}

// Equivalents returns uri's owl:sameAs class, sorted. The slice is shared:
// callers must not modify it.
func (c *RepCache) Equivalents(uri string) []string {
	if c == nil {
		return []string{uri}
	}
	return c.class(uri).members
}

// Term returns the representative of the IRI term's class as a term;
// other terms pass through.
func (c *RepCache) Term(t rdf.Term) rdf.Term {
	if c == nil || !t.IsIRI() {
		return t
	}
	return c.class(t.Value).rep
}

// Triple canonicalises the three terms of t.
func (c *RepCache) Triple(t rdf.Triple) rdf.Triple {
	return rdf.Triple{S: c.Term(t.S), P: c.Term(t.P), O: c.Term(t.O)}
}

// canonicalise rewrites the IRIs of a batch's terms to their
// representatives in place. The cached ones are read under one hold of
// the lock; only when some are not does the worker ask for them, with the
// attempt's clock pd paused, so neither its deadline nor the endpoint's
// latency pays for the coref source.
func (c *RepCache) canonicalise(terms []rdf.Term, pd *pausableDeadline) {
	if c == nil {
		return
	}
	now, missed := c.now(), false
	c.c.mu.Lock()
	c.sync()
	for i, t := range terms {
		if !t.IsIRI() {
			continue
		}
		if cl, ok := c.get(t.Value, now); ok {
			terms[i] = cl.rep
		} else {
			missed = true
		}
	}
	c.c.mu.Unlock()
	if !missed {
		return
	}
	pd.Pause()
	defer pd.Resume()
	for i, t := range terms {
		terms[i] = c.Term(t) // a representative is cached as its own
	}
}

// class returns uri's class, cached or filled.
func (c *RepCache) class(uri string) *corefClass {
	now := c.now()
	c.c.mu.Lock()
	c.sync()
	if cl, ok := c.get(uri, now); ok {
		c.c.mu.Unlock()
		return cl
	}
	cl, _, _ := c.c.fill(uri, func() (*corefClass, error) { return c.ask(uri) }, c.store)
	return cl
}

// ask asks the source for uri's class. On a failure it answers the
// singleton class with the error, which keeps the fill from storing it.
func (c *RepCache) ask(uri string) (*corefClass, error) {
	eq, err := c.lookup(uri)
	if err != nil || len(eq) == 0 {
		eq = []string{uri}
	}
	if !slices.IsSorted(eq) {
		eq = slices.Sorted(slices.Values(eq))
	}
	if i, found := slices.BinarySearch(eq, uri); !found {
		eq = slices.Insert(slices.Clip(eq), i, uri)
	}
	cl := &corefClass{members: eq, rep: rdf.NewIRI(eq[0])}
	if c.epoch == nil {
		cl.expires = time.Now().Add(corefTTL)
	}
	return cl, err
}

// store puts a filled class under each of its members, unless the
// source's epoch moved since the fill began. Called with the lock held.
func (c *RepCache) store(cl *corefClass, epoch uint64) {
	c.sync()
	for _, m := range cl.members {
		c.c.lru.Put(m, cl, epoch)
	}
}

// sync drops every entry once the source's epoch has moved; clearing
// moves the cache's own epoch, so no fill begun before is stored, and
// detaching the flights in progress keeps a later lookup from waiting on
// one. Called with the lock held.
func (c *RepCache) sync() {
	if c.epoch == nil {
		return
	}
	if e := c.epoch.Epoch(); e != c.seen {
		c.seen = e
		c.c.lru.Clear()
		clear(c.c.flights)
	}
}

// now is the time entries expire against: the zero time when they do not.
func (c *RepCache) now() time.Time {
	if c.epoch != nil {
		return time.Time{}
	}
	return time.Now()
}

// get returns uri's cached class, dropping an expired one. Called with
// the lock held.
func (c *RepCache) get(uri string, now time.Time) (*corefClass, bool) {
	cl, ok := c.c.lru.Get(uri)
	if ok && !cl.expires.IsZero() && now.After(cl.expires) {
		c.c.lru.Remove(uri)
		return nil, false
	}
	return cl, ok
}
