package federate

import (
	"context"
	"sync"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
)

// sink is a fan-out's row path from its workers to Fanout.Run: the batch
// channel, and the representative cache every worker canonicalises its
// batches through. One cache a fan-out, as when the merge canonicalised:
// a remote coref.Client is asked once per distinct IRI per fan-out,
// whichever target, shard, retry or hedge arm brought the IRI first.
type sink struct {
	batches chan eval.RowBuf
	mu      sync.Mutex // held while a worker canonicalises a batch
	reps    RepCache
}

// canonicalise rewrites the IRIs of a batch's terms to their owl:sameAs
// representatives in place, under one hold of the lock. A term the cache
// has not seen costs a coref lookup; while the worker waits on one, or on
// another worker's, the attempt's clock pd is paused, so neither its
// deadline nor the endpoint's latency pays for the coref source.
func (s *sink) canonicalise(terms []rdf.Term, pd *pausableDeadline) {
	if s.reps.coref == nil {
		return
	}
	waiting := !s.mu.TryLock()
	if waiting {
		pd.Pause()
		s.mu.Lock()
	}
	for i, t := range terms {
		if !t.IsIRI() {
			continue
		}
		rep, ok := s.reps.reps[t.Value]
		if !ok {
			if !waiting {
				waiting = true
				pd.Pause()
			}
			rep = s.reps.Term(t)
		}
		terms[i] = rep
	}
	s.mu.Unlock()
	if waiting {
		pd.Resume()
	}
}

// push hands b to the fan-out's loop. While the push blocks on a full
// channel (the consumer is applying backpressure) the attempt's
// active-time deadline is paused; false means the fan-out was cancelled
// meanwhile.
func (s *sink) push(parent context.Context, b eval.RowBuf, pd *pausableDeadline) bool {
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

// RepCache memoises owl:sameAs class representatives under the IRI's
// string: each distinct IRI costs one coref lookup per cache lifetime and
// every later occurrence one map probe returning a ready-made term. Not
// safe for concurrent use: a fan-out's workers share one through their
// sink, under its lock. A zero value with its coref set is ready to use.
type RepCache struct {
	coref funcs.CorefSource
	reps  map[string]rdf.Term
}

// NewRepCache builds an empty representative cache; a nil coref disables
// smushing.
func NewRepCache(coref funcs.CorefSource) *RepCache {
	return &RepCache{coref: coref}
}

// Term returns the deterministic (lexicographically smallest) member of
// the IRI term's equivalence class; non-IRI terms pass through. A source
// that can name that member itself (coref.Store.Canonical) is asked for
// just that, any other for the whole class.
func (c *RepCache) Term(t rdf.Term) rdf.Term {
	if c.coref == nil || !t.IsIRI() {
		return t
	}
	if rep, ok := c.reps[t.Value]; ok {
		return rep
	}
	rep := Rep(c.coref, t)
	if c.reps == nil {
		c.reps = make(map[string]rdf.Term)
	}
	c.reps[t.Value] = rep
	return rep
}

// Rep is RepCache.Term without the cache, for a caller that canonicalises
// a handful of terms once: the representative of the IRI term's owl:sameAs
// class under coref (nil: none), other terms unchanged.
func Rep(coref funcs.CorefSource, t rdf.Term) rdf.Term {
	if coref == nil || !t.IsIRI() {
		return t
	}
	r := t.Value
	if s, ok := coref.(interface{ Canonical(uri string) string }); ok {
		r = s.Canonical(r)
	} else {
		for _, eq := range coref.Equivalents(t.Value) {
			if eq < r {
				r = eq
			}
		}
	}
	if r != t.Value {
		return rdf.NewIRI(r)
	}
	return t
}

// Triple canonicalises the three terms of t.
func (c *RepCache) Triple(t rdf.Triple) rdf.Triple {
	return rdf.Triple{S: c.Term(t.S), P: c.Term(t.P), O: c.Term(t.O)}
}
