package federate

import (
	"context"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
)

// merger is the streaming merge stage: workers feed batches of raw rows
// in, the merger canonicalises every IRI binding to the deterministic
// representative of its owl:sameAs class, drops duplicates, and passes
// what is left of each batch downstream immediately — whole endpoints are
// never buffered. One merger serves one federated run; it is driven by a
// single goroutine, so the per-run memo needs no locking.
type merger struct {
	reps       *RepCache
	seen       eval.KeySet
	duplicates int
}

// run merges batches from in to out until in is closed. Once the consumer
// is gone (ctx done) it only drains, so producing workers are never
// blocked on the channel.
func (m *merger) run(ctx context.Context, in <-chan eval.RowBuf, out chan<- eval.RowBuf, done chan<- struct{}) {
	for b := range in {
		if ctx.Err() != nil {
			continue
		}
		if b = m.merge(b); b.N > 0 {
			select {
			case out <- b:
			case <-ctx.Done():
			}
		}
	}
	close(done)
}

// merge takes ownership of the batch: every row is canonicalised in place
// and the rows not seen before are moved to the front and returned.
func (m *merger) merge(b eval.RowBuf) eval.RowBuf {
	kept := 0
	for i := range b.N {
		row := b.Row(i)
		for s, t := range row {
			row[s] = m.reps.Term(t)
		}
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
// safe for concurrent use; one cache serves one merge run.
type RepCache struct {
	coref funcs.CorefSource
	reps  map[string]rdf.Term
}

// NewRepCache builds an empty representative cache; a nil coref disables
// smushing.
func NewRepCache(coref funcs.CorefSource) *RepCache {
	return &RepCache{coref: coref, reps: make(map[string]rdf.Term)}
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
