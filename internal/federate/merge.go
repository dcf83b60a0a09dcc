package federate

import (
	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
)

// merger is the streaming merge stage: workers feed raw solutions in,
// the merger canonicalises every IRI binding to the deterministic
// representative of its owl:sameAs class, drops duplicates, and emits
// each first occurrence downstream immediately — whole endpoints are
// never buffered. One merger serves one federated run; it is driven by a
// single goroutine, so the per-run memo maps need no locking.
type merger struct {
	coref funcs.CorefSource
	// emit receives each canonical, first-seen solution; returning false
	// stops the merge (the downstream consumer is gone).
	emit       func(eval.Solution) bool
	reps       *RepCache
	seen       eval.KeySet
	duplicates int
}

func newMerger(coref funcs.CorefSource, emit func(eval.Solution) bool) *merger {
	return &merger{
		coref: coref,
		emit:  emit,
		reps:  NewRepCache(coref),
	}
}

// run consumes solutions until the channel is closed or the downstream
// consumer stops accepting; it keeps draining after a stopped consumer so
// producing workers are never blocked on the channel.
func (m *merger) run(ch <-chan eval.Solution, done chan<- struct{}) {
	emitting := true
	for sol := range ch {
		if emitting {
			emitting = m.add(sol)
		}
	}
	close(done)
}

// add takes ownership of sol: the row is canonicalised in place.
func (m *merger) add(sol eval.Solution) bool {
	m.canonicalise(sol)
	if !m.seen.Add(sol) {
		m.duplicates++
		return true
	}
	return m.emit(sol)
}

// canonicalise maps every IRI binding to the representative of its
// owl:sameAs class, so the same entity coming from two URI spaces merges.
func (m *merger) canonicalise(sol eval.Solution) {
	for k, v := range sol {
		if rep := m.reps.Term(v); rep != v {
			sol[k] = rep
		}
	}
}

// RepCache memoises owl:sameAs class representatives behind a term
// dictionary: each distinct IRI is interned once and its canonical term
// cached under the uint32 id, so the per-binding hot path is an integer
// map probe returning a ready-made term — no string-keyed probe, no
// representative re-derivation, no term re-construction. Not safe for
// concurrent use; one cache serves one merge run.
type RepCache struct {
	coref funcs.CorefSource
	dict  *store.Dict
	reps  map[uint32]rdf.Term
}

// NewRepCache builds an empty representative cache over its own term
// dictionary.
func NewRepCache(coref funcs.CorefSource) *RepCache {
	return &RepCache{
		coref: coref,
		dict:  store.NewDict(),
		reps:  make(map[uint32]rdf.Term),
	}
}

// Term returns the deterministic (lexicographically smallest) member of
// the IRI term's equivalence class; non-IRI terms pass through. Each
// distinct IRI costs one coref lookup per cache lifetime.
func (c *RepCache) Term(t rdf.Term) rdf.Term {
	if c.coref == nil || !t.IsIRI() {
		return t
	}
	id := c.dict.Intern(t)
	if rep, ok := c.reps[id]; ok {
		return rep
	}
	r := t.Value
	for _, eq := range c.coref.Equivalents(t.Value) {
		if eq < r {
			r = eq
		}
	}
	rep := t
	if r != t.Value {
		rep = rdf.NewIRI(r)
	}
	c.reps[id] = rep
	return rep
}
