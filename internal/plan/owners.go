package plan

import (
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// Owners is the owner lookup: which spellings of an instance IRI a data
// set may receive. Source selection assumes a data set puts only IRIs of
// its URI space at a triple's subject, and at its object under any
// predicate but rdf:type. Of an IRI's owl:sameAs class a data set then
// holds at most the members in its URI space, and, given the benefit of
// the doubt, the members in no registered space. The planner admits a
// data set through those members (reaches), the join engine ships a
// target only those of its bound-join keys, and a native target's
// sub-query carries them (Respell): the instance step of the paper's
// sameas(x, uriSpace) (§3.3), without the vocabulary step.
type Owners struct {
	datasets *voidkb.KB
	coref    funcs.CorefSource
}

// Class returns iri's owl:sameAs class, sorted: iri alone without a
// co-reference source. The mediator's source is its cache, whose classes
// are shared: callers must not modify the slice.
func (o *Owners) Class(iri string) []string {
	if o.coref == nil {
		return []string{iri}
	}
	return o.coref.Equivalents(iri)
}

// Holds reports whether target t may receive iri as spelled: it lies in
// t's URI space or, unless t rewrites, in no registered one. A target that
// rewrites receives only IRIs of its own space: its rewriting translates
// any other spelling into that space (sameas), where it would repeat one
// the target already receives.
func (o *Owners) Holds(t Target, iri string) bool {
	if t.ds == nil || t.ds.Matches(iri) {
		return true
	}
	_, registered := o.datasets.DatasetFor(iri)
	return !t.NeedsRewrite && !registered
}

// Spelling returns the spelling target t receives iri in: iri itself when
// t holds it, else the first member of its class in t's URI space, the
// member the rewriter's sameas picks. ok is false when t holds no member.
func (o *Owners) Spelling(t Target, iri string) (string, bool) {
	if o.Holds(t, iri) {
		return iri, true
	}
	return o.inSpace(t.ds, iri)
}

// Respell returns q as native target t receives it: every IRI at a lifted
// position (sparql.Lift) in its Spelling for t. It is q itself when t
// holds each IRI as spelled, else a copy; an IRI t holds no member of
// stays as spelled.
func (o *Owners) Respell(q *sparql.Query, t Target) *sparql.Query {
	held := true
	sparql.EachLifted(q, func(x *rdf.Term) { held = held && o.Holds(t, x.Value) })
	if held {
		return q
	}
	c := q.Clone()
	sparql.EachLifted(c, func(x *rdf.Term) {
		if sp, ok := o.Spelling(t, x.Value); ok && sp != x.Value {
			*x = rdf.NewIRI(sp)
		}
	})
	return c
}

// inSpace returns the first member of iri's class in ds's URI space.
func (o *Owners) inSpace(ds *voidkb.Dataset, iri string) (string, bool) {
	for _, m := range o.Class(iri) {
		if ds.Matches(m) {
			return m, true
		}
	}
	return "", false
}
