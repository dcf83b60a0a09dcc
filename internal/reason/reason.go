// Package reason implements the integration baseline the paper argues
// against (§2, §4): instead of rewriting queries on the fly, materialise a
// source-vocabulary view of a target data set by forward-chaining the
// entity alignments as Horn rules — the paper notes an entity alignment
// "can be interpreted as a definite Horn clause ... the LHS formula is the
// head, the RHS is the body" — with owl:sameAs resolution of the head's
// URIs. The cost and footprint of this materialisation,
// against the microseconds of a rewrite, is experiment E7.
package reason

import (
	"fmt"
	"regexp"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
)

// Options configure the materialiser.
type Options struct {
	// SourceURISpace is the regex of the source data set's URI space;
	// inverse sameas resolution maps target URIs back into it so that the
	// unrewritten source query can find them. Empty disables URI
	// translation (derived triples keep target URIs).
	SourceURISpace string
}

// maxIterations caps the fixpoint loop (alignment chains are shallow; the
// cap only guards against pathological rule sets).
const maxIterations = 8

// Result reports what one materialisation did.
type Result struct {
	// Derived is the number of new triples added to the output store.
	Derived int
	// Iterations is the number of fixpoint rounds executed.
	Iterations int
	// Duration is the wall-clock materialisation time.
	Duration time.Duration
	// Rules is the number of entity alignments applied.
	Rules int
}

// Materialiser owns the rule set and co-reference source.
type Materialiser struct {
	Alignments []*align.EntityAlignment
	Coref      *coref.Store
	Opts       Options
}

// New returns a materialiser.
func New(alignments []*align.EntityAlignment, corefStore *coref.Store, opts Options) *Materialiser {
	return &Materialiser{Alignments: alignments, Coref: corefStore, Opts: opts}
}

// Materialise derives source-vocabulary triples from the target data in
// `data` and adds them to `out` (which may be the same store, or a copy of
// the source store being augmented). It returns statistics.
//
// For every entity alignment, the RHS (body) is evaluated as a basic graph
// pattern over the data; each solution instantiates the LHS (head). LHS
// variables not bound by the body are resolved through *inverse*
// functional dependencies: an FD a2 = sameas(a1, targetSpace) binds, at
// data level, a1 = sameas(a2, sourceSpace) — co-reference is symmetric, so
// the equivalence class lookup runs in the opposite direction.
func (m *Materialiser) Materialise(data *store.Store, out *store.Store) (*Result, error) {
	start := time.Now()
	res := &Result{Rules: len(m.Alignments)}
	var sourceRe *regexp.Regexp
	if m.Opts.SourceURISpace != "" {
		re, err := regexp.Compile(m.Opts.SourceURISpace)
		if err != nil {
			return nil, fmt.Errorf("reason: bad source URI space: %w", err)
		}
		sourceRe = re
	}
	engine := eval.New(data)
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		added := 0
		for _, ea := range m.Alignments {
			sols, err := engine.EvalBGP(ea.RHS)
			if err != nil {
				return nil, fmt.Errorf("reason: evaluating body of %s: %w", ea.ID, err)
			}
			for _, sol := range sols {
				head, ok := m.instantiateHead(ea, sol, sourceRe)
				if !ok {
					continue
				}
				if out.Add(head) {
					added++
					// Feed derivations back for chained rules when data
					// and out are the same store; otherwise chains stop,
					// which matches a single-pass ETL.
				}
			}
		}
		res.Derived += added
		if added == 0 {
			break
		}
		if data != out {
			break // nothing new can fire: rules read `data` only
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// instantiateHead builds the LHS triple for one body solution.
func (m *Materialiser) instantiateHead(ea *align.EntityAlignment, sol eval.Solution, sourceRe *regexp.Regexp) (rdf.Triple, bool) {
	// Which LHS variables does an FD map into RHS variables? fd.Var is the
	// RHS-side variable; its first variable argument is the LHS-side one.
	inverse := map[string]string{} // LHS var -> RHS var
	for _, fd := range ea.FDs {
		for _, a := range fd.Args {
			if a.IsVar() || a.IsBlank() {
				inverse[a.Value] = fd.Var
				break
			}
		}
	}
	resolve := func(t rdf.Term) (rdf.Term, bool) {
		if !t.IsVar() && !t.IsBlank() {
			return t, true
		}
		// Shared variable: directly bound by the body match.
		if v, ok := sol[t.Value]; ok {
			return v, true
		}
		// FD-linked variable: translate the bound RHS value back into the
		// source URI space.
		if rhsVar, ok := inverse[t.Value]; ok {
			if v, ok := sol[rhsVar]; ok {
				if !v.IsIRI() || m.Coref == nil || sourceRe == nil {
					return v, true
				}
				if back, found := m.Coref.FirstMatching(v.Value, sourceRe); found {
					return rdf.NewIRI(back), true
				}
				return v, true // no source equivalent: keep target URI
			}
		}
		return rdf.Term{}, false
	}
	s, ok := resolve(ea.LHS.S)
	if !ok || s.Kind == rdf.KindLiteral {
		return rdf.Triple{}, false
	}
	p, ok := resolve(ea.LHS.P)
	if !ok || p.Kind != rdf.KindIRI {
		return rdf.Triple{}, false
	}
	o, ok := resolve(ea.LHS.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}
