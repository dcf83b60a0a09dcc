package core

import (
	"sparqlrw/internal/align"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// A Template is the rewrite of a query shape (sparql.Lift) for one
// target: Algorithm 1 run once over the shape, with the instance steps —
// a functional dependency or a FILTER, VALUES or DESCRIBE translation
// whose input is a slot — recorded instead of run. Matching, fresh
// variables and prefixes do not depend on the instances, so one template
// serves every query of its shape: Bind runs the recorded steps over a
// query's own slot values, and the rewritten shape with those values in
// its slots is what rewriting the query itself gives.
type Template struct {
	// Query is the rewritten shape: its slots below lifted stand for the
	// shape's own, each slot after them for one deferred operation's
	// result. Nil when the template cannot bind (see RewriteShape).
	Query  *sparql.Query
	lifted int
	rw     *Rewriter
	ops    []deferredOp
}

// deferredOp is an instance step of the rewrite, run at Bind: the
// function fn of a functional dependency over args, or, with fn empty,
// the translation of the constant args[0] into the URI space args[1]. A
// slot among args stands for its value; orig is what KeepOriginal binds
// when fn fails (the zero term: nothing, the variable is left unbound).
type deferredOp struct {
	fn   string
	args []rdf.Term
	orig rdf.Term
}

// RewriteShape rewrites a query shape with lifted slots into a template;
// given a query with none (lifted 0), Query is that query's rewriting.
// It returns a template that cannot bind (Query nil) when matching the
// shape could differ from matching a query of that shape: a selected
// alignment's LHS compares a lifted position with an IRI or with another
// position that is not lifted.
func (rw *Rewriter) RewriteShape(shape *sparql.Query, lifted int) (*Template, error) {
	t := &Template{lifted: lifted, rw: rw}
	if lifted > 0 && !liftSafe(rw.Alignments) {
		return t, nil
	}
	out, _, err := rw.rewriteQuery(shape, t)
	if err != nil {
		return nil, err
	}
	t.Query = out
	return t, nil
}

// liftSafe reports whether every alignment's LHS matches a shape as it
// matches the query: slots stand at subjects and at objects of predicates
// other than rdf:type, so an LHS must hold no IRI there, nor repeat a
// variable across such a position and one that is not lifted.
func liftSafe(eas []*align.EntityAlignment) bool {
	for _, ea := range eas {
		l := ea.LHS
		typed := l.P.IsIRI() && l.P.Value == rdf.RDFType
		// A variable predicate can match rdf:type, under which the
		// object is not lifted.
		objectLifted := l.P.IsIRI() && !typed
		if l.S.IsIRI() || (l.O.IsIRI() && !typed) {
			return false
		}
		same := func(a, b rdf.Term) bool { return isVarLike(a) && isVarLike(b) && a.Value == b.Value }
		if same(l.S, l.P) || same(l.P, l.O) || (same(l.S, l.O) && !objectLifted) {
			return false
		}
	}
	return true
}

func isVarLike(t rdf.Term) bool { return t.IsVar() || t.IsBlank() }

func hasSlot(terms []rdf.Term) bool {
	for _, t := range terms {
		if _, ok := sparql.SlotIndex(t); ok {
			return true
		}
	}
	return false
}

// deferOp records op and returns the slot its result fills.
func (t *Template) deferOp(op deferredOp) rdf.Term {
	t.ops = append(t.ops, op)
	return sparql.Slot(t.lifted + len(t.ops) - 1)
}

// Bind runs the deferred operations over a query's lifted values and
// returns the value of every slot of t.Query, the lifted values first.
// ok is false when the query must be rewritten itself: the template
// cannot bind, or an operation failed where the FD policy does not bind
// the original term.
func (t *Template) Bind(lifted []rdf.Term) (values []rdf.Term, ok bool) {
	if t.Query == nil {
		return nil, false
	}
	if len(t.ops) == 0 {
		return lifted, true
	}
	values = make([]rdf.Term, t.lifted, t.lifted+len(t.ops))
	copy(values, lifted)
	resolve := func(x rdf.Term) rdf.Term {
		if i, ok := sparql.SlotIndex(x); ok {
			return values[i]
		}
		return x
	}
	for _, op := range t.ops {
		args := make([]rdf.Term, len(op.args))
		for i, a := range op.args {
			args[i] = resolve(a)
		}
		if op.fn == "" {
			v := args[0]
			if v.IsIRI() {
				v, _ = t.rw.translateIRITerm(v, args[1])
			}
			values = append(values, v)
			continue
		}
		v, err := t.rw.Funcs.Call(op.fn, args)
		if err != nil {
			if t.rw.Opts.Policy != KeepOriginal || op.orig.IsZero() {
				return nil, false
			}
			v = resolve(op.orig)
		}
		values = append(values, v)
	}
	return values, true
}
