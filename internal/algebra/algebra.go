// Package algebra translates parsed SPARQL queries into the SPARQL algebra
// (the "relational algebra for SPARQL" of Cyganiak that the paper's §4
// proposes as the future substrate for rewriting: a homogeneous tree
// representation of the whole query, BGPs and FILTERs alike). The
// evaluator in internal/eval interprets this algebra over a triple store
// and over the remote leaves of the plans the mediator and the decomposer
// build.
package algebra

import (
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Op is a node of the algebra tree.
type Op interface{ isOp() }

// Unit is the empty pattern (joins as identity).
type Unit struct{}

// BGP is a basic graph pattern.
type BGP struct {
	Patterns []rdf.Triple
}

// Table is inline data (a VALUES block): a fixed relation of bindings for
// Vars. A zero Term in a row leaves that variable unbound (UNDEF).
type Table struct {
	Vars []string
	Rows [][]rdf.Term
}

// Join is the natural join of two operands.
type Join struct {
	L, R Op
}

// LeftJoin implements OPTIONAL; Expr may be nil (no embedded filter).
type LeftJoin struct {
	L, R Op
	Expr sparql.Expression
}

// Union is the set union of two operands.
type Union struct {
	L, R Op
}

// Filter restricts solutions by an expression.
type Filter struct {
	Expr  sparql.Expression
	Input Op
}

// Project restricts solutions to the given variables.
type Project struct {
	Vars  []string
	Star  bool
	Input Op
}

// Distinct removes duplicate solutions.
type Distinct struct {
	Input Op
}

// Reduced permits (but does not require) duplicate elimination; the
// evaluator treats it as Distinct, which is a legal implementation.
type Reduced struct {
	Input Op
}

// OrderBy sorts solutions.
type OrderBy struct {
	Conds []sparql.OrderCondition
	Input Op
}

// Slice applies LIMIT/OFFSET (-1 meaning absent).
type Slice struct {
	Limit, Offset int
	Input         Op
}

// Remote is a leaf whose rows come from outside the evaluator's store — a
// federated sub-request — binding Vars in order. Source answers it: an
// eval.Remote, which the layer that federates implements.
type Remote struct {
	Vars   []string
	Source any
}

func (*Unit) isOp()     {}
func (*BGP) isOp()      {}
func (*Table) isOp()    {}
func (*Join) isOp()     {}
func (*LeftJoin) isOp() {}
func (*Union) isOp()    {}
func (*Filter) isOp()   {}
func (*Project) isOp()  {}
func (*Distinct) isOp() {}
func (*Reduced) isOp()  {}
func (*OrderBy) isOp()  {}
func (*Slice) isOp()    {}
func (*Remote) isOp()   {}

// Translate maps a parsed query to its algebra tree, including solution
// modifiers. The WHERE clause is translated per the SPARQL 1.0 semantics:
// within one group, triple patterns merge into basic graph patterns,
// FILTERs apply to the whole group, OPTIONAL becomes LeftJoin (absorbing
// the group-level filters of its operand as the left-join expression), and
// UNION folds left.
func Translate(q *sparql.Query) Op {
	op := TranslateGroup(q.Where)
	if q.Form != sparql.Select {
		return op // ASK, CONSTRUCT and DESCRIBE take no modifiers in our fragment
	}
	return Modifiers(q, op)
}

// Modifiers wraps a SELECT's pattern in the query's solution modifiers:
// ORDER BY, the projection, DISTINCT or REDUCED, then OFFSET and LIMIT.
// The mediator puts them above the remote leaves of the plans it builds.
func Modifiers(q *sparql.Query, op Op) Op {
	if len(q.OrderBy) > 0 {
		op = &OrderBy{Conds: q.OrderBy, Input: op}
	}
	op = &Project{Vars: q.SelectVars, Star: q.SelectStar, Input: op}
	if q.Distinct {
		op = &Distinct{Input: op}
	} else if q.Reduced {
		op = &Reduced{Input: op}
	}
	if q.Limit >= 0 || q.Offset >= 0 {
		op = &Slice{Limit: q.Limit, Offset: q.Offset, Input: op}
	}
	return op
}

// TranslateGroup translates one group graph pattern.
func TranslateGroup(g *sparql.GroupGraphPattern) Op {
	if g == nil {
		return &Unit{}
	}
	var acc Op = &Unit{}
	var filters []sparql.Expression
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			pats := append([]rdf.Triple(nil), e.Patterns...)
			acc = join(acc, &BGP{Patterns: pats})
		case *sparql.Filter:
			filters = append(filters, e.Expr)
		case *sparql.SubGroup:
			acc = join(acc, TranslateGroup(e.Group))
		case *sparql.Optional:
			// Every FILTER of the OPTIONAL group is part of the left-join
			// condition, where the left side's variables are in scope: peel
			// all the Filter layers the group ended in (the last-written is
			// outermost) and conjoin them in written order.
			inner := TranslateGroup(e.Group)
			var expr sparql.Expression
			for f, ok := inner.(*Filter); ok; f, ok = inner.(*Filter) {
				inner = f.Input
				if expr == nil {
					expr = f.Expr
				} else {
					expr = &sparql.Binary{Op: "&&", L: f.Expr, R: expr}
				}
			}
			acc = &LeftJoin{L: acc, R: inner, Expr: expr}
		case *sparql.Union:
			var u Op
			for _, alt := range e.Alternatives {
				t := TranslateGroup(alt)
				if u == nil {
					u = t
				} else {
					u = &Union{L: u, R: t}
				}
			}
			if u != nil {
				acc = join(acc, u)
			}
		case *sparql.InlineData:
			acc = join(acc, &Table{Vars: e.Vars, Rows: e.Rows})
		}
	}
	for _, f := range filters {
		acc = &Filter{Expr: f, Input: acc}
	}
	return acc
}

// join simplifies Unit identities and merges adjacent BGPs, matching the
// spec's rule that triple patterns within a group form one basic graph
// pattern unless separated by a non-triple pattern.
func join(l, r Op) Op {
	if _, ok := l.(*Unit); ok {
		return r
	}
	if _, ok := r.(*Unit); ok {
		return l
	}
	if lb, ok := l.(*BGP); ok {
		if rb, ok := r.(*BGP); ok {
			return &BGP{Patterns: append(append([]rdf.Triple(nil), lb.Patterns...), rb.Patterns...)}
		}
	}
	return &Join{L: l, R: r}
}
