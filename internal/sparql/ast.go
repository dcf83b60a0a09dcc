// Package sparql provides the SPARQL 1.0 abstract syntax tree, parser and
// serialiser used by the query rewriter and evaluator. The supported
// fragment covers what the paper's scenario needs and then some: SELECT /
// ASK / CONSTRUCT / DESCRIBE forms, basic graph patterns, FILTER with the full
// SPARQL 1.0 expression grammar, OPTIONAL, UNION, nested groups, and the
// DISTINCT / REDUCED / ORDER BY / LIMIT / OFFSET solution modifiers.
package sparql

import (
	"sparqlrw/internal/rdf"
)

// Form discriminates the query forms.
type Form uint8

// Query forms.
const (
	Select Form = iota + 1
	Ask
	Construct
	Describe
)

// String returns the SPARQL keyword for the form.
func (f Form) String() string {
	switch f {
	case Select:
		return "SELECT"
	case Ask:
		return "ASK"
	case Construct:
		return "CONSTRUCT"
	case Describe:
		return "DESCRIBE"
	default:
		return "UNKNOWN"
	}
}

// Query is a parsed SPARQL query.
type Query struct {
	// Prefixes holds the prologue's PREFIX/BASE declarations; the parser
	// has already expanded every prefixed name, so this map only matters
	// for re-serialisation.
	Prefixes *rdf.PrefixMap
	Form     Form

	// SELECT specifics.
	Distinct   bool
	Reduced    bool
	SelectStar bool
	SelectVars []string

	// CONSTRUCT template (patterns may contain variables and blank nodes).
	Template []rdf.Triple

	// DESCRIBE resources: variables (resolved against the WHERE clause)
	// and/or ground IRIs.
	DescribeTerms []rdf.Term

	// Where is the WHERE clause; nil only for DESCRIBE queries of the
	// `DESCRIBE <iri>` shape, which need no pattern.
	Where *GroupGraphPattern

	OrderBy []OrderCondition
	Limit   int // -1 when absent
	Offset  int // -1 when absent
}

// NewQuery returns a query with modifier fields initialised to "absent".
func NewQuery(form Form) *Query {
	return &Query{Form: form, Prefixes: rdf.NewPrefixMap(), Limit: -1, Offset: -1}
}

// OrderCondition is one ORDER BY criterion.
type OrderCondition struct {
	Expr Expression
	Desc bool
}

// GroupGraphPattern is a `{ ... }` group: an ordered list of elements
// (basic graph patterns, filters, OPTIONALs, UNIONs, nested groups).
type GroupGraphPattern struct {
	Elements []GroupElement
}

// GroupElement is one syntactic element inside a group graph pattern.
type GroupElement interface{ isGroupElement() }

// BGP is a basic graph pattern: a block of triple patterns that must all
// match. This is the unit the paper's rewriting algorithm operates on.
type BGP struct {
	Patterns []rdf.Triple
}

// SubGroup is a nested `{ ... }` group.
type SubGroup struct {
	Group *GroupGraphPattern
}

// Optional is an OPTIONAL { ... } element.
type Optional struct {
	Group *GroupGraphPattern
}

// Union is a `{...} UNION {...} [UNION {...}]*` element.
type Union struct {
	Alternatives []*GroupGraphPattern
}

// Filter is a FILTER constraint.
type Filter struct {
	Expr Expression
}

// InlineData is a VALUES block (SPARQL 1.1 inline data): a sequence of
// bindings for a fixed variable list, joined with the rest of the group.
// A zero Term (rdf.KindAny) in a row stands for UNDEF. This is the
// construct the federation planner shards on: a large VALUES block splits
// into batches that federate as independent sub-queries.
type InlineData struct {
	Vars []string
	Rows [][]rdf.Term
}

func (*BGP) isGroupElement()        {}
func (*SubGroup) isGroupElement()   {}
func (*Optional) isGroupElement()   {}
func (*Union) isGroupElement()      {}
func (*Filter) isGroupElement()     {}
func (*InlineData) isGroupElement() {}

// Expression is a SPARQL FILTER/ORDER BY expression tree node.
type Expression interface{ isExpr() }

// Binary is a binary operation; Op is one of "||", "&&", "=", "!=", "<",
// ">", "<=", ">=", "+", "-", "*", "/".
type Binary struct {
	Op   string
	L, R Expression
}

// Unary is a unary operation; Op is one of "!", "-", "+".
type Unary struct {
	Op string
	X  Expression
}

// TermExpr wraps an RDF term (variable, IRI or literal) as an expression.
type TermExpr struct {
	Term rdf.Term
}

// Call is a built-in call (upper-case Name, e.g. "REGEX", "BOUND") or an
// extension function call (Name holds the function IRI).
type Call struct {
	Name string
	Args []Expression
	// IRIFunc marks Name as a function IRI rather than a builtin keyword.
	IRIFunc bool
}

func (*Binary) isExpr()   {}
func (*Unary) isExpr()    {}
func (*TermExpr) isExpr() {}
func (*Call) isExpr()     {}

// Walk applies fn to every group element in the pattern tree, depth-first,
// including elements of nested groups, OPTIONALs and UNION branches.
func Walk(g *GroupGraphPattern, fn func(GroupElement)) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		fn(el)
		switch e := el.(type) {
		case *SubGroup:
			Walk(e.Group, fn)
		case *Optional:
			Walk(e.Group, fn)
		case *Union:
			for _, alt := range e.Alternatives {
				Walk(alt, fn)
			}
		}
	}
}

// BGPs returns every basic graph pattern in the query's WHERE clause, in
// syntactic order, including those nested under OPTIONAL/UNION/groups.
func (q *Query) BGPs() []*BGP {
	var out []*BGP
	Walk(q.Where, func(el GroupElement) {
		if b, ok := el.(*BGP); ok {
			out = append(out, b)
		}
	})
	return out
}

// DescribeResources splits a DESCRIBE query's resource terms into its
// ground IRIs (deduplicated, first-appearance order) and its variable
// names — the one definition of "which resources does this DESCRIBE
// denote" shared by the local evaluator and the mediator.
func (q *Query) DescribeResources() (iris []rdf.Term, vars []string) {
	seen := map[string]bool{}
	for _, t := range q.DescribeTerms {
		switch {
		case t.IsVar():
			vars = append(vars, t.Value)
		case t.IsIRI():
			if !seen[t.Value] {
				seen[t.Value] = true
				iris = append(iris, t)
			}
		}
	}
	return iris, vars
}

// Filters returns every FILTER in the query's WHERE clause.
func (q *Query) Filters() []*Filter {
	var out []*Filter
	Walk(q.Where, func(el GroupElement) {
		if f, ok := el.(*Filter); ok {
			out = append(out, f)
		}
	})
	return out
}

// Vars returns the distinct variables mentioned in triple patterns and
// VALUES blocks of the WHERE clause, in first-appearance order.
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	Walk(q.Where, func(el GroupElement) {
		switch e := el.(type) {
		case *BGP:
			for _, tp := range e.Patterns {
				for _, v := range tp.Vars() {
					add(v)
				}
			}
		case *InlineData:
			for _, v := range e.Vars {
				add(v)
			}
		}
	})
	return out
}

// Projection returns the names of a SELECT's result columns: the listed
// variables, or under SELECT * every variable of the WHERE clause in
// first-appearance order. Every layer that names result columns — the
// evaluator, the planner, the decomposer, the fan-out's merge —
// asks here, so they cannot disagree about what * expands to.
func (q *Query) Projection() []string {
	if q.SelectStar {
		return q.Vars()
	}
	return q.SelectVars
}

// WalkExpr applies fn to every node of an expression tree, depth-first.
func WalkExpr(e Expression, fn func(Expression)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Unary:
		WalkExpr(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// ExprTerms returns the RDF terms mentioned in an expression.
func ExprTerms(e Expression) []rdf.Term {
	var out []rdf.Term
	WalkExpr(e, func(n Expression) {
		if t, ok := n.(*TermExpr); ok {
			out = append(out, t.Term)
		}
	})
	return out
}

// MapExprTerms returns a copy of the expression with every term replaced by
// fn(term). Structure is preserved; fn is applied to leaves only.
func MapExprTerms(e Expression, fn func(rdf.Term) rdf.Term) Expression {
	switch x := e.(type) {
	case nil:
		return nil
	case *Binary:
		return &Binary{Op: x.Op, L: MapExprTerms(x.L, fn), R: MapExprTerms(x.R, fn)}
	case *Unary:
		return &Unary{Op: x.Op, X: MapExprTerms(x.X, fn)}
	case *TermExpr:
		return &TermExpr{Term: fn(x.Term)}
	case *Call:
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			args[i] = MapExprTerms(a, fn)
		}
		return &Call{Name: x.Name, Args: args, IRIFunc: x.IRIFunc}
	default:
		return e
	}
}

// CloneGroup deep-copies a group graph pattern tree.
func CloneGroup(g *GroupGraphPattern) *GroupGraphPattern {
	if g == nil {
		return nil
	}
	out := &GroupGraphPattern{}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *BGP:
			pats := make([]rdf.Triple, len(e.Patterns))
			copy(pats, e.Patterns)
			out.Elements = append(out.Elements, &BGP{Patterns: pats})
		case *SubGroup:
			out.Elements = append(out.Elements, &SubGroup{Group: CloneGroup(e.Group)})
		case *Optional:
			out.Elements = append(out.Elements, &Optional{Group: CloneGroup(e.Group)})
		case *Union:
			alts := make([]*GroupGraphPattern, len(e.Alternatives))
			for i, a := range e.Alternatives {
				alts[i] = CloneGroup(a)
			}
			out.Elements = append(out.Elements, &Union{Alternatives: alts})
		case *Filter:
			out.Elements = append(out.Elements, &Filter{Expr: MapExprTerms(e.Expr, func(t rdf.Term) rdf.Term { return t })})
		case *InlineData:
			c := &InlineData{Vars: append([]string(nil), e.Vars...)}
			c.Rows = make([][]rdf.Term, len(e.Rows))
			for i, row := range e.Rows {
				c.Rows[i] = append([]rdf.Term(nil), row...)
			}
			out.Elements = append(out.Elements, c)
		}
	}
	return out
}

// Clone deep-copies a query.
func (q *Query) Clone() *Query {
	c := *q
	c.Prefixes = q.Prefixes.Clone()
	c.SelectVars = append([]string(nil), q.SelectVars...)
	c.Template = append([]rdf.Triple(nil), q.Template...)
	c.DescribeTerms = append([]rdf.Term(nil), q.DescribeTerms...)
	c.Where = CloneGroup(q.Where)
	c.OrderBy = make([]OrderCondition, len(q.OrderBy))
	for i, oc := range q.OrderBy {
		c.OrderBy[i] = OrderCondition{Expr: MapExprTerms(oc.Expr, func(t rdf.Term) rdf.Term { return t }), Desc: oc.Desc}
	}
	return &c
}
