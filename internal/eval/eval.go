package eval

import (
	"fmt"
	"iter"
	"strconv"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// TripleSource is the storage surface the engine evaluates against: a
// pattern matcher plus the two statistics the join-order heuristic needs.
// store.Store is the one implementation; endpoint.Server, the view tier
// and the materialisation baseline all reach it through here.
type TripleSource interface {
	// Match invokes fn for every stored triple matching the pattern,
	// treating variable and zero positions as wildcards; fn returning
	// false stops the iteration.
	Match(pattern rdf.Triple, fn func(rdf.Triple) bool)
	// PredicateCount returns the number of triples with predicate p.
	PredicateCount(p rdf.Term) int
	// Size returns the total number of triples.
	Size() int
}

// Engine evaluates SPARQL queries over one triple source.
type Engine struct {
	Store TripleSource
	// Funcs optionally resolves extension function IRIs in FILTERs. The
	// paper's model assumes the query-execution site knows no alignment
	// functions, so endpoints usually leave this nil.
	Funcs FuncResolver
	// DisableJoinReorder turns off the selectivity heuristic; exposed for
	// the ablation benchmark.
	DisableJoinReorder bool
}

// New returns an engine over st.
func New(st TripleSource) *Engine { return &Engine{Store: st} }

// Result is the outcome of a SELECT evaluation: the projected variable
// names (in SELECT order) and the solution sequence.
type Result struct {
	Vars      []string
	Solutions []Solution
}

// Select evaluates a SELECT query, materialising every solution as an
// independent map. The streaming counterpart is SelectRows.
func (e *Engine) Select(q *sparql.Query) (*Result, error) {
	vars, p, err := e.compileSelect(q)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: vars, Solutions: p.solutions()}, nil
}

// compileSelect compiles a SELECT query and names its result columns.
func (e *Engine) compileSelect(q *sparql.Query) ([]string, *plan, error) {
	if q.Form != sparql.Select {
		return nil, nil, fmt.Errorf("eval: Select called on %s query", q.Form)
	}
	p, err := e.compile(algebra.Translate(q))
	return q.Projection(), p, err
}

// RowResult is a SELECT evaluation as the evaluator produces it: the
// projected variable names (in SELECT order) and a lazy, single-use
// sequence of positional rows, row[i] binding Vars[i] and the zero Term
// meaning unbound. A row is valid only until the consumer asks for the
// next one; a consumer that keeps rows copies them.
type RowResult struct {
	Vars []string
	Seq  iter.Seq[Row]
}

// SelectRows compiles a SELECT query and evaluates it lazily: rows are
// produced on demand as the returned sequence is consumed. Operators
// stream where the algebra allows (BGP matching, joins with BGP operands,
// FILTER, UNION, DISTINCT, projection, LIMIT/OFFSET); ORDER BY and
// generic hash joins materialise their inputs. LIMIT stops upstream work
// as soon as it is satisfied, and so does a consumer that breaks out of
// its range loop.
func (e *Engine) SelectRows(q *sparql.Query) (*RowResult, error) {
	vars, p, err := e.compileSelect(q)
	if err != nil {
		return nil, err
	}
	return &RowResult{Vars: vars, Seq: p.rows(vars)}, nil
}

// Ask evaluates an ASK query, stopping at the first solution.
func (e *Engine) Ask(q *sparql.Query) (bool, error) {
	if q.Form != sparql.Ask {
		return false, fmt.Errorf("eval: Ask called on %s query", q.Form)
	}
	p, err := e.compile(algebra.Translate(q))
	if err != nil {
		return false, err
	}
	found := false
	p.root.run(func(Row) bool {
		found = true
		return false
	})
	return found, nil
}

// Construct evaluates a CONSTRUCT query, instantiating the template once
// per solution. Template blank nodes are renamed per solution; template
// triples with unbound variables or ill-formed positions are skipped, per
// the SPARQL specification.
func (e *Engine) Construct(q *sparql.Query) (rdf.Graph, error) {
	if q.Form != sparql.Construct {
		return nil, fmt.Errorf("eval: Construct called on %s query", q.Form)
	}
	p, err := e.compile(algebra.Translate(q))
	if err != nil {
		return nil, err
	}
	var g rdf.Graph
	fr, n := &frame{p: p}, 0
	p.root.run(func(r Row) bool {
		fr.row = r
		suffix := "_c" + strconv.Itoa(n)
		n++
		for _, tpl := range q.Template {
			if t, ok := instantiate(tpl, fr, suffix); ok {
				g = append(g, t)
			}
		}
		return true
	})
	return g.Dedup(), nil
}

// Describe evaluates a DESCRIBE query over the engine's store: the
// described resources are the query's ground IRIs plus every IRI bound to
// a DESCRIBE variable by the WHERE clause, and each resource's
// description is its outgoing triples (the lightweight reading of the
// specification's implementation-defined description).
func (e *Engine) Describe(q *sparql.Query) (rdf.Graph, error) {
	if q.Form != sparql.Describe {
		return nil, fmt.Errorf("eval: Describe called on %s query", q.Form)
	}
	resources, describeVars := q.DescribeResources()
	seen := map[string]bool{}
	for _, r := range resources {
		seen[r.Value] = true
	}
	if len(describeVars) > 0 && q.Where != nil {
		p, err := e.compile(algebra.Translate(q))
		if err != nil {
			return nil, err
		}
		fr := &frame{p: p}
		p.root.run(func(r Row) bool {
			fr.row = r
			for _, v := range describeVars {
				if t, _ := fr.lookup(v); t.IsIRI() && !seen[t.Value] {
					seen[t.Value] = true
					resources = append(resources, t)
				}
			}
			return true
		})
	}
	var g rdf.Graph
	for _, r := range resources {
		e.Store.Match(rdf.Triple{S: r, P: rdf.Any, O: rdf.Any}, func(t rdf.Triple) bool {
			g = append(g, t)
			return true
		})
	}
	return g.Dedup(), nil
}

// InstantiateTemplate instantiates one CONSTRUCT template triple under a
// solution: variables resolve through the solution, blank nodes are
// renamed with the per-solution suffix, and the second return is false
// when an unbound variable or an ill-formed position (literal subject,
// non-IRI predicate) makes the triple unusable, per the SPARQL
// specification. Shared with the mediator, whose CONSTRUCT/DESCRIBE
// streams instantiate templates over federated solutions.
func InstantiateTemplate(tpl rdf.Triple, sol Bindings, bnodeSuffix string) (rdf.Triple, bool) {
	return instantiate(tpl, sol, bnodeSuffix)
}

func instantiate(tpl rdf.Triple, b Bindings, bnodeSuffix string) (rdf.Triple, bool) {
	resolve := func(t rdf.Term) (rdf.Term, bool) {
		switch t.Kind {
		case rdf.KindVar:
			return b.lookup(t.Value)
		case rdf.KindBlank:
			return rdf.NewBlank(t.Value + bnodeSuffix), true
		default:
			return t, true
		}
	}
	s, ok := resolve(tpl.S)
	if !ok || s.Kind == rdf.KindLiteral {
		return rdf.Triple{}, false
	}
	p, ok := resolve(tpl.P)
	if !ok || p.Kind != rdf.KindIRI {
		return rdf.Triple{}, false
	}
	o, ok := resolve(tpl.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

// EvalBGP evaluates a bare basic graph pattern (outside any query) and
// returns its solutions, blank-node pseudo-bindings included under their
// "_:" keys; used by the forward-chaining materialiser, which treats
// alignment RHS conjunctions as rule bodies.
func (e *Engine) EvalBGP(patterns []rdf.Triple) ([]Solution, error) {
	p, err := e.compile(&algebra.BGP{Patterns: patterns})
	if err != nil {
		return nil, err
	}
	return p.solutions(), nil
}
