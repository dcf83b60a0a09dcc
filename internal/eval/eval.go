package eval

import (
	"fmt"
	"sort"
	"strconv"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// TripleSource is the storage surface the engine evaluates against: a
// pattern matcher plus the two statistics the join-order heuristic needs.
// store.Store is the one implementation; endpoint.Server, the local://
// views and the materialisation baseline all reach it through here.
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

// Select evaluates a SELECT query, materialising every solution. The
// streaming counterpart is SelectSeq.
func (e *Engine) Select(q *sparql.Query) (*Result, error) {
	sr, err := e.SelectSeq(q)
	if err != nil {
		return nil, err
	}
	sols, err := Collect(sr.Seq)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: sr.Vars, Solutions: sols}, nil
}

// Ask evaluates an ASK query. The lazy evaluation path lets it stop at
// the first solution instead of materialising the full result.
func (e *Engine) Ask(q *sparql.Query) (bool, error) {
	if q.Form != sparql.Ask {
		return false, fmt.Errorf("eval: Ask called on %s query", q.Form)
	}
	for _, err := range e.evalSeq(algebra.Translate(q)) {
		if err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// Construct evaluates a CONSTRUCT query, instantiating the template once
// per solution. Template blank nodes are renamed per solution; template
// triples with unbound variables or ill-formed positions are skipped, per
// the SPARQL specification.
func (e *Engine) Construct(q *sparql.Query) (rdf.Graph, error) {
	if q.Form != sparql.Construct {
		return nil, fmt.Errorf("eval: Construct called on %s query", q.Form)
	}
	sols, err := e.eval(algebra.Translate(q))
	if err != nil {
		return nil, err
	}
	var g rdf.Graph
	for i, sol := range sols {
		suffix := "_c" + strconv.Itoa(i)
		for _, tpl := range q.Template {
			t, ok := InstantiateTemplate(tpl, sol, suffix)
			if !ok {
				continue
			}
			g = append(g, t)
		}
	}
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
	add := func(t rdf.Term) {
		if t.IsIRI() && !seen[t.Value] {
			seen[t.Value] = true
			resources = append(resources, t)
		}
	}
	if len(describeVars) > 0 && q.Where != nil {
		sols, err := e.eval(algebra.Translate(q))
		if err != nil {
			return nil, err
		}
		for _, sol := range sols {
			for _, v := range describeVars {
				if t, ok := sol[v]; ok {
					add(t)
				}
			}
		}
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
func InstantiateTemplate(tpl rdf.Triple, sol Solution, bnodeSuffix string) (rdf.Triple, bool) {
	resolve := func(t rdf.Term) (rdf.Term, bool) {
		switch t.Kind {
		case rdf.KindVar:
			v, ok := sol[t.Value]
			return v, ok
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
// returns its solutions; used by the forward-chaining materialiser, which
// treats alignment RHS conjunctions as rule bodies.
func (e *Engine) EvalBGP(patterns []rdf.Triple) ([]Solution, error) {
	return e.evalBGP(patterns, Solution{})
}

// EvalAlgebra evaluates an arbitrary algebra tree, for callers (such as
// the algebra-level rewriter) that operate below the Query layer.
func (e *Engine) EvalAlgebra(op algebra.Op) ([]Solution, error) {
	return e.eval(op)
}

// eval interprets an algebra tree by draining the lazy evaluation path
// (see evalSeq in stream.go, the engine's core interpreter).
func (e *Engine) eval(op algebra.Op) ([]Solution, error) {
	return Collect(e.evalSeq(op))
}

// tableSolutions converts a VALUES table into its solution sequence,
// leaving UNDEF (zero-term) positions unbound.
func tableSolutions(t *algebra.Table) []Solution {
	out := make([]Solution, 0, len(t.Rows))
	for _, row := range t.Rows {
		sol := Solution{}
		for i, v := range t.Vars {
			if i < len(row) && row[i].Kind != rdf.KindAny {
				sol[v] = row[i]
			}
		}
		out = append(out, sol)
	}
	return out
}

// tableBGPJoin recognises a Join with a Table on one side and a BGP on the
// other (join is commutative, so either orientation qualifies).
func tableBGPJoin(j *algebra.Join) (*algebra.Table, *algebra.BGP, bool) {
	if t, ok := j.L.(*algebra.Table); ok {
		if b, ok := j.R.(*algebra.BGP); ok {
			return t, b, true
		}
	}
	if t, ok := j.R.(*algebra.Table); ok {
		if b, ok := j.L.(*algebra.BGP); ok {
			return t, b, true
		}
	}
	return nil, nil, false
}

// evalBGP is the buffered form of evalBGPSeq (stream.go).
func (e *Engine) evalBGP(patterns []rdf.Triple, seed Solution) ([]Solution, error) {
	return Collect(e.evalBGPSeq(patterns, seed))
}

// substitute replaces bound variables/blanks in a pattern with their
// values; remaining unbound positions become wildcards for the store
// (blank nodes in patterns are existentials, not data terms to look up).
func substitute(pat rdf.Triple, sol Solution) rdf.Triple {
	res := pat
	for i, t := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		key, bindable := bindingKey(t)
		if !bindable {
			continue
		}
		v, ok := sol[key]
		if !ok {
			v = rdf.Any
		}
		switch i {
		case 0:
			res.S = v
		case 1:
			res.P = v
		case 2:
			res.O = v
		}
	}
	return res
}

// extend binds the pattern's unbound positions against a concrete data
// triple, failing when one variable would need two distinct values.
func extend(sol Solution, pat rdf.Triple, data rdf.Triple) (Solution, bool) {
	out := sol
	cloned := false
	bind := func(p, d rdf.Term) bool {
		key, bindable := bindingKey(p)
		if !bindable {
			return p == d // ground: must match (store guarantees, but re-check)
		}
		if v, ok := out[key]; ok {
			return v == d
		}
		if !cloned {
			out = sol.Clone()
			cloned = true
		}
		out[key] = d
		return true
	}
	if !bind(pat.S, data.S) || !bind(pat.P, data.P) || !bind(pat.O, data.O) {
		return nil, false
	}
	return out, true
}

// reorder greedily picks, at each step, the pattern with the lowest
// estimated cardinality given the variables bound so far — the classic
// selectivity heuristic the paper cites (Stocker et al., WWW'08).
func (e *Engine) reorder(patterns []rdf.Triple, seed Solution) []rdf.Triple {
	remaining := append([]rdf.Triple(nil), patterns...)
	boundVars := map[string]bool{}
	for k := range seed {
		boundVars[k] = true
	}
	var out []rdf.Triple
	for len(remaining) > 0 {
		best, bestCost := 0, int(^uint(0)>>1)
		for i, pat := range remaining {
			cost := e.estimate(pat, boundVars)
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		chosen := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, chosen)
		for _, v := range []rdf.Term{chosen.S, chosen.P, chosen.O} {
			if key, ok := bindingKey(v); ok {
				boundVars[key] = true
			}
		}
	}
	return out
}

// estimate scores a pattern: lower is more selective. Ground or already-
// bound positions count as bound; the store's predicate statistics break
// ties between patterns with equal bound shape.
func (e *Engine) estimate(pat rdf.Triple, boundVars map[string]bool) int {
	boundCount := 0
	isBound := func(t rdf.Term) bool {
		if key, ok := bindingKey(t); ok {
			return boundVars[key]
		}
		return true
	}
	sb, pb, ob := isBound(pat.S), isBound(pat.P), isBound(pat.O)
	for _, b := range []bool{sb, pb, ob} {
		if b {
			boundCount++
		}
	}
	// Base cost decreases with more bound positions; subject-bound shapes
	// are cheaper than object-bound which are cheaper than predicate-only.
	base := (3 - boundCount) * 1_000_000
	if pb && pat.P.Kind == rdf.KindIRI {
		base += e.Store.PredicateCount(pat.P)
	} else {
		base += e.Store.Size()
	}
	if sb {
		base -= 500_000
	}
	if ob {
		base -= 250_000
	}
	if base < 0 {
		base = 0
	}
	return base
}

func (e *Engine) sortSolutions(sols []Solution, conds []sparql.OrderCondition) {
	sort.SliceStable(sols, func(i, j int) bool {
		for _, c := range conds {
			vi, ei := evalExpr(c.Expr, sols[i], e.Funcs)
			vj, ej := evalExpr(c.Expr, sols[j], e.Funcs)
			// SPARQL ordering: unbound/error sorts lowest.
			if ei != nil && ej != nil {
				continue
			}
			if ei != nil {
				return !c.Desc
			}
			if ej != nil {
				return c.Desc
			}
			c0 := orderCompare(vi, vj)
			if c0 == 0 {
				continue
			}
			if c.Desc {
				return c0 > 0
			}
			return c0 < 0
		}
		return false
	})
}

// orderCompare is the total ORDER BY comparator: blank < IRI < literal by
// kind, then value-aware comparison within kinds.
func orderCompare(a, b rdf.Term) int {
	rank := func(t rdf.Term) int {
		switch t.Kind {
		case rdf.KindBlank:
			return 0
		case rdf.KindIRI:
			return 1
		default:
			return 2
		}
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return ra - rb
	}
	if a.Kind == rdf.KindLiteral && b.Kind == rdf.KindLiteral {
		if c, err := compareOrdered(a, b); err == nil {
			return c
		}
	}
	return a.Compare(b)
}

// hashJoin joins two solution sets on their shared variables.
func hashJoin(l, r []Solution) []Solution {
	if len(l) == 0 || len(r) == 0 {
		return nil
	}
	// Find shared variables from representative solutions. Solutions from
	// one operand may bind different variable sets (e.g. under UNION), so
	// collect the union of names per side.
	lVars := map[string]bool{}
	for _, s := range l {
		for k := range s {
			lVars[k] = true
		}
	}
	var shared []string
	sharedSeen := map[string]bool{}
	for _, s := range r {
		for k := range s {
			if lVars[k] && !sharedSeen[k] {
				sharedSeen[k] = true
				shared = append(shared, k)
			}
		}
	}
	sort.Strings(shared)
	if len(shared) == 0 {
		// Cartesian product.
		var out []Solution
		for _, ls := range l {
			for _, rs := range r {
				out = append(out, ls.Merge(rs))
			}
		}
		return out
	}
	// Bucket the right side by shared-variable key; solutions missing some
	// shared variable fall back to a scan list.
	buckets := map[string][]Solution{}
	var unkeyed []Solution
	for _, rs := range r {
		complete := true
		for _, v := range shared {
			if !rs.Bound(v) {
				complete = false
				break
			}
		}
		if complete {
			k := rs.keyOn(shared)
			buckets[k] = append(buckets[k], rs)
		} else {
			unkeyed = append(unkeyed, rs)
		}
	}
	var out []Solution
	for _, ls := range l {
		complete := true
		for _, v := range shared {
			if !ls.Bound(v) {
				complete = false
				break
			}
		}
		if complete {
			for _, rs := range buckets[ls.keyOn(shared)] {
				if ls.Compatible(rs) {
					out = append(out, ls.Merge(rs))
				}
			}
		} else {
			for _, bucket := range buckets {
				for _, rs := range bucket {
					if ls.Compatible(rs) {
						out = append(out, ls.Merge(rs))
					}
				}
			}
		}
		for _, rs := range unkeyed {
			if ls.Compatible(rs) {
				out = append(out, ls.Merge(rs))
			}
		}
	}
	return out
}
