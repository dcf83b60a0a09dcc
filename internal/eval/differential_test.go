package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/workload"
)

// The reference evaluator: the naive map-per-binding interpreter the
// positional one replaced, kept here as the oracle. It evaluates strictly
// bottom-up with nested-loop joins, so it shares neither the slot frames,
// the seeding, the join order nor the hash join with the code under test.

func refExtend(sol Solution, pat, data rdf.Triple) (Solution, bool) {
	out := sol.Clone()
	for i, p := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		d := [3]rdf.Term{data.S, data.P, data.O}[i]
		key, bindable := bindingKey(p)
		if !bindable {
			if p != d {
				return nil, false
			}
		} else if v, ok := out[key]; ok && v != d {
			return nil, false
		} else {
			out[key] = d
		}
	}
	return out, true
}

func refJoin(l, r []Solution, keep func(Solution) bool) (out []Solution, matched []bool) {
	matched = make([]bool, len(l))
	for i, ls := range l {
		for _, rs := range r {
			if m, ok := refMerge(ls, rs); ok && (keep == nil || keep(m)) {
				out, matched[i] = append(out, m), true
			}
		}
	}
	return out, matched
}

// refMerge is the union of two solutions, ok when they agree on every
// shared variable (the SPARQL join compatibility condition).
func refMerge(l, r Solution) (Solution, bool) {
	out := l.Clone()
	for k, v := range r {
		if lv, ok := l[k]; ok && lv != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

func refEval(st *store.Store, op algebra.Op) []Solution {
	switch o := op.(type) {
	case *algebra.Unit:
		return []Solution{{}}
	case *algebra.BGP:
		sols := []Solution{{}}
		for _, pat := range o.Patterns {
			var next []Solution
			for _, sol := range sols {
				for _, t := range st.MatchAll(rdf.Triple{}) {
					if ext, ok := refExtend(sol, pat, t); ok {
						next = append(next, ext)
					}
				}
			}
			sols = next
		}
		return sols
	case *algebra.Table:
		var out []Solution
		for _, row := range o.Rows {
			sol := Solution{}
			for i, v := range o.Vars {
				if row[i].Kind != rdf.KindAny {
					sol[v] = row[i]
				}
			}
			out = append(out, sol)
		}
		return out
	case *algebra.Join:
		out, _ := refJoin(refEval(st, o.L), refEval(st, o.R), nil)
		return out
	case *algebra.LeftJoin:
		l := refEval(st, o.L)
		out, matched := refJoin(l, refEval(st, o.R), func(m Solution) bool {
			if o.Expr == nil {
				return true
			}
			ok, err := evalBool(o.Expr, m, nil)
			return err == nil && ok
		})
		for i, ls := range l {
			if !matched[i] {
				out = append(out, ls)
			}
		}
		return out
	case *algebra.Union:
		return append(refEval(st, o.L), refEval(st, o.R)...)
	case *algebra.Filter:
		var out []Solution
		for _, sol := range refEval(st, o.Input) {
			if ok, err := evalBool(o.Expr, sol, nil); err == nil && ok {
				out = append(out, sol)
			}
		}
		return out
	case *algebra.Project:
		var out []Solution
		for _, sol := range refEval(st, o.Input) {
			vars := o.Vars
			if o.Star {
				vars = sol.Vars() // drops the "_:" pseudo-bindings
			}
			out = append(out, sol.Project(vars))
		}
		return out
	case *algebra.Distinct:
		var out []Solution
		seen := map[string]bool{}
		for _, sol := range refEval(st, o.Input) {
			if !seen[sol.Key()] {
				seen[sol.Key()] = true
				out = append(out, sol)
			}
		}
		return out
	case *algebra.OrderBy: // the generator orders by plain variables only
		out := refEval(st, o.Input)
		sort.SliceStable(out, func(i, j int) bool {
			for _, c := range o.Conds {
				v := c.Expr.(*sparql.TermExpr).Term.Value
				a, aok := out[i][v]
				b, bok := out[j][v]
				cmp := 0
				switch {
				case aok && bok:
					cmp = orderCompare(a, b)
				case bok:
					cmp = -1 // unbound sorts lowest
				case aok:
					cmp = 1
				}
				if cmp != 0 {
					return (cmp < 0) != c.Desc
				}
			}
			return false
		})
		return out
	case *algebra.Slice:
		out := refEval(st, o.Input)
		out = out[min(max(o.Offset, 0), len(out)):]
		if o.Limit >= 0 {
			out = out[:min(o.Limit, len(out))]
		}
		return out
	default:
		panic(fmt.Sprintf("refEval: %T", op))
	}
}

// queryGen writes random SELECT queries over the differential store.
type queryGen struct {
	rng     *rand.Rand
	triples []rdf.Triple // the store's blank-free triples: what patterns generalise
	subjs   []rdf.Term
}

var genVars = []string{"a", "b", "c", "d", "e"}

func (g *queryGen) chance(p float64) bool { return g.rng.Float64() < p }
func (g *queryGen) variable() rdf.Term    { return rdf.NewVar(genVars[g.rng.Intn(len(genVars))]) }
func (g *queryGen) subject() rdf.Term     { return g.subjs[g.rng.Intn(len(g.subjs))] }

// pattern generalises a stored triple, so that on its own it has answers:
// positions become variables from a small shared pool, blank nodes, or
// stay ground; sometimes the object repeats the subject's term.
func (g *queryGen) pattern() string {
	t := g.triples[g.rng.Intn(len(g.triples))]
	s, p, o := t.S, t.P, t.O
	switch r := g.rng.Float64(); {
	case r < 0.65:
		s = g.variable()
	case r < 0.75:
		s = rdf.NewBlank("x")
	}
	switch r := g.rng.Float64(); {
	case r < 0.55:
		o = g.variable()
	case r < 0.6:
		o = rdf.NewBlank("y")
	case r < 0.66:
		o = s
	}
	if g.chance(0.12) {
		p = g.variable()
	}
	return fmt.Sprintf("%s %s %s .", s, p, o)
}

func (g *queryGen) bgp() string {
	pats := make([]string, 1+g.rng.Intn(4)*g.rng.Intn(2)) // 1–4, half of them 1
	for i := range pats {
		pats[i] = g.pattern()
	}
	return strings.Join(pats, " ")
}

func (g *queryGen) filter() string {
	a, b := g.variable(), g.variable()
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("FILTER(%s = %s)", a, b)
	case 1:
		return fmt.Sprintf("FILTER(%s != %s)", a, g.subject())
	case 2:
		return fmt.Sprintf("FILTER(BOUND(%s))", a)
	case 3:
		return fmt.Sprintf("FILTER(!BOUND(%s) || ISIRI(%s))", a, b)
	default:
		return fmt.Sprintf(`FILTER(STR(%s) >= "P")`, a)
	}
}

func (g *queryGen) union() string {
	return fmt.Sprintf("{ %s } UNION { %s }", g.bgp(), g.bgp())
}

func (g *queryGen) values() string {
	a, b := g.variable(), g.variable()
	for b == a {
		b = g.variable()
	}
	cell := func() string {
		if g.chance(0.3) {
			return "UNDEF"
		}
		return g.subject().String()
	}
	var rows []string
	for range 1 + g.rng.Intn(4) {
		rows = append(rows, fmt.Sprintf("(%s %s)", cell(), cell()))
	}
	return fmt.Sprintf("VALUES (%s %s) { %s }", a, b, strings.Join(rows, " "))
}

func (g *queryGen) query() string {
	var where []string
	if g.chance(0.2) {
		where = append(where, g.values()) // VALUES before the BGP
	}
	where = append(where, g.bgp())
	if g.chance(0.2) {
		where = append(where, g.values()) // VALUES after the BGP
	}
	if g.chance(0.3) {
		where = append(where, g.union())
		if g.chance(0.4) {
			where = append(where, g.union()) // UNION ⋈ UNION: the hash join
		}
	}
	for range g.rng.Intn(3) {
		opt := g.bgp()
		if g.chance(0.3) {
			opt = g.union() // a right side that is not a bare BGP
		}
		for range g.rng.Intn(3) {
			opt += " " + g.filter()
		}
		where = append(where, "OPTIONAL { "+opt+" }")
	}
	if g.chance(0.4) {
		where = append(where, g.filter())
	}
	proj := "*"
	order := genVars
	if !g.chance(0.3) {
		order = nil
		for _, v := range genVars {
			if g.chance(0.5) {
				order = append(order, v)
			}
		}
		if len(order) == 0 {
			order = []string{"a"}
		}
		proj = "?" + strings.Join(order, " ?")
	}
	if g.chance(0.4) {
		proj = "DISTINCT " + proj
	}
	q := fmt.Sprintf("SELECT %s WHERE { %s }", proj, strings.Join(where, " "))
	if g.chance(0.35) {
		// Ordering by every projected variable makes the order total up to
		// identical rows, so LIMIT/OFFSET select a well-defined multiset.
		q += " ORDER BY"
		for _, v := range order {
			if g.chance(0.3) {
				q += " DESC(?" + v + ")"
			} else {
				q += " ?" + v
			}
		}
		if g.chance(0.7) {
			q += fmt.Sprintf(" LIMIT %d", g.rng.Intn(6))
		}
		if g.chance(0.5) {
			q += fmt.Sprintf(" OFFSET %d", g.rng.Intn(4))
		}
	}
	return q
}

// differentialStore is a small workload universe plus the shapes it lacks:
// reflexive triples (for a variable repeated inside one pattern) and blank
// nodes in the data.
func differentialStore() (*store.Store, *queryGen) {
	st := workload.Generate(workload.Config{Persons: 6, Papers: 8, MaxAuthors: 3, Seed: 7}).Southampton
	rel := rdf.NewIRI("http://example.org/rel")
	for _, t := range []rdf.Triple{
		{S: workload.SotonPerson(1), P: rel, O: workload.SotonPerson(1)},
		{S: workload.SotonPaper(2), P: rel, O: workload.SotonPaper(2)},
		{S: workload.SotonPaper(2), P: rel, O: rdf.NewBlank("n1")},
		{S: rdf.NewBlank("n1"), P: rel, O: workload.SotonPerson(3)},
	} {
		st.Add(t)
	}
	g := &queryGen{}
	for _, t := range st.Triples() {
		if t.S.Kind == rdf.KindBlank || t.O.Kind == rdf.KindBlank {
			continue // a blank in a query is a variable, not this node
		}
		g.triples = append(g.triples, t)
		if !slices.Contains(g.subjs, t.S) {
			g.subjs = append(g.subjs, t.S)
		}
	}
	return st, g
}

// TestDifferentialAgainstReference runs seeded random queries through the
// compiled positional evaluator, with and without join reordering, and
// requires the solution multiset (the sequence, under ORDER BY) of the
// reference evaluator above.
func TestDifferentialAgainstReference(t *testing.T) {
	st, g := differentialStore()
	seed := time.Now().UnixNano()
	g.rng = rand.New(rand.NewSource(seed))
	keys := func(sols []Solution, ordered bool) []string {
		out := make([]string, len(sols))
		for i, s := range sols {
			out[i] = s.Key()
		}
		if !ordered {
			sort.Strings(out)
		}
		return out
	}
	nonEmpty := 0
	for i := range 600 {
		text := g.query()
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d, query %d does not parse: %v\n%s", seed, i, err, text)
		}
		ordered := len(q.OrderBy) > 0
		want := keys(refEval(st, algebra.Translate(q)), ordered)
		if len(want) > 0 {
			nonEmpty++
		}
		for _, noReorder := range []bool{false, true} {
			res, err := (&Engine{Store: st, DisableJoinReorder: noReorder}).Select(q)
			if err != nil {
				t.Fatalf("seed %d, query %d: %v\n%s", seed, i, err, text)
			}
			if got := keys(res.Solutions, ordered); !slices.Equal(got, want) {
				t.Fatalf("seed %d, query %d (DisableJoinReorder=%v):\n%s\n got %d solutions %q\nwant %d solutions %q",
					seed, i, noReorder, text, len(got), got, len(want), want)
			}
		}
	}
	if nonEmpty < 150 {
		t.Errorf("seed %d: only %d of 600 queries had answers; the generator lost its bite", seed, nonEmpty)
	}
}
