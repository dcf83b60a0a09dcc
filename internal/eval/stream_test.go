package eval

import (
	"fmt"
	"testing"
	"time"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
)

// streamTestStore builds a small store exercising every operator shape.
func streamTestStore() *store.Store {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	for i := 0; i < 6; i++ {
		p := ex(fmt.Sprintf("paper%d", i))
		st.Add(rdf.Triple{S: p, P: ex("author"), O: ex(fmt.Sprintf("person%d", i%3))})
		st.Add(rdf.Triple{S: p, P: ex("year"), O: rdf.NewTypedLiteral(fmt.Sprint(2000+i), rdf.XSDInteger)})
	}
	st.Add(rdf.Triple{S: ex("person0"), P: ex("name"), O: rdf.NewLiteral("Alice")})
	st.Add(rdf.Triple{S: ex("person1"), P: ex("name"), O: rdf.NewLiteral("Bob")})
	return st
}

// rowSolutions drains a row sequence into maps, copying each row as the
// contract requires.
func rowSolutions(rr *RowResult) []Solution {
	var out []Solution
	for r := range rr.Seq {
		sol := Solution{}
		for i, t := range r {
			if t.Kind != rdf.KindAny {
				sol[rr.Vars[i]] = t
			}
		}
		out = append(out, sol)
	}
	return out
}

// TestSelectRowsMatchSelect asserts the lazy positional path and the
// buffered map path produce identical solution sets for every operator
// class.
func TestSelectRowsMatchSelect(t *testing.T) {
	e := New(streamTestStore())
	queries := []string{
		`PREFIX ex: <http://example.org/> SELECT ?p ?a WHERE { ?p ex:author ?a }`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p ex:author ex:person0 . ?p ex:year ?y }`,
		`PREFIX ex: <http://example.org/> SELECT DISTINCT ?a WHERE { ?p ex:author ?a }`,
		`PREFIX ex: <http://example.org/> SELECT ?a ?n WHERE { ?p ex:author ?a OPTIONAL { ?a ex:name ?n } }`,
		`PREFIX ex: <http://example.org/> SELECT ?x WHERE { { ?x ex:name "Alice" } UNION { ?x ex:name "Bob" } }`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p ex:year ?y FILTER (?y > 2002) }`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p ex:author ?a } ORDER BY ?p LIMIT 3 OFFSET 1`,
		`PREFIX ex: <http://example.org/> SELECT ?p ?a WHERE { VALUES ?a { ex:person0 ex:person1 } ?p ex:author ?a }`,
		`PREFIX ex: <http://example.org/> SELECT ?p WHERE { ?p ex:author ?a } LIMIT 2`,
	}
	for _, qt := range queries {
		q, err := sparql.Parse(qt)
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		buf, err := e.Select(q)
		if err != nil {
			t.Fatalf("Select(%s): %v", qt, err)
		}
		sr, err := e.SelectRows(q)
		if err != nil {
			t.Fatalf("SelectRows(%s): %v", qt, err)
		}
		lazy := rowSolutions(sr)
		if len(lazy) != len(buf.Solutions) {
			t.Fatalf("%s: lazy=%d buffered=%d", qt, len(lazy), len(buf.Solutions))
		}
		// A LIMIT without ORDER BY truncates a nondeterministic order:
		// both paths must agree on the count, but are free to pick
		// different rows, so only untruncated results compare by content.
		if q.Limit < 0 || len(q.OrderBy) > 0 {
			SortSolutions(lazy)
			SortSolutions(buf.Solutions)
			for i := range lazy {
				if lazy[i].Key() != buf.Solutions[i].Key() {
					t.Fatalf("%s: solution %d differs: %v vs %v", qt, i, lazy[i], buf.Solutions[i])
				}
			}
		}
		if len(sr.Vars) != len(buf.Vars) {
			t.Fatalf("%s: vars %v vs %v", qt, sr.Vars, buf.Vars)
		}
	}
}

// TestSelectRowsLazyLimit asserts LIMIT stops upstream work: a three-way
// cartesian product whose full materialisation would be 8M solutions must
// stream its first rows without building them all.
func TestSelectRowsLazyLimit(t *testing.T) {
	st := store.New()
	for i := 0; i < 200; i++ {
		n := rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", i))
		st.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://example.org/a"), O: rdf.NewLiteral("x")})
		st.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://example.org/b"), O: rdf.NewLiteral("y")})
		st.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://example.org/c"), O: rdf.NewLiteral("z")})
	}
	q := sparql.MustParse(`PREFIX ex: <http://example.org/>
SELECT ?x ?y ?z WHERE { ?x ex:a "x" . ?y ex:b "y" . ?z ex:c "z" } LIMIT 3`)
	e := New(st)
	start := time.Now()
	sr, err := e.SelectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	sols := rowSolutions(sr)
	if len(sols) != 3 {
		t.Fatalf("solutions = %d", len(sols))
	}
	// 200^3 = 8M solutions materialised would take far longer than this
	// bound; the streamed LIMIT does constant work.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("LIMIT 3 over an 8M-row product took %s: evaluation is not lazy", d)
	}
}

// TestSelectRowsEarlyBreak asserts that a consumer abandoning the sequence
// mid-way aborts the backtracking search cleanly.
func TestSelectRowsEarlyBreak(t *testing.T) {
	e := New(streamTestStore())
	q := sparql.MustParse(`PREFIX ex: <http://example.org/> SELECT ?p ?a WHERE { ?p ex:author ?a }`)
	sr, err := e.SelectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range sr.Seq {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d", n)
	}
}

// TestAskEarlyStop asserts ASK terminates on the first match rather than
// materialising the full (huge) solution set.
func TestAskEarlyStop(t *testing.T) {
	st := store.New()
	for i := 0; i < 300; i++ {
		n := rdf.NewIRI(fmt.Sprintf("http://example.org/n%d", i))
		st.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://example.org/a"), O: rdf.NewLiteral("x")})
		st.Add(rdf.Triple{S: n, P: rdf.NewIRI("http://example.org/b"), O: rdf.NewLiteral("y")})
	}
	q := sparql.MustParse(`PREFIX ex: <http://example.org/> ASK { ?x ex:a "x" . ?y ex:b "y" }`)
	start := time.Now()
	ok, err := New(st).Ask(q)
	if err != nil || !ok {
		t.Fatalf("ask = %v %v", ok, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("ASK over a 90k-row product took %s: not early-stopping", d)
	}
}
