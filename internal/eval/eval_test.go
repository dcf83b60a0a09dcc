package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

const testData = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:alice a ex:Person ; ex:name "Alice" ; ex:age 30 ; ex:knows ex:bob , ex:carol .
ex:bob   a ex:Person ; ex:name "Bob"   ; ex:age 25 ; ex:knows ex:carol .
ex:carol a ex:Person ; ex:name "Carol" ; ex:age 35 .
ex:dave  a ex:Robot  ; ex:name "Dave"  .
ex:p1 ex:author ex:alice , ex:bob ; ex:year 2009 .
ex:p2 ex:author ex:alice ; ex:year 2010 .
ex:p3 ex:author ex:carol ; ex:year 2010 ; ex:note "summary"@en .
`

func testEngine(t testing.TB) *Engine {
	t.Helper()
	g, _, err := turtle.Parse(testData)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	return New(st)
}

func sel(t testing.TB, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Select(sparql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	SortSolutions(res.Solutions)
	return res
}

func TestSelectSimpleBGP(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `PREFIX ex: <http://example.org/> SELECT ?n WHERE { ?p a ex:Person ; ex:name ?n }`)
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %d: %v", len(res.Solutions), res.Solutions)
	}
	names := map[string]bool{}
	for _, s := range res.Solutions {
		names[s["n"].Value] = true
	}
	for _, w := range []string{"Alice", "Bob", "Carol"} {
		if !names[w] {
			t.Errorf("missing %s", w)
		}
	}
}

func TestSelectJoinAcrossPatterns(t *testing.T) {
	e := testEngine(t)
	// Co-author-style join: same shape as the paper's Figure 1.
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?a WHERE {
  ?paper ex:author ex:alice .
  ?paper ex:author ?a .
  FILTER (!(?a = ex:alice))
}`)
	if len(res.Solutions) != 1 || res.Solutions[0]["a"].Value != "http://example.org/bob" {
		t.Fatalf("co-authors = %v", res.Solutions)
	}
}

func TestFilterComparisonsAndArithmetic(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:age ?a . FILTER (?a * 2 >= 60 && ?a < 40) }`)
	got := map[string]bool{}
	for _, s := range res.Solutions {
		got[s["p"].Value] = true
	}
	if len(got) != 2 || !got["http://example.org/alice"] || !got["http://example.org/carol"] {
		t.Fatalf("filter result = %v", res.Solutions)
	}
}

func TestFilterRegexAndStr(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:name ?n . FILTER REGEX(STR(?p), "al|bo", "i") }`)
	if len(res.Solutions) != 2 {
		t.Fatalf("regex matched %d: %v", len(res.Solutions), res.Solutions)
	}
}

func TestOptionalKeepsUnmatched(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?pub ?note WHERE { ?pub ex:year ?y OPTIONAL { ?pub ex:note ?note } }`)
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	withNote := 0
	for _, s := range res.Solutions {
		if s.Bound("note") {
			withNote++
		}
	}
	if withNote != 1 {
		t.Fatalf("notes bound = %d", withNote)
	}
}

func TestOptionalWithEmbeddedFilter(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k FILTER (?k = ex:carol) } }`)
	// alice->carol matches, bob->carol matches, carol unmatched (kept).
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	bound := 0
	for _, s := range res.Solutions {
		if s.Bound("k") {
			if s["k"].Value != "http://example.org/carol" {
				t.Fatalf("wrong optional binding: %v", s)
			}
			bound++
		}
	}
	if bound != 2 {
		t.Fatalf("bound = %d, want 2", bound)
	}
}

func TestUnion(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Robot } }`)
	if len(res.Solutions) != 4 {
		t.Fatalf("union size = %d", len(res.Solutions))
	}
}

func TestDistinctAndOrderAndSlice(t *testing.T) {
	e := testEngine(t)
	res, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?y WHERE { ?p ex:year ?y } ORDER BY DESC(?y)`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("distinct years = %v", res.Solutions)
	}
	if res.Solutions[0]["y"].Value != "2010" || res.Solutions[1]["y"].Value != "2009" {
		t.Fatalf("order wrong: %v", res.Solutions)
	}
	res2, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Solutions) != 1 || res2.Solutions[0]["p"].Value != "http://example.org/alice" {
		t.Fatalf("limit/offset = %v", res2.Solutions)
	}
}

func TestOrderByUnboundSortsFirst(t *testing.T) {
	e := testEngine(t)
	res, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?pub ?note WHERE { ?pub ex:year ?y OPTIONAL { ?pub ex:note ?note } } ORDER BY ?note ?pub`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions[len(res.Solutions)-1]["note"].Value != "summary" {
		t.Fatalf("unbound-first ordering violated: %v", res.Solutions)
	}
}

func TestAsk(t *testing.T) {
	e := testEngine(t)
	yes, err := e.Ask(sparql.MustParse(`PREFIX ex: <http://example.org/> ASK { ex:alice ex:knows ex:bob }`))
	if err != nil || !yes {
		t.Fatalf("ask yes = %v %v", yes, err)
	}
	no, err := e.Ask(sparql.MustParse(`PREFIX ex: <http://example.org/> ASK { ex:bob ex:knows ex:alice }`))
	if err != nil || no {
		t.Fatalf("ask no = %v %v", no, err)
	}
}

func TestConstruct(t *testing.T) {
	e := testEngine(t)
	g, err := e.Construct(sparql.MustParse(`
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
CONSTRUCT { ?p foaf:name ?n } WHERE { ?p ex:name ?n . ?p a ex:Person }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 {
		t.Fatalf("constructed %d triples: %v", len(g), g)
	}
	for _, tr := range g {
		if tr.P.Value != rdf.FOAFNS+"name" {
			t.Fatalf("wrong predicate: %v", tr)
		}
	}
}

func TestConstructBlankNodesFreshPerSolution(t *testing.T) {
	e := testEngine(t)
	g, err := e.Construct(sparql.MustParse(`
PREFIX ex: <http://example.org/>
CONSTRUCT { ?p ex:attr _:b . _:b ex:val ?n } WHERE { ?p ex:name ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	// 4 names -> 8 triples, with 4 distinct blank nodes.
	if len(g) != 8 {
		t.Fatalf("constructed %d: %v", len(g), g)
	}
	labels := map[string]bool{}
	for _, tr := range g {
		if tr.O.IsBlank() {
			labels[tr.O.Value] = true
		}
	}
	if len(labels) != 4 {
		t.Fatalf("blank labels = %v", labels)
	}
}

func TestBlankNodeInQueryActsAsVariable(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?n WHERE { _:someone ex:name ?n ; a ex:Person }`)
	if len(res.Solutions) != 3 {
		t.Fatalf("bnode-as-var solutions = %v", res.Solutions)
	}
	// the blank must not leak into the projection
	for _, s := range res.Solutions {
		if len(s) != 1 {
			t.Fatalf("projection leaked: %v", s)
		}
	}
}

func TestBoundAndBangBound(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?pub WHERE { ?pub ex:year ?y OPTIONAL { ?pub ex:note ?note } FILTER (!BOUND(?note)) }`)
	if len(res.Solutions) != 2 {
		t.Fatalf("!BOUND = %v", res.Solutions)
	}
}

func TestLangAndDatatypeBuiltins(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?pub WHERE { ?pub ex:note ?n . FILTER (LANG(?n) = "en") }`)
	if len(res.Solutions) != 1 {
		t.Fatalf("LANG = %v", res.Solutions)
	}
	res = sel(t, e, `
PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?p WHERE { ?p ex:age ?a . FILTER (DATATYPE(?a) = xsd:integer) }`)
	if len(res.Solutions) != 3 {
		t.Fatalf("DATATYPE = %v", res.Solutions)
	}
}

func TestIsIRIIsLiteralSameTerm(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:alice ex:knows ?o . FILTER (ISIRI(?o) && SAMETERM(?o, ex:bob)) }`)
	if len(res.Solutions) != 1 {
		t.Fatalf("isIRI/sameTerm = %v", res.Solutions)
	}
}

func TestErrorSemanticsInOrAnd(t *testing.T) {
	e := testEngine(t)
	// ?note is unbound for p1/p2: (LANG(?note)="en") errors there, but
	// TRUE || error must still pass for p3... and "?y = 2009 || error"
	// passes for p1.
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?pub WHERE {
  ?pub ex:year ?y OPTIONAL { ?pub ex:note ?note }
  FILTER (?y = 2009 || LANG(?note) = "en")
}`)
	if len(res.Solutions) != 2 {
		t.Fatalf("3-valued OR = %v", res.Solutions)
	}
}

func TestTypeErrorRejectsSolution(t *testing.T) {
	e := testEngine(t)
	// name is a string; ?n * 2 is a type error -> filter drops all.
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?p WHERE { ?p ex:name ?n . FILTER (?n * 2 > 0) }`)
	if len(res.Solutions) != 0 {
		t.Fatalf("type error should drop: %v", res.Solutions)
	}
}

func TestCartesianProductJoin(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?x ?y WHERE { { ?x a ex:Robot } { ?y ex:year 2009 } }`)
	if len(res.Solutions) != 1 {
		t.Fatalf("cartesian = %v", res.Solutions)
	}
	s := res.Solutions[0]
	if s["x"].Value != "http://example.org/dave" || s["y"].Value != "http://example.org/p1" {
		t.Fatalf("cartesian bindings = %v", s)
	}
}

func TestJoinReorderAblationSameResults(t *testing.T) {
	g, _, err := turtle.Parse(testData)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	q := `
PREFIX ex: <http://example.org/>
SELECT ?p ?a ?k WHERE { ?p ex:age ?a . ?p ex:knows ?k . ?k a ex:Person }`
	on := New(st)
	off := &Engine{Store: st, DisableJoinReorder: true}
	r1, err := on.Select(sparql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := off.Select(sparql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	SortSolutions(r1.Solutions)
	SortSolutions(r2.Solutions)
	if len(r1.Solutions) != len(r2.Solutions) {
		t.Fatalf("reorder changed result count: %d vs %d", len(r1.Solutions), len(r2.Solutions))
	}
	for i := range r1.Solutions {
		if r1.Solutions[i].Key() != r2.Solutions[i].Key() {
			t.Fatalf("reorder changed results at %d", i)
		}
	}
}

// Property: BGP evaluation is invariant under pattern permutation.
func TestBGPPermutationInvariance(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(3))
	patterns := []string{
		"?p ex:author ?a", "?a ex:name ?n", "?p ex:year ?y",
	}
	baseline := ""
	for trial := 0; trial < 6; trial++ {
		perm := rng.Perm(len(patterns))
		body := ""
		for _, i := range perm {
			body += patterns[i] + " . "
		}
		res := sel(t, e, "PREFIX ex: <http://example.org/> SELECT ?p ?a ?n ?y WHERE { "+body+"}")
		key := ""
		for _, s := range res.Solutions {
			key += s.Key() + "|"
		}
		if trial == 0 {
			baseline = key
		} else if key != baseline {
			t.Fatalf("permutation %v changed results", perm)
		}
	}
}

func TestSelectStarProjectsAllNamedVars(t *testing.T) {
	e := testEngine(t)
	res := sel(t, e, `PREFIX ex: <http://example.org/> SELECT * WHERE { ?p ex:age ?a }`)
	if len(res.Vars) != 2 {
		t.Fatalf("star vars = %v", res.Vars)
	}
	for _, s := range res.Solutions {
		if !s.Bound("p") || !s.Bound("a") {
			t.Fatalf("star solution incomplete: %v", s)
		}
	}
}

func TestWrongFormErrors(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Select(sparql.MustParse(`ASK { ?s ?p ?o }`)); err == nil {
		t.Fatal("Select on ASK must error")
	}
	if _, err := e.Ask(sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o }`)); err == nil {
		t.Fatal("Ask on SELECT must error")
	}
	if _, err := e.Construct(sparql.MustParse(`ASK { ?s ?p ?o }`)); err == nil {
		t.Fatal("Construct on ASK must error")
	}
}

func BenchmarkSelectCoAuthor(b *testing.B) {
	e := testEngine(b)
	benchmarkSelect(b, e, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?a WHERE { ?paper ex:author ex:alice . ?paper ex:author ?a . FILTER (!(?a = ex:alice)) }`)
}

// largeStore holds 20000 papers by 500 authors over 10 years.
func largeStore() *store.Store {
	st := store.New()
	for i := 0; i < 20000; i++ {
		p := rdf.NewIRI(fmt.Sprintf("http://ex/paper%d", i))
		a := rdf.NewIRI(fmt.Sprintf("http://ex/person%d", i%500))
		st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/author"), a))
		st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/year"), rdf.NewInteger(int64(2000+i%10))))
	}
	return st
}

func benchmarkSelect(b *testing.B, e *Engine, query string) {
	q := sparql.MustParse(query)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := e.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectLargeStore(b *testing.B) {
	benchmarkSelect(b, New(largeStore()), `
SELECT ?p WHERE { ?p <http://ex/author> <http://ex/person7> . ?p <http://ex/year> 2007 }`)
}

// BenchmarkSelectValuesSeeded is one shard of a bound join as the
// decomposer sends it: 30 VALUES rows seeding a two-pattern BGP, which is
// planned once for all of them.
func BenchmarkSelectValuesSeeded(b *testing.B) {
	values := "VALUES ?p {"
	for i := range 30 {
		values += fmt.Sprintf(" <http://ex/paper%d>", i*37)
	}
	benchmarkSelect(b, New(largeStore()), `
SELECT ?p ?a ?y WHERE { `+values+` } ?p <http://ex/author> ?a . ?p <http://ex/year> ?y }`)
}
