package eval

import (
	"slices"
	"testing"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

func joinEngine(t testing.TB) *Engine {
	t.Helper()
	g, _, err := turtle.Parse(`
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b ; ex:q ex:c .
ex:b ex:p ex:c ; ex:r ex:d .
ex:c ex:p ex:a .
ex:x ex:s "1" . ex:y ex:s "2" .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	return New(st)
}

func TestJoinWithUnionRightOperand(t *testing.T) {
	// { ?a ex:p ?b } joined with a UNION forces the hash-join path (the
	// right operand is not a bare BGP).
	e := joinEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b WHERE {
  ?a ex:p ?b
  { ?a ex:q ?c } UNION { ?a ex:r ?c }
}`)
	// ex:a has q, ex:b has r; each has one p edge.
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestUnionBranchesBindDifferentVars(t *testing.T) {
	// Hash join where right-side solutions bind different variable sets:
	// exercises the unkeyed bucket path.
	e := joinEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT * WHERE {
  ?a ex:p ?b
  { ?a ex:q ?c } UNION { ?z ex:s "1" }
}`)
	// branch 1: a=ex:a (1 sol); branch 2: z=ex:x × each (a,b) pair (3).
	if len(res.Solutions) != 4 {
		t.Fatalf("solutions = %d: %v", len(res.Solutions), res.Solutions)
	}
}

func TestOptionalWithUnionInside(t *testing.T) {
	e := joinEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT * WHERE {
  ?a ex:p ?b
  OPTIONAL { { ?a ex:q ?c } UNION { ?a ex:r ?c } }
}`)
	// all 3 p-edges survive; a and b get c bound.
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	bound := 0
	for _, s := range res.Solutions {
		if s.Bound("c") {
			bound++
		}
	}
	if bound != 2 {
		t.Fatalf("optional-union bound = %d", bound)
	}
}

func TestNestedOptionals(t *testing.T) {
	e := joinEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT * WHERE {
  ?a ex:p ?b
  OPTIONAL { ?b ex:p ?c OPTIONAL { ?c ex:r ?d } }
}`)
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	// chain a->b->c: c=ex:c has no r; chain b->c->a: a has no r;
	// chain c->a->b: b ex:r ex:d binds d.
	withD := 0
	for _, s := range res.Solutions {
		if s.Bound("d") {
			withD++
		}
	}
	if withD != 1 {
		t.Fatalf("d bound %d times", withD)
	}
}

func TestSliceVariants(t *testing.T) {
	e := joinEngine(t)
	all, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a`))
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Solutions) != 3 {
		t.Fatalf("base = %v", all.Solutions)
	}
	offsetOnly, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p ?b } ORDER BY ?a OFFSET 2`))
	if err != nil {
		t.Fatal(err)
	}
	if len(offsetOnly.Solutions) != 1 {
		t.Fatalf("offset only = %v", offsetOnly.Solutions)
	}
	beyond, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p ?b } OFFSET 99`))
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond.Solutions) != 0 {
		t.Fatalf("offset beyond = %v", beyond.Solutions)
	}
	limitZero, err := e.Select(sparql.MustParse(`
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ?a ex:p ?b } LIMIT 0`))
	if err != nil {
		t.Fatal(err)
	}
	if len(limitZero.Solutions) != 0 {
		t.Fatalf("limit 0 = %v", limitZero.Solutions)
	}
}

func TestEmptyGroupAndAskEmpty(t *testing.T) {
	e := joinEngine(t)
	yes, err := e.Ask(sparql.MustParse(`ASK {}`))
	if err != nil || !yes {
		t.Fatalf("ASK {} = %v %v (empty pattern matches trivially)", yes, err)
	}
}

func TestConstructSkipsIllFormedTriples(t *testing.T) {
	e := joinEngine(t)
	// Literal subject and unbound object templates must be skipped.
	g, err := e.Construct(sparql.MustParse(`
PREFIX ex: <http://example.org/>
CONSTRUCT { ?v ex:p ex:ok . ?a ex:q ?unbound . ?a ?v ex:bad } WHERE { ?a ex:s ?v }`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g {
		if tr.S.Kind == rdf.KindLiteral {
			t.Fatalf("literal subject emitted: %v", tr)
		}
		if tr.P.Kind != rdf.KindIRI {
			t.Fatalf("non-IRI predicate emitted: %v", tr)
		}
	}
	if len(g) != 0 {
		t.Fatalf("expected all templates skipped, got %v", g)
	}
}

func TestOrderByMixedKinds(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(rdf.NewIRI("http://s1"), rdf.NewIRI("http://v"), rdf.NewLiteral("lit")))
	st.Add(rdf.NewTriple(rdf.NewIRI("http://s2"), rdf.NewIRI("http://v"), rdf.NewIRI("http://iri")))
	st.Add(rdf.NewTriple(rdf.NewIRI("http://s3"), rdf.NewIRI("http://v"), rdf.NewBlank("b")))
	e := New(st)
	res, err := e.Select(sparql.MustParse(`SELECT ?o WHERE { ?s <http://v> ?o } ORDER BY ?o`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatal("size")
	}
	// blank < IRI < literal
	if !res.Solutions[0]["o"].IsBlank() || !res.Solutions[1]["o"].IsIRI() || !res.Solutions[2]["o"].IsLiteral() {
		t.Fatalf("kind order wrong: %v", res.Solutions)
	}
}

func TestDistinctAcrossUnionDuplicates(t *testing.T) {
	e := joinEngine(t)
	res := sel(t, e, `
PREFIX ex: <http://example.org/>
SELECT DISTINCT ?a WHERE { { ?a ex:p ?b } UNION { ?a ex:p ?b } }`)
	if len(res.Solutions) != 3 {
		t.Fatalf("distinct over duplicated union = %v", res.Solutions)
	}
}

// TestProbeYieldsMatchingRowsOnce: a bound join's probe reads the rows
// whose cells at the key columns equal some key, in any column order,
// each once however often its key repeats, and stops when yield does.
func TestProbeYieldsMatchingRowsOnce(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
	r := &Indexed{RowBuf: RowBuf{Width: 3}}
	for _, row := range [][3]string{{"p1", "a1", "c1"}, {"p1", "a2", "c1"}, {"p2", "a1", "c2"}, {"p3", "a3", "c3"}} {
		r.Append(Row{iri(row[0]), iri(row[1]), iri(row[2])})
	}
	keys := func(width int, cells ...string) *RowBuf {
		b := &RowBuf{Width: width}
		for i := 0; i < len(cells); i += width {
			row := make(Row, width)
			for j := range row {
				row[j] = iri(cells[i+j])
			}
			b.Append(row)
		}
		return b
	}
	probe := func(cols []int, k *RowBuf) []string {
		var out []string
		r.Probe(cols, k, func(row Row) bool {
			out = append(out, row[0].Value[len("http://e/"):]+"/"+row[1].Value[len("http://e/"):])
			return true
		})
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		name string
		cols []int
		keys *RowBuf
		want []string
	}{
		{"one column, repeated and unmatched keys", []int{0}, keys(1, "p1", "p9", "p1", "p2"), []string{"p1/a1", "p1/a2", "p2/a1"}},
		{"another column", []int{1}, keys(1, "a1"), []string{"p1/a1", "p2/a1"}},
		{"two columns, out of order", []int{2, 0}, keys(2, "c1", "p1", "c3", "p3", "c2", "p1"), []string{"p1/a1", "p1/a2", "p3/a3"}},
		{"no key", []int{0}, keys(1), nil},
	} {
		if got := probe(c.cols, c.keys); !slices.Equal(got, c.want) {
			t.Errorf("%s: probe read %v, want %v", c.name, got, c.want)
		}
	}
	n := 0
	if more := r.Probe([]int{0}, keys(1, "p1", "p2"), func(Row) bool { n++; return false }); more || n != 1 {
		t.Errorf("probe went on after yield stopped it: %d rows, more %v", n, more)
	}
}
