package sparql

import (
	"reflect"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

// roundTrip formats then reparses, asserting the ASTs agree.
func roundTrip(t *testing.T, src string) *Query {
	t.Helper()
	q1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := Format(q1)
	q2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, out)
	}
	// Compare shape: same form, modifiers, BGP patterns, filter count.
	if q1.Form != q2.Form || q1.Distinct != q2.Distinct || q1.Limit != q2.Limit || q1.Offset != q2.Offset {
		t.Fatalf("modifiers differ after round trip:\n%s", out)
	}
	b1, b2 := q1.BGPs(), q2.BGPs()
	if len(b1) != len(b2) {
		t.Fatalf("BGP count %d vs %d\n%s", len(b1), len(b2), out)
	}
	for i := range b1 {
		if !reflect.DeepEqual(b1[i].Patterns, b2[i].Patterns) {
			t.Fatalf("BGP %d differs:\n%v\nvs\n%v\noutput:\n%s", i, b1[i].Patterns, b2[i].Patterns, out)
		}
	}
	if len(q1.Filters()) != len(q2.Filters()) {
		t.Fatalf("filter count differs\n%s", out)
	}
	return q2
}

func TestFormatRoundTripFigure1(t *testing.T) {
	q := roundTrip(t, figure1)
	out := Format(q)
	if !strings.Contains(out, "SELECT DISTINCT ?a") {
		t.Fatalf("missing select header:\n%s", out)
	}
	if !strings.Contains(out, "akt:has-author") {
		t.Fatalf("prefixed name not shrunk:\n%s", out)
	}
	if !strings.Contains(out, "PREFIX akt:") {
		t.Fatalf("prefix declaration missing:\n%s", out)
	}
}

func TestFormatRoundTripFigure6(t *testing.T) {
	roundTrip(t, figure6)
}

func TestFormatRoundTripComplex(t *testing.T) {
	roundTrip(t, `
PREFIX ex: <http://example.org/>
SELECT ?s ?v WHERE {
  ?s ex:p ?v .
  OPTIONAL { ?s ex:q ?q }
  { ?s ex:r ?r } UNION { ?s ex:t ?t }
  FILTER (REGEX(STR(?s), "^http", "i") && ?v != 3)
}
ORDER BY DESC(?v) ?s
LIMIT 7 OFFSET 2`)
}

func TestFormatRoundTripAskConstruct(t *testing.T) {
	roundTrip(t, `ASK { ?s ?p ?o }`)
	q := roundTrip(t, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
CONSTRUCT { ?p foaf:name ?n . } WHERE { ?p foaf:nick ?n }`)
	if len(q.Template) != 1 {
		t.Fatal("template lost in round trip")
	}
}

func TestFormatExprParenthesisation(t *testing.T) {
	// (a + b) * c must not re-parse as a + (b * c).
	e := &Binary{Op: "*",
		L: &Binary{Op: "+", L: &TermExpr{rdf.NewVar("a")}, R: &TermExpr{rdf.NewVar("b")}},
		R: &TermExpr{rdf.NewVar("c")},
	}
	q := NewQuery(Select)
	q.SelectStar = true
	q.Where = &GroupGraphPattern{Elements: []GroupElement{
		&BGP{Patterns: []rdf.Triple{{S: rdf.NewVar("a"), P: rdf.NewVar("p"), O: rdf.NewVar("b")}}},
		&Filter{Expr: &Binary{Op: ">", L: e, R: &TermExpr{rdf.NewInteger(0)}}},
	}}
	out := Format(q)
	q2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	f := q2.Filters()[0].Expr.(*Binary)
	mul, ok := f.L.(*Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("structure lost: %#v\n%s", f.L, out)
	}
	if add, ok := mul.L.(*Binary); !ok || add.Op != "+" {
		t.Fatalf("parens lost: %#v\n%s", mul.L, out)
	}
}

func TestFormatBlankNodesAndLiterals(t *testing.T) {
	q := roundTrip(t, `
PREFIX ex: <http://example.org/>
SELECT ?n WHERE { _:b ex:name ?n ; ex:age 33 ; ex:note "hi"@en . }`)
	out := Format(q)
	if !strings.Contains(out, "_:b") {
		t.Fatalf("blank node lost:\n%s", out)
	}
}

func TestFormatOmitsUnusedPrefixes(t *testing.T) {
	q := MustParse(`
PREFIX used: <http://used.org/>
PREFIX unused: <http://unused.org/>
SELECT ?s WHERE { ?s used:p ?o }`)
	out := Format(q)
	if strings.Contains(out, "unused:") {
		t.Fatalf("unused prefix emitted:\n%s", out)
	}
}

func TestFormatIsDeterministic(t *testing.T) {
	q := MustParse(figure1)
	first := Format(q)
	for i := 0; i < 5; i++ {
		if Format(q) != first {
			t.Fatal("Format not deterministic")
		}
	}
}

func TestFormatUsesAKeyword(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s a ex:C }`)
	out := Format(q)
	if !strings.Contains(out, "?s a ex:C") {
		t.Fatalf("rdf:type not rendered as 'a':\n%s", out)
	}
}

func BenchmarkParseFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(figure1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatFigure1(b *testing.B) {
	q := MustParse(figure1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Format(q)
	}
}

// TestAppendKey: a key writes the query with its IRIs in full, so prefix
// labels do not count, and maps the terms of its basic graph patterns —
// nested groups included — and VALUES rows through canon, but not a
// FILTER's constants; anything else that differs, differs.
func TestAppendKey(t *testing.T) {
	canon := func(x rdf.Term) rdf.Term {
		if x.IsIRI() && x.Value == "http://e/alias" {
			return rdf.NewIRI("http://e/rep")
		}
		return x
	}
	key := func(text string) string { return string(AppendKey(nil, MustParse(text), canon)) }
	base := key(`PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p e:rep OPTIONAL { e:rep e:q ?y } VALUES ?z { e:rep } FILTER (?x != e:alias) }`)
	for _, same := range []string{
		`PREFIX f: <http://e/> SELECT ?x WHERE { ?x f:p f:rep OPTIONAL { f:rep f:q ?y } VALUES ?z { f:rep } FILTER (?x != f:alias) }`,
		`SELECT ?x WHERE { ?x <http://e/p> <http://e/alias> OPTIONAL { <http://e/alias> <http://e/q> ?y } VALUES ?z { <http://e/alias> } FILTER (?x != <http://e/alias>) }`,
	} {
		if got := key(same); got != base {
			t.Errorf("key of %s\n= %q\nwant %q", same, got, base)
		}
	}
	for _, other := range []string{
		`PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p e:rep OPTIONAL { e:rep e:q ?y } VALUES ?z { e:rep } FILTER (?x != e:rep) }`,
		`PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p e:other OPTIONAL { e:rep e:q ?y } VALUES ?z { e:rep } FILTER (?x != e:alias) }`,
		`PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p e:rep OPTIONAL { e:rep e:q ?y } VALUES ?z { e:rep } FILTER (?x != e:alias) } LIMIT 3`,
		`PREFIX e: <http://e/> SELECT DISTINCT ?x WHERE { ?x e:p e:rep OPTIONAL { e:rep e:q ?y } VALUES ?z { e:rep } FILTER (?x != e:alias) }`,
	} {
		if key(other) == base {
			t.Errorf("%s shares the key of the base query", other)
		}
	}
	if k := string(AppendKey([]byte("prefix:"), MustParse(`SELECT * WHERE { ?s ?p ?o }`), canon)); !strings.HasPrefix(k, "prefix:SELECT") {
		t.Errorf("AppendKey did not append to dst: %q", k)
	}
}
