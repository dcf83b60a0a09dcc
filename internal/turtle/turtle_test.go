package turtle

import (
	"fmt"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

func TestParseBasicTriples(t *testing.T) {
	g, pm, err := Parse(`
@prefix ex: <http://example.org/> .
ex:alice ex:knows ex:bob .
ex:alice ex:name "Alice" .
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("got %d triples: %v", len(g), g)
	}
	if ns, _ := pm.Namespace("ex"); ns != "http://example.org/" {
		t.Fatalf("prefix map: %q", ns)
	}
	want := rdf.NewTriple(rdf.NewIRI("http://example.org/alice"),
		rdf.NewIRI("http://example.org/knows"), rdf.NewIRI("http://example.org/bob"))
	if g[0] != want {
		t.Fatalf("triple = %v, want %v", g[0], want)
	}
}

func TestParsePredicateAndObjectLists(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
ex:s ex:p1 ex:a , ex:b ;
     ex:p2 ex:c ;
     a ex:Thing .
`)
	if len(g) != 4 {
		t.Fatalf("got %d triples: %v", len(g), g)
	}
	// 'a' expands to rdf:type
	found := false
	for _, tr := range g {
		if tr.P.Value == rdf.RDFType && tr.O.Value == "http://example.org/Thing" {
			found = true
		}
	}
	if !found {
		t.Fatal("rdf:type triple missing")
	}
}

func TestParseLiterals(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:plain "hello" ;
     ex:lang "bonjour"@fr ;
     ex:typed "5"^^xsd:integer ;
     ex:int 42 ;
     ex:dec 3.14 ;
     ex:dbl 1e6 ;
     ex:neg -7 ;
     ex:bool true .
`)
	byPred := map[string]rdf.Term{}
	for _, tr := range g {
		byPred[tr.P.Value] = tr.O
	}
	ex := "http://example.org/"
	if byPred[ex+"plain"] != rdf.NewLiteral("hello") {
		t.Errorf("plain = %v", byPred[ex+"plain"])
	}
	if byPred[ex+"lang"] != rdf.NewLangLiteral("bonjour", "fr") {
		t.Errorf("lang = %v", byPred[ex+"lang"])
	}
	if byPred[ex+"typed"] != rdf.NewTypedLiteral("5", rdf.XSDInteger) {
		t.Errorf("typed = %v", byPred[ex+"typed"])
	}
	if byPred[ex+"int"] != rdf.NewTypedLiteral("42", rdf.XSDInteger) {
		t.Errorf("int = %v", byPred[ex+"int"])
	}
	if byPred[ex+"dec"] != rdf.NewTypedLiteral("3.14", rdf.XSDDecimal) {
		t.Errorf("dec = %v", byPred[ex+"dec"])
	}
	if byPred[ex+"dbl"] != rdf.NewTypedLiteral("1e6", rdf.XSDDouble) {
		t.Errorf("dbl = %v", byPred[ex+"dbl"])
	}
	if byPred[ex+"neg"] != rdf.NewTypedLiteral("-7", rdf.XSDInteger) {
		t.Errorf("neg = %v", byPred[ex+"neg"])
	}
	if byPred[ex+"bool"] != rdf.NewTypedLiteral("true", rdf.XSDBoolean) {
		t.Errorf("bool = %v", byPred[ex+"bool"])
	}
}

func TestParseBlankNodes(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
_:x ex:p _:y .
ex:s ex:q [ ex:inner "v" ] .
`)
	if len(g) != 3 {
		t.Fatalf("got %d triples: %v", len(g), g)
	}
	if !g[0].S.IsBlank() || !g[0].O.IsBlank() {
		t.Fatal("labelled blank nodes lost")
	}
	// bnode property list: generated label must not collide with _:x/_:y
	var genLabel string
	for _, tr := range g {
		if tr.P.Value == "http://example.org/inner" {
			genLabel = tr.S.Value
		}
	}
	if genLabel == "" || genLabel == "x" || genLabel == "y" {
		t.Fatalf("generated label %q invalid", genLabel)
	}
}

func TestParseNestedBlankNodePropertyLists(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
ex:s ex:p [ ex:q [ ex:r "deep" ] ; ex:flat "x" ] .
`)
	if len(g) != 4 {
		t.Fatalf("got %d triples: %v", len(g), g)
	}
}

func TestParseBlankNodePropertyListAsSubject(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
[ ex:p "v" ] ex:q ex:o .
[ ex:standalone "only" ] .
`)
	if len(g) != 3 {
		t.Fatalf("got %d triples: %v", len(g), g)
	}
}

func TestParseCollections(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
ex:s ex:list ( ex:a "b" 3 ) .
ex:s ex:empty () .
`)
	// list: 3 first + 3 rest + 1 link + 1 empty = triples:
	// s list head; head first a; head rest n1; n1 first "b"; n1 rest n2;
	// n2 first 3; n2 rest nil; s empty nil  => 8
	if len(g) != 8 {
		t.Fatalf("got %d triples:\n%v", len(g), g)
	}
	firsts := 0
	for _, tr := range g {
		if tr.P.Value == rdf.RDFFirst {
			firsts++
		}
		if tr.P.Value == "http://example.org/empty" && tr.O.Value != rdf.RDFNil {
			t.Fatalf("empty collection must be rdf:nil, got %v", tr.O)
		}
	}
	if firsts != 3 {
		t.Fatalf("rdf:first count = %d, want 3", firsts)
	}
}

func TestParseSPARQLStyleDirectives(t *testing.T) {
	g, pm, err := Parse(`
PREFIX ex: <http://example.org/>
BASE <http://base.org/dir/doc>
ex:s ex:p <rel> .
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.ResolveIRI("#frag"); got != "http://base.org/dir/doc#frag" {
		t.Fatalf("base resolves #frag to %q", got)
	}
	if g[0].O.Value != "http://base.org/dir/rel" {
		t.Fatalf("relative IRI resolved to %q", g[0].O.Value)
	}
}

func TestParsePaperAlignmentListing(t *testing.T) {
	// The §3.2.2 Turtle listing shape: reified statements with bnode
	// property lists and a collection of function arguments.
	src := `
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
@prefix akt2kisti: <http://ecs.soton.ac.uk/alignments/akt2kisti#> .
@prefix akt: <http://www.aktors.org/ontology/portal#> .
@prefix kisti: <http://www.kisti.re.kr/isrl/ResearchRefOntology#> .
akt2kisti:creator_info
  a map:EntityAlignment ;
  map:lhs [
    rdf:type rdf:Statement ;
    rdf:subject _:p1 ;
    rdf:predicate akt:has-author ;
    rdf:object _:a1
  ] ;
  map:rhs [
    rdf:type rdf:Statement ;
    rdf:subject _:p2 ;
    rdf:predicate kisti:hasCreatorInfo ;
    rdf:object _:c
  ] ;
  map:rhs [
    rdf:type rdf:Statement ;
    rdf:subject _:c ;
    rdf:predicate kisti:hasCreator ;
    rdf:object _:a2
  ] ;
  map:hasFunctionalDependency [
    rdf:type rdf:Statement ;
    rdf:subject _:a2 ;
    rdf:predicate map:sameas ;
    rdf:object ( _:a1 "http://kisti.rkbexplorer.com/id/\\S*" )
  ] .
`
	g, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stmts := 0
	for _, tr := range g {
		if tr.P.Value == rdf.RDFType && tr.O.Value == rdf.RDFStatement {
			stmts++
		}
	}
	if stmts != 4 {
		t.Fatalf("reified statements = %d, want 4", stmts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`@prefix ex <http://x/> .`,       // missing colon form
		`@prefix ex: "notiri" .`,         // not an IRI
		`ex:s ex:p ex:o .`,               // unbound prefix
		`<http://s> <http://p> .`,        // missing object
		`<http://s> <http://p> "x"`,      // missing dot
		`<http://s> "lit" <http://o> .`,  // literal predicate
		`( <http://x> `,                  // unterminated collection
		`<http://s> <http://p> "x"^^5 .`, // bad datatype
	}
	for _, src := range bad {
		if _, _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestTrailingSemicolon(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
ex:s ex:p ex:o ; .
`)
	if len(g) != 1 {
		t.Fatalf("got %d triples", len(g))
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p1 ex:a , ex:b ;
     ex:p2 "lit" , "5"^^xsd:integer , "fr"@fr ;
     a ex:Thing .
_:b1 ex:p3 ex:s .
`
	g1, pm, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(g1, pm)
	g2, _, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, out)
	}
	// Graphs must be isomorphic; ours only differ possibly in blank labels,
	// and Format preserves labels, so plain set equality works.
	a := append(rdf.Graph{}, g1...).Dedup().Sort()
	b := append(rdf.Graph{}, g2...).Dedup().Sort()
	if len(a) != len(b) {
		t.Fatalf("round trip changed size: %d vs %d\n%s", len(a), len(b), out)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip changed triple %d: %v vs %v\n%s", i, a[i], b[i], out)
		}
	}
	if !strings.Contains(out, "@prefix ex:") {
		t.Fatal("prefix header missing")
	}
	if strings.Contains(out, "@prefix rdf:") {
		// rdf: was never used; unused prefixes must be omitted
		t.Fatal("unused prefix emitted")
	}
}

func TestFormatUsesAKeyword(t *testing.T) {
	g := rdf.Graph{rdf.NewTriple(
		rdf.NewIRI("http://example.org/x"),
		rdf.NewIRI(rdf.RDFType),
		rdf.NewIRI("http://example.org/C"))}
	out := Format(g, nil)
	if !strings.Contains(out, " a <http://example.org/C>") {
		t.Fatalf("expected 'a' keyword, got %s", out)
	}
}

func TestFormatDeterministic(t *testing.T) {
	g := MustParse(`
@prefix ex: <http://example.org/> .
ex:b ex:p ex:o . ex:a ex:p ex:o2 , ex:o1 .
`)
	pm := rdf.NewPrefixMap()
	pm.Bind("ex", "http://example.org/")
	first := Format(g, pm)
	for i := 0; i < 5; i++ {
		if got := Format(g, pm); got != first {
			t.Fatal("Format output is not deterministic")
		}
	}
}

// Property-style test: generated graphs of IRIs and literals round-trip.
func TestRandomGraphRoundTrip(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		var g rdf.Graph
		for i := 0; i < 30; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", (seed*31+i)%11))
			p := rdf.NewIRI(fmt.Sprintf("http://example.org/p%d", i%5))
			var o rdf.Term
			switch i % 4 {
			case 0:
				o = rdf.NewIRI(fmt.Sprintf("http://example.org/o%d", i))
			case 1:
				o = rdf.NewLiteral(fmt.Sprintf("value \"%d\"\nline", i))
			case 2:
				o = rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)
			case 3:
				o = rdf.NewLangLiteral("text", "en")
			}
			g.AddTriple(s, p, o)
		}
		g = g.Dedup()
		out := Format(g, rdf.StandardPrefixes())
		g2, _, err := Parse(out)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, out)
		}
		a, b := g.Sort(), g2.Dedup().Sort()
		if len(a) != len(b) {
			t.Fatalf("seed %d: size %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: triple %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkParse(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://example.org/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "ex:s%d ex:p%d \"literal %d\" .\n", i%100, i%10, i)
	}
	src := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
