package sparql

import (
	"math/rand"
	"reflect"
	"testing"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// Random-AST round-trip properties: any expression tree the generator can
// build must serialise through FormatExpr and re-parse to a structurally
// identical tree (this is the guarantee the rewriter relies on when it
// rewrites FILTER expressions), and whole queries assembled from random
// parts must survive Format → Parse unchanged.

func randTerm(rng *rand.Rand) rdf.Term {
	switch rng.Intn(6) {
	case 0:
		return rdf.NewVar([]string{"a", "b", "c", "x"}[rng.Intn(4)])
	case 1:
		return rdf.NewIRI("http://example.org/e" + string(rune('a'+rng.Intn(16))))
	case 2:
		return rdf.NewLiteral([]string{"v", "hello world", "with \"quote\"", ""}[rng.Intn(4)])
	case 3:
		return rdf.NewInteger(int64(rng.Intn(100) - 50))
	case 4:
		return rdf.NewTypedLiteral("2.5", rdf.XSDDecimal)
	default:
		return rdf.NewLangLiteral("chat", "fr")
	}
}

func randExpr(rng *rand.Rand, depth int) Expression {
	if depth <= 0 || rng.Intn(4) == 0 {
		return &TermExpr{Term: randTerm(rng)}
	}
	switch rng.Intn(8) {
	case 0, 1:
		ops := []string{"||", "&&"}
		return &Binary{Op: ops[rng.Intn(2)], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 2, 3:
		ops := []string{"=", "!=", "<", ">", "<=", ">="}
		return &Binary{Op: ops[rng.Intn(6)], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 4:
		ops := []string{"+", "-", "*", "/"}
		return &Binary{Op: ops[rng.Intn(4)], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 5:
		ops := []string{"!", "-", "+"}
		return &Unary{Op: ops[rng.Intn(3)], X: randExpr(rng, depth-1)}
	case 6:
		// builtins with correct arity
		switch rng.Intn(4) {
		case 0:
			return &Call{Name: "BOUND", Args: []Expression{&TermExpr{Term: rdf.NewVar("x")}}}
		case 1:
			return &Call{Name: "STR", Args: []Expression{randExpr(rng, depth-1)}}
		case 2:
			return &Call{Name: "REGEX", Args: []Expression{
				randExpr(rng, depth-1), &TermExpr{Term: rdf.NewLiteral("^pat")}}}
		default:
			return &Call{Name: "SAMETERM", Args: []Expression{
				randExpr(rng, depth-1), randExpr(rng, depth-1)}}
		}
	default:
		return &Call{Name: "http://example.org/fn", IRIFunc: true,
			Args: []Expression{randExpr(rng, depth-1)}}
	}
}

func TestRandomExpressionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		expr := randExpr(rng, 4)
		q := NewQuery(Select)
		q.SelectStar = true
		q.Where = &GroupGraphPattern{Elements: []GroupElement{
			&BGP{Patterns: []rdf.Triple{{S: rdf.NewVar("s"), P: rdf.NewVar("p"), O: rdf.NewVar("o")}}},
			&Filter{Expr: expr},
		}}
		text := Format(q)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: reparse failed: %v\n%s", trial, err, text)
		}
		got := q2.Filters()[0].Expr
		if !reflect.DeepEqual(expr, got) {
			t.Fatalf("trial %d: expression changed:\nbefore: %#v\nafter:  %#v\ntext: %s",
				trial, expr, got, text)
		}
	}
}

func TestRandomQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	preds := []rdf.Term{
		rdf.NewIRI("http://example.org/p1"),
		rdf.NewIRI("http://example.org/p2"),
		rdf.NewIRI(rdf.RDFType),
	}
	for trial := 0; trial < 200; trial++ {
		q := NewQuery(Select)
		q.Distinct = rng.Intn(2) == 0
		nvars := 1 + rng.Intn(3)
		for i := 0; i < nvars; i++ {
			q.SelectVars = append(q.SelectVars, string(rune('a'+i)))
		}
		group := &GroupGraphPattern{}
		npat := 1 + rng.Intn(4)
		var pats []rdf.Triple
		for i := 0; i < npat; i++ {
			pats = append(pats, rdf.Triple{
				S: rdf.NewVar(string(rune('a' + rng.Intn(3)))),
				P: preds[rng.Intn(len(preds))],
				O: randTerm(rng),
			})
		}
		group.Elements = append(group.Elements, &BGP{Patterns: pats})
		if rng.Intn(2) == 0 {
			group.Elements = append(group.Elements, &Optional{Group: &GroupGraphPattern{
				Elements: []GroupElement{&BGP{Patterns: []rdf.Triple{{
					S: rdf.NewVar("a"), P: preds[0], O: rdf.NewVar("opt"),
				}}}},
			}})
		}
		if rng.Intn(2) == 0 {
			group.Elements = append(group.Elements, &Filter{Expr: randExpr(rng, 2)})
		}
		if rng.Intn(3) == 0 {
			group.Elements = append(group.Elements, &Union{Alternatives: []*GroupGraphPattern{
				{Elements: []GroupElement{&BGP{Patterns: []rdf.Triple{{
					S: rdf.NewVar("a"), P: preds[1], O: rdf.NewVar("u1"),
				}}}}},
				{Elements: []GroupElement{&BGP{Patterns: []rdf.Triple{{
					S: rdf.NewVar("a"), P: preds[2], O: rdf.NewIRI("http://example.org/C"),
				}}}}},
			}})
		}
		q.Where = group
		if rng.Intn(2) == 0 {
			q.OrderBy = []OrderCondition{{Expr: &TermExpr{Term: rdf.NewVar("a")}, Desc: rng.Intn(2) == 0}}
		}
		if rng.Intn(2) == 0 {
			q.Limit = rng.Intn(50)
		}
		if rng.Intn(3) == 0 {
			q.Offset = rng.Intn(10)
		}

		text := Format(q)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: reparse failed: %v\n%s", trial, err, text)
		}
		// Structural comparison of the pieces that matter.
		if q2.Distinct != q.Distinct || q2.Limit != q.Limit || q2.Offset != q.Offset ||
			!reflect.DeepEqual(q2.SelectVars, q.SelectVars) {
			t.Fatalf("trial %d: header changed\n%s", trial, text)
		}
		b1, b2 := q.BGPs(), q2.BGPs()
		if len(b1) != len(b2) {
			t.Fatalf("trial %d: BGP count %d vs %d\n%s", trial, len(b1), len(b2), text)
		}
		for i := range b1 {
			if !reflect.DeepEqual(b1[i].Patterns, b2[i].Patterns) {
				t.Fatalf("trial %d: BGP %d changed\n%s", trial, i, text)
			}
		}
		if len(q.Filters()) != len(q2.Filters()) {
			t.Fatalf("trial %d: filter count changed\n%s", trial, text)
		}
		for i := range q.Filters() {
			if !reflect.DeepEqual(q.Filters()[i].Expr, q2.Filters()[i].Expr) {
				t.Fatalf("trial %d: filter %d changed\n%s", trial, i, text)
			}
		}
	}
}

// Figure 3 of the paper: Figure 1 rewritten for the KISTI repository.
const figure3 = `PREFIX kid:<http://kisti.rkbexplorer.com/id/>
PREFIX kisti:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
SELECT DISTINCT ?a WHERE {
  ?paper kisti:hasCreatorInfo ?c1 .
  ?c1 kisti:hasCreator kid:PER_000000000000105047 .
  ?paper kisti:hasCreatorInfo ?c2 .
  ?c2 kisti:hasCreator ?a .
  FILTER (!(?a = kid:PER_000000000000105047))
}`

// FuzzParseFormat holds the serialiser to what the mediator leans on when
// it sends an endpoint Format(q) in place of the text q was parsed from:
// whatever parses formats to text that parses again, and formatting is a
// fixpoint from there.
func FuzzParseFormat(f *testing.F) {
	for _, src := range []string{
		figure1, figure3, figure6,
		workload.Figure1Query(7), workload.CrossVocabularyQuery(3),
		// A chain of authorship hops, and a title lookup.
		`PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT * WHERE {
  ?p0 akt:has-author ?a0 .
  ?p1 akt:has-author ?a0 .
  ?p1 akt:has-author ?a1 .
  ?p2 akt:has-author ?a1 .
}`,
		`PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?t WHERE { <http://southampton.rkbexplorer.com/id/paper-00002> akt:has-title ?t }`,
		// A VALUES-sharded sub-query, with an UNDEF cell.
		`PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?a WHERE { VALUES (?p ?n) { (<http://e/p1> "x") (<http://e/p2> UNDEF) } ?p akt:has-author ?a }`,
		`PREFIX ex:<http://example.org/>
SELECT REDUCED ?s ?v WHERE {
  ?s ex:p ?v . OPTIONAL { ?s ex:q ?q . FILTER (BOUND(?q) || ?v > 2.5) }
  { ?s ex:r "chat"@fr } UNION { ?s ex:t "7"^^<http://www.w3.org/2001/XMLSchema#integer> }
  FILTER (REGEX(STR(?s), "^http", "i") && !(?v = -3))
} ORDER BY DESC(?v) ?s LIMIT 7 OFFSET 2`,
		`ASK { ?s ?p ?o }`,
		`PREFIX ex:<http://example.org/> CONSTRUCT { ?s ex:knows _:b . _:b ex:name ?n } WHERE { ?s ex:name ?n } LIMIT 5`,
		`DESCRIBE <http://example.org/a> ?x WHERE { ?x a <http://example.org/C> }`,
		`DESCRIBE <http://example.org/a>`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(q)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Format's output does not parse: %v\ninput:  %q\noutput: %q", err, src, text)
		}
		if again := Format(q2); again != text {
			t.Fatalf("Format is not a fixpoint\ninput:  %q\nfirst:  %q\nsecond: %q", src, text, again)
		}
	})
}
