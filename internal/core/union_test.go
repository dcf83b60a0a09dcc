package core

import (
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

// unionEAs models the paper's §3.2.2 level-1 gap: a source concept that
// maps to a *union* of target concepts (owl:unionOf). Two alignments
// share the LHS; UnionMatches turns them into UNION branches.
func unionEAs() []*align.EntityAlignment {
	return []*align.EntityAlignment{
		align.ClassAlignment("http://al/wine1", "http://w1/Wine", "http://w2/RedWine"),
		align.ClassAlignment("http://al/wine2", "http://w1/Wine", "http://w2/WhiteWine"),
	}
}

func TestUnionMatchesProducesUnion(t *testing.T) {
	rw := New(unionEAs(), nil)
	rw.Opts.MatchMode = UnionMatches
	q := sparql.MustParse(`SELECT ?x WHERE { ?x a <http://w1/Wine> . ?x <http://w1/name> ?n }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var union *sparql.Union
	var bgp *sparql.BGP
	for _, el := range out.Where.Elements {
		switch e := el.(type) {
		case *sparql.Union:
			union = e
		case *sparql.BGP:
			bgp = e
		}
	}
	if union == nil || len(union.Alternatives) != 2 {
		t.Fatalf("union missing or wrong arity: %#v", out.Where.Elements)
	}
	if bgp == nil || len(bgp.Patterns) != 1 || bgp.Patterns[0].P.Value != "http://w1/name" {
		t.Fatalf("unmatched triple lost: %#v", bgp)
	}
	if report.MatchedTriples != 1 || report.CopiedTriples != 1 {
		t.Fatalf("report = %+v", report)
	}
	// Output re-parses.
	if _, err := sparql.Parse(sparql.Format(out)); err != nil {
		t.Fatalf("reparse: %v\n%s", err, sparql.Format(out))
	}
}

// TestUnionMatchesInsideGroups: a multiply matched triple becomes a UNION
// wherever it stands, in a UNION branch or an OPTIONAL too, and the input
// query keeps its own elements.
func TestUnionMatchesInsideGroups(t *testing.T) {
	rw := New(unionEAs(), nil)
	rw.Opts.MatchMode = UnionMatches
	q := sparql.MustParse(`SELECT ?x WHERE {
  { ?x a <http://w1/Wine> } UNION { ?x <http://w1/name> ?n }
  OPTIONAL { ?y a <http://w1/Wine> }
}`)
	before := sparql.Format(q)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	unions := 0
	sparql.Walk(out.Where, func(el sparql.GroupElement) {
		if _, ok := el.(*sparql.Union); ok {
			unions++
		}
	})
	if unions != 3 || report.MatchedTriples != 2 {
		t.Fatalf("unions = %d, matched = %d, want 3 and 2:\n%s", unions, report.MatchedTriples, sparql.Format(out))
	}
	if sparql.Format(q) != before {
		t.Fatal("RewriteQuery mutated its input")
	}
}

// TestUnionMatchesSemantics: data rendered under either target concept is
// found by the union-rewritten query — the completeness that first-match
// rewriting loses.
func TestUnionMatchesSemantics(t *testing.T) {
	g, _, err := turtle.Parse(`
@prefix w2: <http://w2/> .
<http://d/a> a w2:RedWine .
<http://d/b> a w2:WhiteWine .
<http://d/c> a w2:Beer .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	q := sparql.MustParse(`SELECT ?x WHERE { ?x a <http://w1/Wine> }`)

	// First-match: only RedWine found.
	first := New(unionEAs(), nil)
	fOut, _, err := first.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	fRes, err := eval.New(st).Select(fOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(fRes.Solutions) != 1 {
		t.Fatalf("first-match found %d, want 1", len(fRes.Solutions))
	}

	// UnionMatches: both wines found, beer excluded.
	u := New(unionEAs(), nil)
	u.Opts.MatchMode = UnionMatches
	uOut, _, err := u.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	uRes, err := eval.New(st).Select(uOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(uRes.Solutions) != 2 {
		t.Fatalf("union-matches found %d, want 2: %v\n%s",
			len(uRes.Solutions), uRes.Solutions, sparql.Format(uOut))
	}
	found := map[string]bool{}
	for _, s := range uRes.Solutions {
		found[s["x"].Value] = true
	}
	if !found["http://d/a"] || !found["http://d/b"] || found["http://d/c"] {
		t.Fatalf("wrong entities: %v", found)
	}
}

func TestUnionMatchesSingleMatchStaysBGP(t *testing.T) {
	// With exactly one matching alignment, no UNION is introduced.
	rw := New([]*align.EntityAlignment{
		align.PropertyAlignment("http://al/p", "http://src/p", "http://tgt/p"),
	}, nil)
	rw.Opts.MatchMode = UnionMatches
	q := sparql.MustParse(`SELECT ?o WHERE { ?s <http://src/p> ?o }`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Where.Elements) != 1 {
		t.Fatalf("elements = %#v", out.Where.Elements)
	}
	if _, ok := out.Where.Elements[0].(*sparql.BGP); !ok {
		t.Fatalf("expected plain BGP, got %T", out.Where.Elements[0])
	}
}

func TestUnionMatchesWithFDs(t *testing.T) {
	// The union branches run FDs independently (sameas translation per
	// branch).
	rw := New([]*align.EntityAlignment{
		creatorInfoEA(),
		align.PropertyAlignment("http://al/direct", rdf.AKTHasAuthor, "http://alt/author"),
	}, paperRewriter().Funcs)
	rw.Opts.MatchMode = UnionMatches
	q := sparql.MustParse(figure1)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	unions := 0
	sparql.Walk(out.Where, func(el sparql.GroupElement) {
		if _, ok := el.(*sparql.Union); ok {
			unions++
		}
	})
	if unions != 2 {
		t.Fatalf("unions = %d, want 2 (one per authored triple)", unions)
	}
}
