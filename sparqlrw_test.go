package sparqlrw

import (
	"strings"
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/turtle"
)

// TestFacadeQuickstart exercises the public API exactly as README's
// quickstart describes it: define an alignment, rewrite Figure 1, run the
// result against a KISTI-shaped store.
func TestFacadeQuickstart(t *testing.T) {
	cs := NewCorefStore()
	cs.Add("http://southampton.rkbexplorer.com/id/person-02686",
		"http://kisti.rkbexplorer.com/id/PER_00000000105047")

	kisti := "http://www.kisti.re.kr/isrl/ResearchRefOntology#"
	akt := "http://www.aktors.org/ontology/portal#"
	ea := &EntityAlignment{
		ID:  "http://ecs.soton.ac.uk/alignments/akt2kisti#creator_info",
		LHS: NewTriple(NewVar("p1"), NewIRI(akt+"has-author"), NewVar("a1")),
		RHS: []Triple{
			NewTriple(NewVar("p2"), NewIRI(kisti+"hasCreatorInfo"), NewVar("c")),
			NewTriple(NewVar("c"), NewIRI(kisti+"hasCreator"), NewVar("a2")),
		},
		FDs: []FD{
			{Var: "a2", Func: "http://ecs.soton.ac.uk/om.owl#sameas",
				Args: []Term{NewVar("a1"), NewLiteral(`http://kisti\.rkbexplorer\.com/id/\S*`)}},
			{Var: "p2", Func: "http://ecs.soton.ac.uk/om.owl#sameas",
				Args: []Term{NewVar("p1"), NewLiteral(`http://kisti\.rkbexplorer\.com/id/\S*`)}},
		},
	}
	if err := ea.Validate(); err != nil {
		t.Fatal(err)
	}

	rw := NewRewriter([]*EntityAlignment{ea}, NewFunctionRegistry(cs))
	q, err := ParseQuery(`PREFIX akt:<` + akt + `>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author <http://southampton.rkbexplorer.com/id/person-02686> .
  ?paper akt:has-author ?a .
}`)
	if err != nil {
		t.Fatal(err)
	}
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatQuery(out)
	if !strings.Contains(text, "kisti:hasCreatorInfo") {
		t.Fatalf("rewritten:\n%s", text)
	}
	if report.MatchedTriples != 2 {
		t.Fatalf("report = %+v", report)
	}

	// Run against a KISTI-shaped store.
	g, _, err := ParseTurtle(`
@prefix kisti: <` + kisti + `> .
@prefix kid: <http://kisti.rkbexplorer.com/id/> .
kid:ART_1 kisti:hasCreatorInfo kid:ART_1_c0 , kid:ART_1_c1 .
kid:ART_1_c0 kisti:hasCreator kid:PER_00000000105047 .
kid:ART_1_c1 kisti:hasCreator kid:PER_00000000200000 .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	st.AddGraph(g)
	res, err := NewEngine(st).Select(out)
	if err != nil {
		t.Fatal(err)
	}
	// co-authors of the person: themselves + one other (no FILTER here)
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestFacadeRoundTripHelpers(t *testing.T) {
	g, pm, err := ParseTurtle(`@prefix ex: <http://example.org/> . ex:s ex:p "v" .`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(turtle.Format(g, pm), "ex:s") {
		t.Fatal("turtle format")
	}
	nt := ntriples.Format(g)
	g2, err := ntriples.Parse(strings.NewReader(nt))
	if err != nil || len(g2) != 1 {
		t.Fatalf("ntriples round trip: %v %v", g2, err)
	}
	ca := align.ClassAlignment("http://a/x", "http://a/C", "http://b/D")
	pa := align.PropertyAlignment("http://a/y", "http://a/p", "http://b/q")
	ttl := align.FormatTurtle([]*align.OntologyAlignment{{
		URI:              "http://a/oa",
		SourceOntologies: []string{"http://a/"},
		TargetOntologies: []string{"http://b/"},
		Alignments:       []*EntityAlignment{ca, pa},
	}})
	oas, _, err := align.ParseTurtle(ttl)
	if err != nil || len(oas) != 1 || len(oas[0].Alignments) != 2 {
		t.Fatalf("alignment round trip: %v %v", oas, err)
	}
}

func TestFacadeRewriteAndConstruct(t *testing.T) {
	pa := align.PropertyAlignment("http://a/p", "http://src/p", "http://mid/p")
	reg := NewFunctionRegistry(NewCorefStore())
	q, _ := ParseQuery(`SELECT ?o WHERE { ?s <http://src/p> ?o }`)
	out, report, err := NewRewriter([]*EntityAlignment{pa}, reg).RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if report.MatchedTriples != 1 || !strings.Contains(FormatQuery(out), "http://mid/p") {
		t.Fatalf("rewrite output (%d matched):\n%s", report.MatchedTriples, FormatQuery(out))
	}

	cq, err := core.ConstructQuery(pa, false)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Form.String() != "CONSTRUCT" {
		t.Fatal("not a construct query")
	}
	st := NewStore()
	g, _, _ := ParseTurtle(`<http://x/1> <http://mid/p> "v" .`)
	st.AddGraph(g)
	translated, skipped, err := core.TranslateData(st, []*EntityAlignment{pa}, false)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("translate: %v %v", err, skipped)
	}
	if len(translated) != 1 || translated[0].P.Value != "http://src/p" {
		t.Fatalf("translated = %v", translated)
	}
}

func TestFacadeKBs(t *testing.T) {
	akb := NewAlignmentKB()
	if err := akb.Add(&align.OntologyAlignment{
		URI:              "http://a/oa",
		SourceOntologies: []string{"http://a/"},
		TargetOntologies: []string{"http://b/"},
		Alignments:       []*EntityAlignment{align.PropertyAlignment("http://a/p", "http://a/p", "http://b/q")},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(akb.Select(align.Selector{SourceOntology: "http://a/", TargetOntology: "http://b/"})); got != 1 {
		t.Fatalf("select = %d", got)
	}
	dkb := NewDatasetKB()
	if err := dkb.Add(&Dataset{URI: "http://d/void", SPARQLEndpoint: "http://d/sparql"}); err != nil {
		t.Fatal(err)
	}
	m := NewMediator(dkb, akb, NewCorefStore())
	if len(m.DatasetInfos()) != 1 {
		t.Fatal("mediator datasets")
	}
}

// TestFacadeStreaming exercises the streaming surface: lazy evaluation
// through Engine.SelectRows and the streaming results-JSON encoder, read
// back by the decoder.
func TestFacadeStreaming(t *testing.T) {
	st := NewStore()
	st.Add(NewTriple(NewIRI("http://x/p1"), NewIRI("http://x/author"), NewIRI("http://x/alice")))
	st.Add(NewTriple(NewIRI("http://x/p1"), NewIRI("http://x/author"), NewIRI("http://x/bob")))
	q, err := ParseQuery(`SELECT ?a WHERE { <http://x/p1> <http://x/author> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewEngine(st).SelectRows(q)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	enc, err := srjson.NewStreamEncoder(&sb, sr.Vars)
	if err != nil {
		t.Fatal(err)
	}
	for row := range sr.Seq {
		if err := enc.EncodeRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	res, _, err := srjson.Decode([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if sols := res.Solutions; len(sols) != 2 || !sols[0].Bound("a") || !sols[1].Bound("a") {
		t.Fatalf("round-tripped solutions = %v", sols)
	}
}
