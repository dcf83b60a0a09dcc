package core

import (
	"strings"
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Paper fixtures: the Figure 1 query, the §3.2.2 creator_info alignment
// and the co-reference links used in the worked example (§3.3.2).

const figure1 = `PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author id:person-02686 .
  ?paper akt:has-author ?a .
  FILTER (!(?a = id:person-02686 ))
}`

const figure6 = `PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT DISTINCT ?a WHERE {
  ?paper akt:has-author ?n.
  ?paper akt:has-author ?a.
  FILTER (!(?a = id:person-02686 ) &&
          (?n = id:person-02686))
}`

const (
	sotonPerson = "http://southampton.rkbexplorer.com/id/person-02686"
	kistiPerson = "http://kisti.rkbexplorer.com/id/PER_00000000105047"
	kistiSpace  = `http://kisti\.rkbexplorer\.com/id/\S*`
)

func paperCoref() *coref.Store {
	s := coref.NewStore()
	s.Add(sotonPerson, kistiPerson)
	s.Add(sotonPerson, "http://dbpedia.org/resource/Nigel_Shadbolt")
	return s
}

func creatorInfoEA() *align.EntityAlignment {
	pat := rdf.NewLiteral(kistiSpace)
	return &align.EntityAlignment{
		ID:  "http://ecs.soton.ac.uk/alignments/akt2kisti#creator_info",
		LHS: rdf.Triple{S: rdf.NewVar("p1"), P: rdf.NewIRI(rdf.AKTHasAuthor), O: rdf.NewVar("a1")},
		RHS: []rdf.Triple{
			{S: rdf.NewVar("p2"), P: rdf.NewIRI(rdf.KISTIHasCreatorInfo), O: rdf.NewVar("c")},
			{S: rdf.NewVar("c"), P: rdf.NewIRI(rdf.KISTIHasCreator), O: rdf.NewVar("a2")},
		},
		FDs: []align.FD{
			{Var: "a2", Func: rdf.MapSameAs, Args: []rdf.Term{rdf.NewVar("a1"), pat}},
			{Var: "p2", Func: rdf.MapSameAs, Args: []rdf.Term{rdf.NewVar("p1"), pat}},
		},
	}
}

func paperRewriter() *Rewriter {
	return New([]*align.EntityAlignment{creatorInfoEA()}, funcs.StandardRegistry(paperCoref()))
}

// TestE3_RewrittenQueryShape reproduces the paper's worked example end to
// end: Figure 1 in, Figure 3's structure out.
func TestE3_RewrittenQueryShape(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(figure1)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	bgps := out.BGPs()
	if len(bgps) != 1 {
		t.Fatalf("BGPs = %d", len(bgps))
	}
	pats := bgps[0].Patterns
	if len(pats) != 4 {
		t.Fatalf("rewritten patterns = %d, want 4 (Figure 3):\n%v", len(pats), pats)
	}
	// Pattern 1: ?paper kisti:hasCreatorInfo ?new1
	if pats[0].S != rdf.NewVar("paper") || pats[0].P.Value != rdf.KISTIHasCreatorInfo || !pats[0].O.IsVar() {
		t.Fatalf("pattern 0 = %v", pats[0])
	}
	// Pattern 2: ?new1 kisti:hasCreator <kisti person URI>
	if pats[1].S != pats[0].O || pats[1].P.Value != rdf.KISTIHasCreator {
		t.Fatalf("pattern 1 = %v", pats[1])
	}
	if pats[1].O != rdf.NewIRI(kistiPerson) {
		t.Fatalf("person URI not translated: %v", pats[1].O)
	}
	// Pattern 3: ?paper kisti:hasCreatorInfo ?new2 with ?new2 != ?new1
	if pats[2].S != rdf.NewVar("paper") || pats[2].P.Value != rdf.KISTIHasCreatorInfo {
		t.Fatalf("pattern 2 = %v", pats[2])
	}
	if pats[2].O == pats[0].O {
		t.Fatal("fresh variables must differ between alignment applications")
	}
	// Pattern 4: ?new2 kisti:hasCreator ?a (the projected variable kept)
	if pats[3].S != pats[2].O || pats[3].O != rdf.NewVar("a") {
		t.Fatalf("pattern 3 = %v", pats[3])
	}
	// Projection and modifiers survive.
	if !out.Distinct || len(out.SelectVars) != 1 || out.SelectVars[0] != "a" {
		t.Fatal("SELECT header lost")
	}
	// Report bookkeeping.
	if report.MatchedTriples != 2 || report.CopiedTriples != 0 {
		t.Fatalf("report = %+v", report)
	}
	if len(report.FreshVars) != 2 {
		t.Fatalf("fresh vars = %v", report.FreshVars)
	}
	// Paper mode: the FILTER still mentions the southampton URI, which
	// must be flagged as a Figure-6-style conflict.
	found := false
	for _, w := range report.Warnings {
		if strings.Contains(w, "person-02686") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected FILTER warning, got %v", report.Warnings)
	}
	// The output serialises and re-parses.
	text := sparql.Format(out)
	if _, err := sparql.Parse(text); err != nil {
		t.Fatalf("rewritten query does not re-parse: %v\n%s", err, text)
	}
	if !strings.Contains(text, "kisti:hasCreatorInfo") {
		t.Fatalf("expected kisti vocabulary in output:\n%s", text)
	}
}

// TestWorkedExampleTrace checks the §3.3.2 substitution narration: the
// bindings the paper spells out appear in the trace.
func TestWorkedExampleTrace(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(figure1)
	_, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Traces) != 2 {
		t.Fatalf("traces = %d", len(report.Traces))
	}
	// First triple: ?a1 bound to the ground person URI, ?a2 to its KISTI
	// equivalent, ?p1/?p2 to the query variable ?paper.
	tr := report.Traces[0]
	if tr.Binding["a1"] != rdf.NewIRI(sotonPerson) {
		t.Fatalf("a1 = %v", tr.Binding["a1"])
	}
	if tr.Binding["a2"] != rdf.NewIRI(kistiPerson) {
		t.Fatalf("a2 = %v", tr.Binding["a2"])
	}
	if tr.Binding["p1"] != rdf.NewVar("paper") || tr.Binding["p2"] != rdf.NewVar("paper") {
		t.Fatalf("p1/p2 = %v/%v", tr.Binding["p1"], tr.Binding["p2"])
	}
	// Second triple: ?a1 bound to the query variable ?a; sameas defaults.
	tr2 := report.Traces[1]
	if tr2.Binding["a1"] != rdf.NewVar("a") || tr2.Binding["a2"] != rdf.NewVar("a") {
		t.Fatalf("second triple bindings = %v", tr2.Binding)
	}
}

func TestUnmatchedTriplesCopied(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(`
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?t WHERE { ?p akt:has-title ?t }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := out.BGPs()[0].Patterns
	if len(pats) != 1 || pats[0].P.Value != rdf.AKTHasTitle {
		t.Fatalf("copied triple changed: %v", pats)
	}
	if report.CopiedTriples != 1 || report.MatchedTriples != 0 {
		t.Fatalf("report = %+v", report)
	}
}

// TestCopiedTripleInstancesTranslated: a triple no alignment matches is
// in the target's vocabulary already, so only its instances move, into
// TargetURISpace; without one it is copied as it is.
func TestCopiedTripleInstancesTranslated(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(`PREFIX k:<` + rdf.KISTINS + `>
SELECT ?n WHERE { <` + sotonPerson + `> k:name ?n . ?x k:knows <` + sotonPerson + `> . ?x a <` + sotonPerson + `> }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if text := sparql.Format(out); strings.Contains(text, kistiPerson) {
		t.Fatalf("translated without a target URI space:\n%s", text)
	}
	rw.Opts.TargetURISpace = kistiSpace
	out, report, err = rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := out.BGPs()[0].Patterns
	if pats[0].S.Value != kistiPerson || pats[1].O.Value != kistiPerson || pats[2].O.Value != sotonPerson {
		t.Fatalf("copied triples: %v", pats)
	}
	if report.CopiedTriples != 3 || report.Traces[0].Input.S.Value != sotonPerson {
		t.Fatalf("report = %+v", report)
	}
}

func TestLevel0Alignments(t *testing.T) {
	eas := []*align.EntityAlignment{
		align.ClassAlignment("c", rdf.AKTPerson, rdf.KISTIPerson),
		align.PropertyAlignment("p", rdf.AKTHasTitle, rdf.KISTITitle),
	}
	rw := New(eas, funcs.StandardRegistry(paperCoref()))
	q := sparql.MustParse(`
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?x ?t WHERE { ?x a akt:Person ; akt:has-title ?t }`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := out.BGPs()[0].Patterns
	if pats[0].O.Value != rdf.KISTIPerson {
		t.Fatalf("class not translated: %v", pats[0])
	}
	if pats[1].P.Value != rdf.KISTITitle {
		t.Fatalf("property not translated: %v", pats[1])
	}
	// Variables are preserved untouched by level-0 alignments.
	if pats[0].S != rdf.NewVar("x") || pats[1].O != rdf.NewVar("t") {
		t.Fatalf("variables damaged: %v", pats)
	}
}

func TestFDPolicyKeepOriginal(t *testing.T) {
	// A person with no KISTI equivalent: keep the original URI.
	rw := paperRewriter() // default KeepOriginal
	q := sparql.MustParse(`
PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p WHERE { ?p akt:has-author id:person-99999 }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := out.BGPs()[0].Patterns
	if len(pats) != 2 {
		t.Fatalf("patterns = %v", pats)
	}
	if pats[1].O != rdf.NewIRI("http://southampton.rkbexplorer.com/id/person-99999") {
		t.Fatalf("original URI not kept: %v", pats[1])
	}
	if len(report.Warnings) == 0 {
		t.Fatal("expected warning about failed FD")
	}
}

func TestFDPolicySkipAlignment(t *testing.T) {
	rw := paperRewriter()
	rw.Opts.Policy = SkipAlignment
	q := sparql.MustParse(`
PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p WHERE { ?p akt:has-author id:person-99999 }`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pats := out.BGPs()[0].Patterns
	if len(pats) != 1 || pats[0].P.Value != rdf.AKTHasAuthor {
		t.Fatalf("skip should copy verbatim: %v", pats)
	}
}

func TestFDPolicyFail(t *testing.T) {
	rw := paperRewriter()
	rw.Opts.Policy = Fail
	q := sparql.MustParse(`
PREFIX id:<http://southampton.rkbexplorer.com/id/>
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p WHERE { ?p akt:has-author id:person-99999 }`)
	if _, _, err := rw.RewriteQuery(q); err == nil {
		t.Fatal("Fail policy must abort")
	}
}

func TestAllMatchesMode(t *testing.T) {
	eas := []*align.EntityAlignment{
		align.PropertyAlignment("a1", rdf.AKTHasTitle, rdf.KISTITitle),
		align.PropertyAlignment("a2", rdf.AKTHasTitle, "http://purl.org/dc/terms/title"),
	}
	rw := New(eas, nil)
	rw.Opts.MatchMode = AllMatches
	out, _, err := rw.RewriteBGP([]rdf.Triple{
		{S: rdf.NewVar("p"), P: rdf.NewIRI(rdf.AKTHasTitle), O: rdf.NewVar("t")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("all-matches output = %v", out)
	}
}

func TestRewritePreservesOptionalUnionStructure(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(`
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?p ?a WHERE {
  ?p akt:has-author ?a .
  OPTIONAL { ?p akt:has-author ?b }
  { ?p akt:has-title ?t } UNION { ?p akt:has-date ?d }
}`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var haveOpt, haveUnion bool
	sparql.Walk(out.Where, func(el sparql.GroupElement) {
		switch e := el.(type) {
		case *sparql.Optional:
			haveOpt = true
			if len(e.Group.Elements) == 0 {
				t.Error("optional emptied")
			}
			if b, ok := e.Group.Elements[0].(*sparql.BGP); ok && len(b.Patterns) != 2 {
				t.Errorf("optional BGP not rewritten: %v", b.Patterns)
			}
		case *sparql.Union:
			haveUnion = true
		}
	})
	if !haveOpt || !haveUnion {
		t.Fatal("structure lost")
	}
}

// TestE8_Figure6 reproduces the paper's §4 limitation and our extension:
// in paper mode the FILTER constant stays in the source URI space (query
// silently loses results); with RewriteFilters the constant is translated.
func TestE8_Figure6(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(figure6)

	// Paper mode: BGP rewritten, FILTER untouched, warning raised.
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	text := sparql.Format(out)
	if !strings.Contains(text, "person-02686") {
		t.Fatalf("paper mode must leave the FILTER constant:\n%s", text)
	}
	if len(report.Warnings) == 0 {
		t.Fatal("paper mode must warn about the FILTER constraint")
	}

	// Extended mode: the constant is translated into the KISTI URI space.
	rw.Opts.RewriteFilters = true
	rw.Opts.TargetURISpace = kistiSpace
	out2, report2, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	text2 := sparql.Format(out2)
	if strings.Contains(text2, "southampton.rkbexplorer.com/id/person-02686") {
		t.Fatalf("extended mode must translate the FILTER constant:\n%s", text2)
	}
	if !strings.Contains(text2, "PER_00000000105047") {
		t.Fatalf("expected KISTI URI in FILTER:\n%s", text2)
	}
	if report2.FilterRewrites != 2 {
		t.Fatalf("filter rewrites = %d", report2.FilterRewrites)
	}
}

func TestFilterVocabularyTranslation(t *testing.T) {
	eas := []*align.EntityAlignment{
		align.PropertyAlignment("p", rdf.AKTHasTitle, rdf.KISTITitle),
		align.ClassAlignment("c", rdf.AKTPerson, rdf.KISTIPerson),
		creatorInfoEA(),
	}
	rw := New(eas, funcs.StandardRegistry(paperCoref()))
	rw.Opts.RewriteFilters = true
	rw.Opts.TargetURISpace = kistiSpace
	q := sparql.MustParse(`
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?x WHERE { ?x ?p ?o . FILTER (?p = akt:has-title || ?o = akt:Person) }`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	text := sparql.Format(out)
	if !strings.Contains(text, "kisti:title") || !strings.Contains(text, "kisti:Person") {
		t.Fatalf("vocabulary IRIs not translated in FILTER:\n%s", text)
	}
}

func TestRewriteFiltersRequiresURISpace(t *testing.T) {
	rw := paperRewriter()
	rw.Opts.RewriteFilters = true // no TargetURISpace
	if _, _, err := rw.RewriteQuery(sparql.MustParse(figure6)); err == nil {
		t.Fatal("missing TargetURISpace must error")
	}
}

func TestFreshVarsAvoidQueryVars(t *testing.T) {
	rw := paperRewriter()
	// Query already uses ?new1: generator must skip it.
	q := sparql.MustParse(`
PREFIX akt:<http://www.aktors.org/ontology/portal#>
SELECT ?new1 WHERE { ?new1 akt:has-author ?a }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range report.FreshVars {
		if f == "new1" {
			t.Fatal("fresh var collided with query var")
		}
	}
	// ?new1 still appears as the paper subject
	pats := out.BGPs()[0].Patterns
	if pats[0].S != rdf.NewVar("new1") {
		t.Fatalf("query var renamed: %v", pats)
	}
}

func TestIdempotentOnTargetVocabulary(t *testing.T) {
	// Rewriting a query that is already in the target vocabulary is the
	// identity (no alignment LHS matches kisti patterns).
	rw := paperRewriter()
	src := `PREFIX kisti:<http://www.kisti.re.kr/isrl/ResearchRefOntology#>
SELECT ?a WHERE { ?p kisti:hasCreatorInfo ?c . ?c kisti:hasCreator ?a }`
	q := sparql.MustParse(src)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if report.MatchedTriples != 0 || report.CopiedTriples != 2 {
		t.Fatalf("report = %+v", report)
	}
	if len(out.BGPs()[0].Patterns) != 2 {
		t.Fatal("identity rewrite changed the BGP")
	}
}

func TestMissingRegistryErrors(t *testing.T) {
	rw := New([]*align.EntityAlignment{creatorInfoEA()}, nil)
	q := sparql.MustParse(figure1)
	if _, _, err := rw.RewriteQuery(q); err == nil {
		t.Fatal("FD without registry must error")
	}
}

func TestInputQueryUnmodified(t *testing.T) {
	rw := paperRewriter()
	q := sparql.MustParse(figure1)
	before := sparql.Format(q)
	if _, _, err := rw.RewriteQuery(q); err != nil {
		t.Fatal(err)
	}
	if sparql.Format(q) != before {
		t.Fatal("RewriteQuery mutated its input")
	}
}

func BenchmarkRewriteFigure1(b *testing.B) {
	rw := paperRewriter()
	q := sparql.MustParse(figure1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rw.RewriteQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}
