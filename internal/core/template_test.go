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

const (
	srcNS = "http://source.example/ns#"
	tgtNS = "http://target.example/ns#"
)

func templateRewriter() *Rewriter {
	ea := align.PropertyAlignment("http://align.example/p", srcNS+"author", tgtNS+"creator")
	return New([]*align.EntityAlignment{ea}, funcs.StandardRegistry(nil))
}

// TestConstructTemplatePreservedByDefault: rewriting a CONSTRUCT
// translates the WHERE clause but leaves the template — the user's
// requested output shape — in the source vocabulary.
func TestConstructTemplatePreservedByDefault(t *testing.T) {
	rw := templateRewriter()
	q := sparql.MustParse(`PREFIX s:<` + srcNS + `>
CONSTRUCT { ?p s:author ?a } WHERE { ?p s:author ?a }`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Template[0].P.Value != srcNS+"author" {
		t.Fatalf("template rewritten: %v", out.Template)
	}
	text := sparql.Format(out)
	if !strings.Contains(text, "WHERE") || !strings.Contains(text, tgtNS+"creator") &&
		!strings.Contains(text, "creator") {
		t.Fatalf("WHERE not rewritten:\n%s", text)
	}
}

// TestTemplateVariablesSeedFreshGenerator: fresh variables introduced by
// the WHERE rewriting must never collide with names already used in the
// CONSTRUCT template.
func TestTemplateVariablesSeedFreshGenerator(t *testing.T) {
	// An alignment whose RHS introduces an extra free variable forces a
	// fresh variable during rewriting.
	ea := &align.EntityAlignment{
		ID:  "http://align.example/split",
		LHS: rdf.NewTriple(rdf.NewVar("p"), rdf.NewIRI(srcNS+"author"), rdf.NewVar("a")),
		RHS: []rdf.Triple{
			rdf.NewTriple(rdf.NewVar("p"), rdf.NewIRI(tgtNS+"creatorInfo"), rdf.NewVar("extra")),
			rdf.NewTriple(rdf.NewVar("extra"), rdf.NewIRI(tgtNS+"creator"), rdf.NewVar("a")),
		},
	}
	rw := New([]*align.EntityAlignment{ea}, funcs.StandardRegistry(nil))
	// The template already uses ?new1: the generator must skip it.
	q := sparql.MustParse(`PREFIX s:<` + srcNS + `>
CONSTRUCT { ?p s:related ?new1 . ?p s:author ?a } WHERE { ?p s:author ?a }`)
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range report.FreshVars {
		if v == "new1" {
			t.Fatalf("fresh variable collided with template variable ?new1 (fresh: %v)", report.FreshVars)
		}
	}
	_ = out
}

// TestDescribeTermsTranslated: DESCRIBE resource IRIs translate into the
// target URI space like FILTER constants.
func TestDescribeTermsTranslated(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://source.example/id/r1", "http://target.example/id/R1")
	rw := New(nil, funcs.StandardRegistry(cs))
	rw.Opts.TargetURISpace = `http://target\.example/id/\S*`
	q := sparql.MustParse(`DESCRIBE <http://source.example/id/r1>`)
	out, _, err := rw.RewriteQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.DescribeTerms[0].Value != "http://target.example/id/R1" {
		t.Fatalf("DESCRIBE term not translated: %v", out.DescribeTerms)
	}
	// The input query is untouched.
	if q.DescribeTerms[0].Value != "http://source.example/id/r1" {
		t.Fatal("input query mutated")
	}
}
