package core

import (
	"fmt"
	"strings"
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/workload"
)

// kistiRewriter returns the mediator's rewriter from AKT into KISTI: the
// AKT→KISTI alignments, sameas over the universe's co-reference links,
// KISTI's URI space.
func kistiRewriter(u *workload.Universe, policy FDPolicy, filters bool) *Rewriter {
	rw := New(workload.AKT2KISTI().Alignments, funcs.StandardRegistry(u.Coref))
	rw.Opts.Policy = policy
	rw.Opts.RewriteFilters = filters
	rw.Opts.TargetURISpace = workload.KistiURIPattern
	return rw
}

// bindShape rewrites shape into a template and binds it to slots, giving
// the text a plan-cache hit sends; ok is false when the template cannot
// bind them and the query is rewritten itself.
func bindShape(rw *Rewriter, shape *sparql.Query, slots []rdf.Term) (text string, ok bool, err error) {
	tmpl, err := rw.RewriteShape(shape, len(slots))
	if err != nil {
		return "", false, err
	}
	values, ok := tmpl.Bind(slots)
	if !ok {
		return "", false, nil
	}
	return sparql.FormatTemplate(tmpl.Query).Execute(values), true, nil
}

// templateSeeds are the shapes the benchmark's workloads and the oracle
// differential ask, and the constructs whose instance terms are lifted:
// FILTER constants, VALUES cells, DESCRIBE resources, IRIs KISTI has no
// alias for, and spellings of the slot token.
func templateSeeds() []string {
	akt := "PREFIX akt:<" + rdf.AKTNS + ">\n"
	unknown := "<http://southampton.rkbexplorer.com/id/person-99999>"
	seeds := []string{
		workload.Figure1Query(2), workload.Figure1Query(7), workload.Figure1Query(99999),
		workload.CrossVocabularyQuery(2),
		akt + "SELECT ?paper ?a ?t WHERE { ?paper akt:has-author ?a . ?paper akt:has-title ?t }",
		"PREFIX m:<" + workload.MetricsNS + ">\nSELECT ?paper ?c WHERE { ?paper m:citationCount ?c }",
		strings.Replace(workload.CrossVocabularyQuery(7), "}", "FILTER (?c > 40) }", 1) + " ORDER BY DESC(?c) ?paper ?a LIMIT 3 OFFSET 2",
		akt + "SELECT ?a WHERE { <" + workload.SotonPaper(1).Value + "> akt:has-author ?a . ?a akt:full-name ?n }",
		akt + "SELECT ?p WHERE { ?p akt:has-author " + unknown + " . FILTER (?p != <http://example.org/p>) }",
		akt + "SELECT ?paper ?a WHERE { VALUES ?paper { <" + workload.SotonPaper(0).Value + "> <" +
			workload.SotonPaper(3).Value + "> <http://example.org/nowhere> } ?paper akt:has-author ?a }",
		akt + "SELECT ?a WHERE { VALUES (?p ?n) { (<" + workload.SotonPaper(2).Value + "> \"x\") (" + unknown + " UNDEF) } ?p akt:has-author ?a }",
		"DESCRIBE <" + workload.SotonPerson(2).Value + "> " + unknown,
		akt + "DESCRIBE ?paper WHERE { ?paper akt:has-author <" + workload.SotonPerson(3).Value + "> }",
		akt + "CONSTRUCT { ?p akt:has-author <" + workload.SotonPerson(4).Value + "> } WHERE { ?p akt:has-author <" + workload.SotonPerson(4).Value + "> }",
		akt + "ASK { <" + workload.SotonPaper(5).Value + "> akt:has-author ?a . ?a a akt:Person }",
		akt + "SELECT * WHERE { ?s akt:has-author ?o OPTIONAL { ?o akt:has-affiliation <http://example.org/org> } " +
			"{ ?s akt:has-title ?t } UNION { <" + workload.SotonPerson(5).Value + "> akt:has-web-address ?t } }",
		// The slot token spelled as a variable does not parse; as an IRI it
		// is an IRI like any other.
		akt + "SELECT ?a WHERE { ?$0 akt:has-author ?a }",
		akt + "SELECT ?a WHERE { <?$0> akt:has-author ?a . ?a <?$1> ?x }",
	}
	return seeds
}

// FuzzTemplateBind holds the plan cache's bind to the rewrite itself: for
// every parsed query, under each FD policy and with FILTER translation off
// and on, the template of its shape bound to its own IRIs formats exactly
// as the direct rewrite does, and so does the template of a seed of the
// same shape key, which is what a cache hit serves. A query with nothing
// lifted shares no seed's key that had something lifted.
func FuzzTemplateBind(f *testing.F) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 20, 60
	u := workload.Generate(cfg)
	type seed struct {
		shape *sparql.Query
		slots int
	}
	byKey := map[string]seed{}
	for _, src := range templateSeeds() {
		f.Add(src)
		q, err := sparql.Parse(src)
		if err != nil {
			continue
		}
		tmpl, slots := sparql.Lift(q)
		if _, dup := byKey[tmpl.Key()]; !dup {
			byKey[tmpl.Key()] = seed{sparql.LiftQuery(q), len(slots)}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		text := sparql.Format(q)
		tmpl, slots := sparql.Lift(q)
		if got := tmpl.Execute(slots); got != text {
			t.Fatalf("the shape filled with its own IRIs formats as\n%s\nnot as the query\n%s", got, text)
		}
		shape := sparql.LiftQuery(q)
		if sparql.Format(q) != text {
			t.Fatal("LiftQuery modified the query")
		}
		if again, _ := sparql.Lift(shape); again.Key() != tmpl.Key() {
			t.Fatalf("the shape LiftQuery makes keys as\n%s\nnot as Lift's\n%s", again.Key(), tmpl.Key())
		}
		other, shared := byKey[tmpl.Key()]
		if shared && len(slots) == 0 && other.slots > 0 {
			t.Fatalf("a query with nothing lifted shares the key of a lifted seed:\n%s", tmpl.Key())
		}
		for _, policy := range []FDPolicy{KeepOriginal, SkipAlignment, Fail} {
			for _, filters := range []bool{false, true} {
				rw := kistiRewriter(u, policy, filters)
				name := fmt.Sprintf("policy %d, FILTER rewriting %v", policy, filters)
				want, _, wantErr := rw.RewriteQuery(q)
				shapes := []*sparql.Query{shape}
				if shared {
					shapes = append(shapes, other.shape)
				}
				for _, sh := range shapes {
					got, ok, err := bindShape(rw, sh, slots)
					switch {
					case err != nil && wantErr == nil:
						t.Fatalf("%s: the shape fails to rewrite (%v), the query does not\n%s", name, err, text)
					case ok && wantErr != nil:
						t.Fatalf("%s: the template binds, the query fails to rewrite (%v)\n%s", name, wantErr, text)
					case ok && got != sparql.Format(want):
						t.Fatalf("%s: the bound template gives\n%s\nthe rewrite\n%s", name, got, sparql.Format(want))
					case !ok && err == nil && wantErr == nil && policy == KeepOriginal:
						t.Fatalf("%s: under KeepOriginal the template of\n%s\ndid not bind", name, text)
					}
				}
			}
		}
	})
}

// TestTemplateDefersInstanceSteps pins what the Figure-1 query's KISTI
// template leaves to Bind: the sameas of the person it asks about, once
// for its triple and once for its FILTER constant — and that the bound
// text carries the person's KISTI alias.
func TestTemplateDefersInstanceSteps(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 20, 60
	u := workload.Generate(cfg)
	rw := kistiRewriter(u, KeepOriginal, true)
	q := sparql.MustParse(workload.Figure1Query(2))
	_, slots := sparql.Lift(q)
	tmpl, err := rw.RewriteShape(sparql.LiftQuery(q), len(slots))
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 || len(tmpl.ops) != 2 {
		t.Fatalf("%d slots, %d deferred operations; want the person's one slot and two sameas calls", len(slots), len(tmpl.ops))
	}
	values, ok := tmpl.Bind(slots)
	if !ok {
		t.Fatal("the template does not bind")
	}
	text := sparql.FormatTemplate(tmpl.Query).Execute(values)
	alias := u.Coref.Equivalents(workload.SotonPerson(2).Value)
	if !strings.Contains(text, "kid:PER_00000000002") || len(alias) < 2 {
		t.Fatalf("bound text lacks the person's KISTI alias (%v):\n%s", alias, text)
	}
}

// TestTemplateWithGroundLHSRewritesQueries: an alignment whose LHS names
// an instance compares it with the slot of a lifted position, so its
// templates do not bind and every query is rewritten itself.
func TestTemplateWithGroundLHSRewritesQueries(t *testing.T) {
	me := "http://example.org/me"
	ea := &align.EntityAlignment{ID: "http://align.example/me",
		LHS: rdf.Triple{S: rdf.NewIRI(me), P: rdf.NewIRI(srcNS + "knows"), O: rdf.NewVar("x")},
		RHS: []rdf.Triple{{S: rdf.NewIRI(me), P: rdf.NewIRI(tgtNS + "knows"), O: rdf.NewVar("x")}}}
	rw := New([]*align.EntityAlignment{ea}, nil)
	q := sparql.MustParse("SELECT ?x WHERE { <" + me + "> <" + srcNS + "knows> ?x }")
	_, slots := sparql.Lift(q)
	tmpl, err := rw.RewriteShape(sparql.LiftQuery(q), len(slots))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tmpl.Bind(slots); ok || tmpl.Query != nil {
		t.Fatal("a template over an LHS with a ground subject binds")
	}
}
