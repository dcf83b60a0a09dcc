package reason

import (
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/workload"
)

func TestMaterialiseKISTIIntoAKTView(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 30, 60
	u := workload.Generate(cfg)
	oa := workload.AKT2KISTI()

	m := New(oa.Alignments, u.Coref, Options{SourceURISpace: workload.SotonURIPattern})
	out := store.New()
	res, err := m.Materialise(u.KISTI, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived == 0 {
		t.Fatal("nothing derived")
	}
	if res.Derived != out.Size() {
		t.Fatalf("derived %d but store has %d", res.Derived, out.Size())
	}

	// The derived view answers the ORIGINAL (unrewritten) AKT query with
	// exactly KISTI's knowledge: same results the rewriting approach gets
	// by rewriting the query instead.
	e := eval.New(out)
	resq, err := e.Select(sparql.MustParse(workload.Figure1Query(0)))
	if err != nil {
		t.Fatal(err)
	}
	want := u.CoAuthorsIn(0, "kisti")
	if len(resq.Solutions) != len(want) {
		t.Fatalf("materialised view found %d co-authors, ground truth %d", len(resq.Solutions), len(want))
	}
	// Results carry Southampton URIs (inverse sameas applied).
	for _, s := range resq.Solutions {
		v := s["a"].Value
		if len(v) < len(workload.SotonIDSpace) || v[:len(workload.SotonIDSpace)] != workload.SotonIDSpace {
			t.Fatalf("result not translated to source URI space: %s", v)
		}
	}
}

func TestMaterialiseKeepsTargetURIWithoutCoref(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 10, 20
	u := workload.Generate(cfg)
	oa := workload.AKT2KISTI()
	// No source URI space: derived triples keep KISTI URIs.
	m := New(oa.Alignments, u.Coref, Options{})
	out := store.New()
	res, err := m.Materialise(u.KISTI, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived == 0 {
		t.Fatal("nothing derived")
	}
	n := 0
	for _, tr := range out.MatchAll(rdf.Triple{P: rdf.NewIRI(rdf.AKTHasAuthor)}) {
		if tr.O.IsIRI() && len(tr.O.Value) > len(workload.KistiIDSpace) &&
			tr.O.Value[:len(workload.KistiIDSpace)] == workload.KistiIDSpace {
			n++
		}
	}
	if n == 0 {
		t.Fatal("expected KISTI URIs in untranslated view")
	}
}

func TestFixpointChaining(t *testing.T) {
	// Rule chain: data in vocab C derives B (rule body=c), then A (rule
	// body=b) — requires two fixpoint rounds when the output feeds back
	// into the same store.
	st := store.New()
	st.Add(rdf.NewTriple(rdf.NewIRI("http://x/1"), rdf.NewIRI("http://v/c"), rdf.NewLiteral("v")))
	// EA semantics: head=LHS, body=RHS, so LHS "a" with RHS "b" fires on
	// data containing predicate b.
	rules := []*align.EntityAlignment{
		align.PropertyAlignment("http://r/b2a", "http://v/a", "http://v/b"),
		align.PropertyAlignment("http://r/c2b", "http://v/b", "http://v/c"),
	}
	mat := New(rules, nil, Options{})
	res, err := mat.Materialise(st, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Derived != 2 {
		t.Fatalf("derived = %d, want 2 (chain)", res.Derived)
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, expected fixpoint rounds", res.Iterations)
	}
	if !st.Has(rdf.NewTriple(rdf.NewIRI("http://x/1"), rdf.NewIRI("http://v/a"), rdf.NewLiteral("v"))) {
		t.Fatal("chained derivation missing")
	}
}

func TestBadSourcePatternErrors(t *testing.T) {
	m := New(nil, nil, Options{SourceURISpace: "(unclosed"})
	if _, err := m.Materialise(store.New(), store.New()); err == nil {
		t.Fatal("bad source pattern must error")
	}
}
