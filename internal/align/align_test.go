package align

import (
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

// paperEA builds the §3.2.2 running example: akt:has-author rewritten into
// the KISTI CreatorInfo chain with two sameas functional dependencies.
func paperEA() *EntityAlignment {
	kistiPattern := rdf.NewLiteral(`http://kisti\.rkbexplorer\.com/id/\S*`)
	return &EntityAlignment{
		ID:  "http://ecs.soton.ac.uk/alignments/akt2kisti#creator_info",
		LHS: rdf.Triple{S: rdf.NewVar("p1"), P: rdf.NewIRI(rdf.AKTHasAuthor), O: rdf.NewVar("a1")},
		RHS: []rdf.Triple{
			{S: rdf.NewVar("p2"), P: rdf.NewIRI(rdf.KISTIHasCreatorInfo), O: rdf.NewVar("c")},
			{S: rdf.NewVar("c"), P: rdf.NewIRI(rdf.KISTIHasCreator), O: rdf.NewVar("a2")},
		},
		FDs: []FD{
			{Var: "a2", Func: rdf.MapSameAs, Args: []rdf.Term{rdf.NewVar("a1"), kistiPattern}},
			{Var: "p2", Func: rdf.MapSameAs, Args: []rdf.Term{rdf.NewVar("p1"), kistiPattern}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := paperEA().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := paperEA()
	bad.RHS = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty RHS must fail")
	}
	bad = paperEA()
	bad.FDs[0].Var = "nonexistent"
	if err := bad.Validate(); err == nil {
		t.Fatal("FD var outside RHS must fail")
	}
	bad = paperEA()
	bad.FDs[0].Args[0] = rdf.NewVar("notinlhs")
	if err := bad.Validate(); err == nil {
		t.Fatal("FD arg outside LHS must fail")
	}
	bad = paperEA()
	bad.LHS.S = rdf.Any
	if err := bad.Validate(); err == nil {
		t.Fatal("wildcard term must fail")
	}
}

func TestLevels(t *testing.T) {
	if got := ClassAlignment("x", "http://a/C1", "http://b/C2").Level(); got != 0 {
		t.Fatalf("class alignment level = %d", got)
	}
	if got := PropertyAlignment("x", "http://a/p", "http://b/q").Level(); got != 0 {
		t.Fatalf("property alignment level = %d", got)
	}
	// Level 1: Burgundy -> Wine ∧ BurgundyRegionProduct (§3.2.2)
	x := rdf.NewVar("x")
	typ := rdf.NewIRI(rdf.RDFType)
	level1 := &EntityAlignment{
		ID:  "w",
		LHS: rdf.Triple{S: x, P: typ, O: rdf.NewIRI("http://w1/Burgundy")},
		RHS: []rdf.Triple{
			{S: x, P: typ, O: rdf.NewIRI("http://w2/Wine")},
			{S: x, P: typ, O: rdf.NewIRI("http://goods/BurgundyRegionProduct")},
		},
	}
	if got := level1.Level(); got != 1 {
		t.Fatalf("intersection alignment level = %d", got)
	}
	// Level 1 value partition: WhiteWine -> Wine with has_color "White"
	vp := &EntityAlignment{
		ID:  "vp",
		LHS: rdf.Triple{S: x, P: rdf.NewIRI("http://o1/prop"), O: rdf.NewVar("v")},
		RHS: []rdf.Triple{{S: x, P: rdf.NewIRI("http://o2/prop"), O: rdf.NewLiteral("White")}},
	}
	if got := vp.Level(); got != 1 {
		t.Fatalf("value partition level = %d", got)
	}
	if got := paperEA().Level(); got != 2 {
		t.Fatalf("FD alignment level = %d", got)
	}
}

func TestMatchTermSemantics(t *testing.T) {
	// l ∈ Vars -> bind
	b := Binding{}
	if !MatchTerm(rdf.NewVar("x"), rdf.NewIRI("http://v"), b) {
		t.Fatal("var must match")
	}
	if b["x"] != rdf.NewIRI("http://v") {
		t.Fatalf("binding = %v", b)
	}
	// rebinding consistently succeeds, inconsistently fails
	if !MatchTerm(rdf.NewVar("x"), rdf.NewIRI("http://v"), b) {
		t.Fatal("consistent rebind must succeed")
	}
	if MatchTerm(rdf.NewVar("x"), rdf.NewIRI("http://other"), b) {
		t.Fatal("inconsistent rebind must fail")
	}
	// ground equal / unequal
	if !MatchTerm(rdf.NewIRI("http://g"), rdf.NewIRI("http://g"), Binding{}) {
		t.Fatal("ground equal must match")
	}
	if MatchTerm(rdf.NewIRI("http://g"), rdf.NewIRI("http://h"), Binding{}) {
		t.Fatal("ground unequal must fail")
	}
	// LHS var matches a query VARIABLE too (the paper's worked example
	// binds ?p1 to ?paper)
	b2 := Binding{}
	if !MatchTerm(rdf.NewVar("p1"), rdf.NewVar("paper"), b2) {
		t.Fatal("var-to-var must match")
	}
	if b2["p1"] != rdf.NewVar("paper") {
		t.Fatalf("var-to-var binding = %v", b2)
	}
	// blank nodes in alignments behave as variables
	b3 := Binding{}
	if !MatchTerm(rdf.NewBlank("p1"), rdf.NewIRI("http://v"), b3) {
		t.Fatal("blank-as-var must match")
	}
}

func TestMatchPaperWorkedExample(t *testing.T) {
	// §3.3.2: Triple(?paper, akt:has-author, id:person-02686) against the
	// alignment LHS yields [?p1/?paper, ?a1/id:person-02686].
	ea := paperEA()
	person := rdf.NewIRI("http://southampton.rkbexplorer.com/id/person-02686")
	query := rdf.Triple{S: rdf.NewVar("paper"), P: rdf.NewIRI(rdf.AKTHasAuthor), O: person}
	b, ok := ea.Match(query)
	if !ok {
		t.Fatal("paper example must match")
	}
	if b["p1"] != rdf.NewVar("paper") || b["a1"] != person {
		t.Fatalf("binding = %v", b)
	}
	// Non-matching predicate
	other := rdf.Triple{S: rdf.NewVar("x"), P: rdf.NewIRI(rdf.AKTHasTitle), O: rdf.NewVar("t")}
	if _, ok := ea.Match(other); ok {
		t.Fatal("different predicate must not match")
	}
}

func TestMatchSharedVariableAcrossPositions(t *testing.T) {
	// LHS ?x p ?x requires both positions to be equal.
	ea := &EntityAlignment{
		ID:  "self",
		LHS: rdf.Triple{S: rdf.NewVar("x"), P: rdf.NewIRI("http://p"), O: rdf.NewVar("x")},
		RHS: []rdf.Triple{{S: rdf.NewVar("x"), P: rdf.NewIRI("http://q"), O: rdf.NewVar("x")}},
	}
	same := rdf.Triple{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://a")}
	if _, ok := ea.Match(same); !ok {
		t.Fatal("equal positions must match")
	}
	diff := rdf.Triple{S: rdf.NewIRI("http://a"), P: rdf.NewIRI("http://p"), O: rdf.NewIRI("http://b")}
	if _, ok := ea.Match(diff); ok {
		t.Fatal("unequal positions must not match")
	}
}

func TestFirstMatchAndAllMatches(t *testing.T) {
	eas := []*EntityAlignment{
		PropertyAlignment("a1", "http://src/p", "http://t1/p"),
		PropertyAlignment("a2", "http://src/p", "http://t2/p"),
		PropertyAlignment("a3", "http://src/q", "http://t1/q"),
	}
	query := rdf.Triple{S: rdf.NewVar("s"), P: rdf.NewIRI("http://src/p"), O: rdf.NewVar("o")}
	ea, _, ok := FirstMatch(eas, query)
	if !ok || ea.ID != "a1" {
		t.Fatalf("FirstMatch = %v %v", ea, ok)
	}
	all := AllMatches(eas, query)
	if len(all) != 2 || all[0].Alignment.ID != "a1" || all[1].Alignment.ID != "a2" {
		t.Fatalf("AllMatches = %v", all)
	}
	if _, _, ok := FirstMatch(eas, rdf.Triple{S: rdf.NewVar("s"), P: rdf.NewIRI("http://none"), O: rdf.NewVar("o")}); ok {
		t.Fatal("no-match case")
	}
}

func TestBindingString(t *testing.T) {
	b := Binding{"b": rdf.NewIRI("http://x"), "a": rdf.NewVar("v")}
	s := b.String()
	if !strings.HasPrefix(s, "[?a/") || !strings.Contains(s, "?b/<http://x>") {
		t.Fatalf("binding string = %q", s)
	}
}

func TestEntityAlignmentStringAndVars(t *testing.T) {
	ea := paperEA()
	s := ea.String()
	for _, want := range []string{"LHS:", "RHS:", "FD:", "has-author", "sameas"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	vars := ea.Vars()
	if len(vars) != 5 { // p1 a1 p2 c a2
		t.Fatalf("vars = %v", vars)
	}
}

func TestOntologyAlignmentValidate(t *testing.T) {
	oa := &OntologyAlignment{
		URI:              "http://ecs.soton.ac.uk/alignments/akt2kisti",
		SourceOntologies: []string{rdf.AKTNS},
		TargetOntologies: []string{rdf.KISTINS},
		TargetDatasets:   []string{"http://kisti.rkbexplorer.com/id/void"},
		Alignments:       []*EntityAlignment{paperEA()},
	}
	if err := oa.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&OntologyAlignment{URI: "x"}).Validate(); err == nil {
		t.Fatal("OA without SO must fail")
	}
	if err := (&OntologyAlignment{URI: "x", SourceOntologies: []string{"http://a#"}}).Validate(); err == nil {
		t.Fatal("OA without any target must fail")
	}
}
