package align

import (
	"reflect"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

func paperOA() *OntologyAlignment {
	return &OntologyAlignment{
		URI:              "http://ecs.soton.ac.uk/alignments/akt2kisti",
		SourceOntologies: []string{rdf.AKTNS},
		TargetOntologies: []string{rdf.KISTINS},
		TargetDatasets:   []string{"http://kisti.rkbexplorer.com/id/void"},
		Alignments: []*EntityAlignment{
			paperEA(),
			ClassAlignment("http://ecs.soton.ac.uk/alignments/akt2kisti#person",
				rdf.AKTPerson, rdf.KISTIPerson),
			PropertyAlignment("http://ecs.soton.ac.uk/alignments/akt2kisti#title",
				rdf.AKTHasTitle, rdf.KISTITitle),
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	oa := paperOA()
	var g rdf.Graph
	EncodeOntologyAlignment(&g, oa)
	oas, free, err := DecodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 0 {
		t.Fatalf("free alignments = %d", len(free))
	}
	if len(oas) != 1 {
		t.Fatalf("oas = %d", len(oas))
	}
	got := oas[0]
	if got.URI != oa.URI ||
		!reflect.DeepEqual(got.SourceOntologies, oa.SourceOntologies) ||
		!reflect.DeepEqual(got.TargetOntologies, oa.TargetOntologies) ||
		!reflect.DeepEqual(got.TargetDatasets, oa.TargetDatasets) {
		t.Fatalf("OA header mismatch: %+v", got)
	}
	if len(got.Alignments) != 3 {
		t.Fatalf("alignments = %d", len(got.Alignments))
	}
	// decode order is by ID; find the paper EA
	var dec *EntityAlignment
	for _, ea := range got.Alignments {
		if strings.HasSuffix(ea.ID, "creator_info") {
			dec = ea
		}
	}
	if dec == nil {
		t.Fatal("creator_info alignment lost")
	}
	want := paperEA()
	if dec.LHS != want.LHS {
		t.Fatalf("LHS = %v, want %v", dec.LHS, want.LHS)
	}
	if !reflect.DeepEqual(dec.RHS, want.RHS) {
		t.Fatalf("RHS = %v, want %v", dec.RHS, want.RHS)
	}
	if !reflect.DeepEqual(dec.FDs, want.FDs) {
		t.Fatalf("FDs = %v, want %v", dec.FDs, want.FDs)
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	oa := paperOA()
	ttl := FormatTurtle([]*OntologyAlignment{oa})
	// spot-check the paper's concrete syntax elements
	for _, want := range []string{"map:EntityAlignment", "map:lhs", "map:rhs",
		"map:hasFunctionalDependency", "rdf:subject", "rdf:predicate", "rdf:object"} {
		if !strings.Contains(ttl, want) {
			t.Fatalf("turtle missing %q:\n%s", want, ttl)
		}
	}
	oas, _, err := ParseTurtle(ttl)
	if err != nil {
		t.Fatalf("%v\n%s", err, ttl)
	}
	if len(oas) != 1 || len(oas[0].Alignments) != 3 {
		t.Fatalf("round trip lost alignments: %+v", oas)
	}
	// FDs must survive with their regex argument intact
	for _, ea := range oas[0].Alignments {
		if strings.HasSuffix(ea.ID, "creator_info") {
			if len(ea.FDs) != 2 {
				t.Fatalf("FDs = %v", ea.FDs)
			}
			if ea.FDs[0].Args[1].Value != `http://kisti\.rkbexplorer\.com/id/\S*` {
				t.Fatalf("regex arg = %q", ea.FDs[0].Args[1].Value)
			}
		}
	}
}

func TestParsePaperVerbatimListing(t *testing.T) {
	// The Turtle from §3.2.2 of the paper (prefixes completed, since the
	// paper elides them with "...").
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
    map:index 0 ;
    rdf:subject _:p2 ;
    rdf:predicate kisti:hasCreatorInfo ;
    rdf:object _:c
  ] ;
  map:rhs [
    rdf:type rdf:Statement ;
    map:index 1 ;
    rdf:subject _:c ;
    rdf:predicate kisti:hasCreator ;
    rdf:object _:a2
  ] ;
  map:hasFunctionalDependency [
    rdf:type rdf:Statement ;
    rdf:subject _:a2 ;
    rdf:predicate map:sameas ;
    rdf:object ( _:a1 "http://kisti\\.rkbexplorer\\.com/id/\\S*" )
  ] ;
  map:hasFunctionalDependency [
    rdf:type rdf:Statement ;
    rdf:subject _:p2 ;
    rdf:predicate map:sameas ;
    rdf:object ( _:p1 "http://kisti\\.rkbexplorer\\.com/id/\\S*" )
  ] .
`
	_, free, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 1 {
		t.Fatalf("free EAs = %d", len(free))
	}
	ea := free[0]
	if ea.LHS.P.Value != rdf.AKTHasAuthor {
		t.Fatalf("LHS = %v", ea.LHS)
	}
	if len(ea.RHS) != 2 || ea.RHS[0].P.Value != rdf.KISTIHasCreatorInfo || ea.RHS[1].P.Value != rdf.KISTIHasCreator {
		t.Fatalf("RHS = %v", ea.RHS)
	}
	if len(ea.FDs) != 2 {
		t.Fatalf("FDs = %v", ea.FDs)
	}
	// _:c links the two RHS triples
	if ea.RHS[0].O != rdf.NewVar("c") || ea.RHS[1].S != rdf.NewVar("c") {
		t.Fatalf("chain variable broken: %v", ea.RHS)
	}
}

func TestMultiOADocumentRoundTrip(t *testing.T) {
	// Regression: two ontology alignments in one document must not share
	// blank-node labels for their reified statements.
	oa1 := paperOA()
	oa2 := &OntologyAlignment{
		URI:              "http://ecs.soton.ac.uk/alignments/other",
		SourceOntologies: []string{rdf.ECSNS},
		TargetOntologies: []string{rdf.DBONS},
		Alignments: []*EntityAlignment{
			ClassAlignment("http://ecs.soton.ac.uk/alignments/other#person", rdf.ECSNS+"Person", rdf.DBONS+"Person"),
			PropertyAlignment("http://ecs.soton.ac.uk/alignments/other#name", rdf.ECSNS+"name", rdf.DBONS+"name"),
		},
	}
	ttl := FormatTurtle([]*OntologyAlignment{oa1, oa2})
	oas, free, err := ParseTurtle(ttl)
	if err != nil {
		t.Fatalf("%v\n%s", err, ttl)
	}
	if len(free) != 0 || len(oas) != 2 {
		t.Fatalf("oas=%d free=%d", len(oas), len(free))
	}
	total := 0
	for _, oa := range oas {
		for _, ea := range oa.Alignments {
			if err := ea.Validate(); err != nil {
				t.Fatalf("decoded alignment invalid: %v", err)
			}
			total++
		}
	}
	if total != 5 {
		t.Fatalf("total alignments = %d", total)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		// missing lhs
		`@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
		 <http://x/ea> a map:EntityAlignment .`,
		// lhs missing rdf:object
		`@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
		 @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
		 <http://x/ea> a map:EntityAlignment ;
		   map:lhs [ rdf:subject _:a ; rdf:predicate <http://p> ] .`,
		// no rhs at all
		`@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
		 @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
		 <http://x/ea> a map:EntityAlignment ;
		   map:lhs [ rdf:subject _:a ; rdf:predicate <http://p> ; rdf:object _:b ] .`,
		// FD dependent is not a variable
		`@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
		 @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
		 <http://x/ea> a map:EntityAlignment ;
		   map:lhs [ rdf:subject _:a ; rdf:predicate <http://p> ; rdf:object _:b ] ;
		   map:rhs [ rdf:subject _:a ; rdf:predicate <http://q> ; rdf:object _:b ] ;
		   map:hasFunctionalDependency [ rdf:subject <http://notvar> ; rdf:predicate <http://fn> ; rdf:object ( _:a ) ] .`,
	}
	for i, src := range bad {
		if _, _, err := ParseTurtle(src); err == nil {
			t.Errorf("case %d should fail to decode", i)
		}
	}
}

func TestKBSelect(t *testing.T) {
	kb := NewKB()
	akt2kisti := paperOA()
	if err := kb.Add(akt2kisti); err != nil {
		t.Fatal(err)
	}
	// a data-set-independent OA (no TD): reusable via target ontology
	generic := &OntologyAlignment{
		URI:              "http://ecs.soton.ac.uk/alignments/akt2foaf",
		SourceOntologies: []string{rdf.AKTNS},
		TargetOntologies: []string{rdf.FOAFNS},
		Alignments: []*EntityAlignment{
			PropertyAlignment("http://ecs.soton.ac.uk/alignments/akt2foaf#name", rdf.AKTFullName, rdf.FOAFNS+"name"),
		},
	}
	if err := kb.Add(generic); err != nil {
		t.Fatal(err)
	}

	// Selecting by the KISTI target data set returns only the akt2kisti EAs.
	got := kb.Select(Selector{SourceOntology: rdf.AKTNS, TargetDataset: "http://kisti.rkbexplorer.com/id/void"})
	if len(got) != 3 {
		t.Fatalf("select kisti = %d", len(got))
	}
	// Selecting by FOAF target ontology returns the generic EA.
	got = kb.Select(Selector{SourceOntology: rdf.AKTNS, TargetOntology: rdf.FOAFNS})
	if len(got) != 1 {
		t.Fatalf("select foaf = %d", len(got))
	}
	// A data-set-specific OA is not reused for a different data set.
	got = kb.Select(Selector{SourceOntology: rdf.AKTNS, TargetDataset: "http://other.example/void"})
	if len(got) != 0 {
		t.Fatalf("select other = %d", len(got))
	}
	// Wrong source ontology selects nothing.
	got = kb.Select(Selector{SourceOntology: "http://nope#", TargetDataset: "http://kisti.rkbexplorer.com/id/void"})
	if len(got) != 0 {
		t.Fatalf("select wrong source = %d", len(got))
	}
	// Wildcard selector returns the union.
	got = kb.Select(Selector{})
	if len(got) != 4 {
		t.Fatalf("select all = %d", len(got))
	}
	if kb.Len() != 2 || kb.EntityAlignmentCount() != 4 {
		t.Fatalf("kb stats: %d %d", kb.Len(), kb.EntityAlignmentCount())
	}
	if err := kb.Add(&OntologyAlignment{URI: "bad"}); err == nil {
		t.Fatal("invalid OA must be rejected")
	}
}

// TestKBAddReplacesByURI: re-loading an alignment document must update
// the KB, not grow it — every Add of an already stored URI replaces that
// alignment in place and still notifies subscribers. Anonymous
// alignments have no identity to match and accumulate.
func TestKBAddReplacesByURI(t *testing.T) {
	kb := NewKB()
	notified := 0
	kb.Subscribe(func() { notified++ })
	other := &OntologyAlignment{
		URI:              "http://ecs.soton.ac.uk/alignments/akt2foaf",
		SourceOntologies: []string{rdf.AKTNS},
		TargetOntologies: []string{rdf.FOAFNS},
	}
	for _, oa := range []*OntologyAlignment{paperOA(), other, paperOA()} {
		if err := kb.Add(oa); err != nil {
			t.Fatal(err)
		}
	}
	updated := paperOA()
	updated.Alignments = updated.Alignments[:1]
	if err := kb.Add(updated); err != nil {
		t.Fatal(err)
	}
	if all := kb.All(); len(all) != 2 || all[0] != updated || all[1] != other {
		t.Fatalf("stored alignments = %v, want the updated one in the first one's place", all)
	}
	if kb.EntityAlignmentCount() != 1 || notified != 4 {
		t.Fatalf("entity alignments = %d, notifications = %d", kb.EntityAlignmentCount(), notified)
	}

	// Two documents whose alignment is a blank node: the parser's labels
	// coincide, the alignments do not.
	const anonymous = `@prefix map: <http://ecs.soton.ac.uk/om.owl#> .
[] a map:OntologyAlignment ; map:sourceOntology <http://a#> ; map:targetOntology <http://b#> .`
	for range 2 {
		oas, _, err := ParseTurtle(anonymous)
		if err != nil || len(oas) != 1 || oas[0].URI != "" {
			t.Fatalf("ParseTurtle = %v, %v", oas, err)
		}
		if err := kb.Add(oas[0]); err != nil {
			t.Fatal(err)
		}
	}
	if kb.Len() != 4 {
		t.Fatalf("Len = %d, want 4: anonymous alignments must not replace each other", kb.Len())
	}
}
