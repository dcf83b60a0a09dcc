package voidkb

import (
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
)

func kistiDS() *Dataset {
	return &Dataset{
		URI:            "http://kisti.rkbexplorer.com/id/void",
		Title:          "KISTI",
		SPARQLEndpoint: "http://kisti.rkbexplorer.com/sparql",
		URISpace:       URISpaceFromPrefix("http://kisti.rkbexplorer.com/id/"),
		Vocabularies:   []string{rdf.KISTINS},
	}
}

func sotonDS() *Dataset {
	return &Dataset{
		URI:            "http://southampton.rkbexplorer.com/id/void",
		Title:          "Southampton RKB",
		SPARQLEndpoint: "http://southampton.rkbexplorer.com/sparql",
		URISpace:       URISpaceFromPrefix("http://southampton.rkbexplorer.com/id/"),
		Vocabularies:   []string{rdf.AKTNS},
	}
}

func TestURISpaceMatching(t *testing.T) {
	d := kistiDS()
	if !d.Matches("http://kisti.rkbexplorer.com/id/PER_105047") {
		t.Fatal("must match own URI space")
	}
	if d.Matches("http://southampton.rkbexplorer.com/id/person-02686") {
		t.Fatal("must not match foreign URI space")
	}
	empty := &Dataset{}
	if empty.Matches("http://x") {
		t.Fatal("empty URI space matches nothing")
	}
}

func TestKBAddGetAll(t *testing.T) {
	kb := NewKB()
	if err := kb.Add(kistiDS()); err != nil {
		t.Fatal(err)
	}
	if err := kb.Add(sotonDS()); err != nil {
		t.Fatal(err)
	}
	if kb.Len() != 2 {
		t.Fatalf("len = %d", kb.Len())
	}
	if _, ok := kb.Get("http://kisti.rkbexplorer.com/id/void"); !ok {
		t.Fatal("Get failed")
	}
	all := kb.All()
	if len(all) != 2 || all[0].URI > all[1].URI {
		t.Fatalf("All not sorted: %v", all)
	}
	if err := kb.Add(&Dataset{}); err == nil {
		t.Fatal("dataset without URI must be rejected")
	}
	if err := kb.Add(&Dataset{URI: "http://x"}); err == nil {
		t.Fatal("dataset without endpoint must be rejected")
	}
}

func TestUsesVocabularyAndDatasetFor(t *testing.T) {
	kb := NewKB()
	kb.Add(kistiDS())
	kb.Add(sotonDS())
	if !sotonDS().UsesVocabulary(rdf.AKTNS) || kistiDS().UsesVocabulary(rdf.AKTNS) {
		t.Fatal("UsesVocabulary: only the Southampton data set declares AKT")
	}
	d, ok := kb.DatasetFor("http://kisti.rkbexplorer.com/id/PER_1")
	if !ok || d.Title != "KISTI" {
		t.Fatalf("DatasetFor = %v %v", d, ok)
	}
	if _, ok := kb.DatasetFor("http://elsewhere.example/x"); ok {
		t.Fatal("foreign URI matched")
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	kb := NewKB()
	kb.Add(kistiDS())
	kb.Add(sotonDS())
	ttl := kb.FormatTurtle()
	for _, want := range []string{"void:Dataset", "void:sparqlEndpoint", "void:vocabulary", "dcterms:title"} {
		if !strings.Contains(ttl, want) {
			t.Fatalf("turtle missing %q:\n%s", want, ttl)
		}
	}
	kb2, err := ParseTurtle(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if kb2.Len() != 2 {
		t.Fatalf("round trip lost datasets")
	}
	d, _ := kb2.Get("http://kisti.rkbexplorer.com/id/void")
	orig := kistiDS()
	if d.Title != orig.Title || d.SPARQLEndpoint != orig.SPARQLEndpoint ||
		d.URISpace != orig.URISpace || len(d.Vocabularies) != 1 {
		t.Fatalf("round trip damaged dataset: %+v", d)
	}
}

func TestParsePlainVoidURISpace(t *testing.T) {
	// Standard voiD uses a plain prefix for uriSpace; it must be converted
	// into the regex form.
	src := `
@prefix void: <http://rdfs.org/ns/void#> .
<http://ds/void> a void:Dataset ;
  void:sparqlEndpoint <http://ds/sparql> ;
  void:uriSpace "http://ds/id/" .
`
	kb, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := kb.Get("http://ds/void")
	if !ok {
		t.Fatal("dataset missing")
	}
	if !d.Matches("http://ds/id/thing-1") {
		t.Fatalf("converted URI space does not match: %q", d.URISpace)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseTurtle("not turtle at all {"); err == nil {
		t.Fatal("bad turtle must fail")
	}
	// dataset missing endpoint
	src := `
@prefix void: <http://rdfs.org/ns/void#> .
<http://ds/void> a void:Dataset .
`
	if _, err := ParseTurtle(src); err == nil {
		t.Fatal("dataset without endpoint must fail")
	}
}
