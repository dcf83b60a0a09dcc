package voidkb

import (
	"os"
	"testing"

	"sparqlrw/internal/rdf"
)

// TestParseStatistics pins the voiD statistics surface: void:triples,
// void:propertyPartition (void:property + void:triples) and
// void:classPartition (void:class + void:entities, falling back to
// void:triples) parse out of the Turtle fixture.
func TestParseStatistics(t *testing.T) {
	src, err := os.ReadFile("testdata/stats.ttl")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ParseTurtle(string(src))
	if err != nil {
		t.Fatal(err)
	}
	soton, ok := kb.Get("http://southampton.rkbexplorer.com/id/void")
	if !ok {
		t.Fatal("southampton data set missing")
	}
	if soton.Triples != 1200000 {
		t.Fatalf("soton triples = %d", soton.Triples)
	}
	if n, ok := soton.PropertyTriples(rdf.AKTHasAuthor); !ok || n != 350000 {
		t.Fatalf("has-author partition = %d, %v", n, ok)
	}
	if n, ok := soton.PropertyTriples(rdf.AKTHasTitle); !ok || n != 150000 {
		t.Fatalf("has-title partition = %d, %v", n, ok)
	}
	if n, ok := soton.ClassEntities(rdf.AKTPerson); !ok || n != 45000 {
		t.Fatalf("Person partition = %d, %v", n, ok)
	}

	kisti, ok := kb.Get("http://kisti.rkbexplorer.com/id/void")
	if !ok {
		t.Fatal("kisti data set missing")
	}
	// Typed-literal count and the void:triples fallback for classes.
	if kisti.Triples != 800000 {
		t.Fatalf("kisti triples = %d", kisti.Triples)
	}
	if n, ok := kisti.PropertyTriples(rdf.KISTIHasCreator); !ok || n != 280000 {
		t.Fatalf("hasCreator partition = %d, %v", n, ok)
	}
	if n, ok := kisti.ClassEntities(rdf.KISTIArticle); !ok || n != 90000 {
		t.Fatalf("Article partition = %d, %v", n, ok)
	}

	// Unknown keys report !ok, not zero-with-ok.
	if _, ok := soton.PropertyTriples("http://nope.example/p"); ok {
		t.Fatal("unknown property partition reported ok")
	}
	// A malformed count ("3.5e6") is unknown, not a known tiny extent.
	if _, ok := soton.PropertyTriples(rdf.AKTHasDate); ok {
		t.Fatal("malformed partition count reported as known")
	}
}

// TestStatisticsRoundTrip: statistics survive Encode → Turtle → Parse,
// including two data sets sharing one graph (blank-node labels must not
// collide).
func TestStatisticsRoundTrip(t *testing.T) {
	kb := NewKB()
	a := sotonDS()
	a.Triples = 42
	a.PropertyPartitions = map[string]int64{rdf.AKTHasAuthor: 10, rdf.AKTHasTitle: 7}
	a.ClassPartitions = map[string]int64{rdf.AKTPerson: 5}
	b := kistiDS()
	b.Triples = 99
	b.PropertyPartitions = map[string]int64{rdf.KISTIHasCreator: 33}
	if err := kb.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := kb.Add(b); err != nil {
		t.Fatal(err)
	}
	out, err := ParseTurtle(kb.FormatTurtle())
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, kb.FormatTurtle())
	}
	a2, _ := out.Get(a.URI)
	if a2.Triples != 42 || a2.PropertyPartitions[rdf.AKTHasAuthor] != 10 ||
		a2.PropertyPartitions[rdf.AKTHasTitle] != 7 || a2.ClassPartitions[rdf.AKTPerson] != 5 {
		t.Fatalf("soton stats lost: %+v", a2)
	}
	b2, _ := out.Get(b.URI)
	if b2.Triples != 99 || b2.PropertyPartitions[rdf.KISTIHasCreator] != 33 {
		t.Fatalf("kisti stats lost: %+v", b2)
	}
}
