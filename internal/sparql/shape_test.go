package sparql

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// TestLiftPositions pins which IRIs a shape lifts: subjects, objects not
// under rdf:type, FILTER constants, VALUES cells and DESCRIBE resources,
// each distinct IRI once — never a predicate, a class, an ORDER BY
// constant or a literal.
func TestLiftPositions(t *testing.T) {
	q := MustParse(`PREFIX ex:<http://example.org/>
DESCRIBE ex:r ?s WHERE {
  ex:a ex:p ?s .
  ?s a ex:C .
  ?s ex:q ex:a .
  ?s ex:r "lit" .
  VALUES ?v { ex:b UNDEF }
  FILTER (?s != ex:c)
} ORDER BY (?s = ex:d)`)
	tmpl, slots := Lift(q)
	want := []rdf.Term{rdf.NewIRI("http://example.org/r"), rdf.NewIRI("http://example.org/a"),
		rdf.NewIRI("http://example.org/b"), rdf.NewIRI("http://example.org/c")}
	if !reflect.DeepEqual(slots, want) {
		t.Errorf("slots = %v, want %v", slots, want)
	}
	wantKey := `PREFIX ex: <http://example.org/>
DESCRIBE ?$0 ?s
WHERE {
  ?$1 ex:p ?s .
  ?s a ex:C .
  ?s ex:q ?$1 .
  ?s ex:r "lit" .
  VALUES (?v) {
    (?$2)
    (UNDEF)
  }
  FILTER ((?s != ?$3))
}
ORDER BY ASC((?s = ex:d))
`
	if tmpl.Key() != wantKey {
		t.Errorf("key =\n%s\nwant\n%s", tmpl.Key(), wantKey)
	}
	if got := Format(LiftQuery(q)); got != wantKey {
		t.Errorf("Format(LiftQuery) =\n%s\nwant the key", got)
	}
	if got := tmpl.Execute(slots); got != Format(q) {
		t.Errorf("Execute(slots) =\n%s\nwant Format(q)\n%s", got, Format(q))
	}
	// Values decide the prologue: an IRI outside every namespace declares
	// none, and one shrinking into an unused prefix declares it.
	q2 := MustParse(`PREFIX ex:<http://example.org/> PREFIX o:<http://other.example/>
SELECT ?s WHERE { ?s ex:p <http://nowhere.example/x> }`)
	tmpl2, slots2 := Lift(q2)
	if got := tmpl2.Execute(slots2); got != Format(q2) {
		t.Errorf("Execute =\n%s\nwant\n%s", got, Format(q2))
	}
	got := tmpl2.Execute([]rdf.Term{rdf.NewIRI("http://other.example/y")})
	if want := "PREFIX ex: <http://example.org/>\nPREFIX o: <http://other.example/>\nSELECT ?s\nWHERE {\n  ?s ex:p o:y .\n}\n"; got != want {
		t.Errorf("Execute with an o: value =\n%s\nwant\n%s", got, want)
	}
}

// TestEachLiftedAllocs: EachLifted visits the IRIs Lift gives slots, each
// as often as it appears, allocates nothing, and writes through to the
// query it walks.
func TestEachLiftedAllocs(t *testing.T) {
	q := MustParse(`PREFIX ex:<http://example.org/>
DESCRIBE ex:r ?s WHERE {
  ex:a ex:p ?s .
  ?s a ex:C .
  { ?s ex:q ex:a } UNION { OPTIONAL { ?s ex:q ex:e } }
  ?s ex:r "lit" .
  VALUES ?v { ex:b UNDEF }
  FILTER (?s != ex:c)
} ORDER BY (?s = ex:d)`)
	var seen []rdf.Term
	EachLifted(q, func(t *rdf.Term) { seen = append(seen, *t) })
	_, slots := Lift(q)
	var distinct []rdf.Term
	for _, t := range seen {
		if !slices.Contains(distinct, t) {
			distinct = append(distinct, t)
		}
	}
	if len(seen) != 6 || !reflect.DeepEqual(distinct, slots) {
		t.Errorf("visited %v, want Lift's slots %v, ex:a twice", seen, slots)
	}
	if !raceflag.Enabled {
		n := 0
		if allocs := testing.AllocsPerRun(100, func() { EachLifted(q, func(*rdf.Term) { n++ }) }); allocs != 0 {
			t.Errorf("EachLifted allocates %.0f times, want 0", allocs)
		}
	}
	EachLifted(q, func(t *rdf.Term) {
		if t.Value == "http://example.org/a" {
			*t = rdf.NewIRI("http://example.org/z")
		}
	})
	if got := Format(q); strings.Contains(got, "ex:a ") || strings.Count(got, "ex:z") != 2 {
		t.Errorf("replacing ex:a gave\n%s", got)
	}
}

// TestSlotIsNoParsedVariable: the slot token does not parse, so no query
// can spell a slot, and SlotIndex reads only what Slot writes.
func TestSlotIsNoParsedVariable(t *testing.T) {
	if _, err := Parse("SELECT * WHERE { ?$0 ?p ?o }"); err == nil {
		t.Error("a query spelling the slot token parsed")
	}
	for _, i := range []int{0, 7, 12} {
		if n, ok := SlotIndex(Slot(i)); !ok || n != i {
			t.Errorf("SlotIndex(Slot(%d)) = %d, %v", i, n, ok)
		}
	}
	for _, x := range []rdf.Term{rdf.NewVar("x"), rdf.NewVar("$"), rdf.NewVar("$x"), rdf.NewIRI("$0")} {
		if _, ok := SlotIndex(x); ok {
			t.Errorf("SlotIndex(%v) reports a slot", x)
		}
	}
}
