package eval

import (
	"fmt"
	"testing"

	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// TestKeyBytes pins the key format SortSolutions, DISTINCT and the
// federated merge share: "name=term\x00" per binding, names sorted, terms
// as Term.String renders them.
func TestKeyBytes(t *testing.T) {
	sol := Solution{
		"b":   rdf.NewLangLiteral("say \"hi\"\n", "EN"),
		"a":   rdf.NewIRI("http://x/1"),
		"_:n": rdf.NewBlank("n0"),
		"c":   rdf.NewTypedLiteral("7", rdf.XSDInteger),
		"d":   rdf.NewTypedLiteral("s\xff", rdf.XSDString),
	}
	want := "_:n=_:n0\x00" +
		"a=<http://x/1>\x00" +
		"b=\"say \\\"hi\\\"\\n\"@en\x00" +
		"c=\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>\x00" +
		"d=\"s\uFFFD\"\x00"
	if got := sol.Key(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if got := string(sol.AppendKey([]byte("kept"))); got != "kept"+want {
		t.Fatalf("AppendKey = %q", got)
	}
	if got := (Solution{}).Key(); got != "" {
		t.Fatalf("empty Key = %q", got)
	}
	for name, term := range sol {
		if got := string(term.AppendString(nil)); got != term.String() {
			t.Fatalf("%s: AppendString = %q, String = %q", name, got, term.String())
		}
	}
}

// TestKeySetAllocations: the DISTINCT state behind the evaluator, the
// decomposer's final DISTINCT and the federated merge takes a duplicate
// for free, and a new row for its share of a key-arena chunk.
func TestKeySetAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// AllocsPerRun rounds down to whole allocations, so a fraction per row
	// is measured over a thousand rows per run.
	const n = 1000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{rdf.NewIRI(fmt.Sprintf("http://x/paper-%d", i)), rdf.NewLiteral("a title")}
	}
	var set KeySet
	if got := testing.AllocsPerRun(5, func() {
		set = KeySet{}
		for _, r := range rows {
			if !set.AddRow(r) {
				t.Fatal("new row reported as duplicate")
			}
		}
	}) / n; got > 0.1 {
		t.Errorf("adding a new row: %.3f allocations, want at most 0.1", got)
	}
	if got := testing.AllocsPerRun(5, func() {
		for _, r := range rows {
			if set.AddRow(r) {
				t.Fatal("duplicate reported as new")
			}
		}
	}); got != 0 {
		t.Errorf("adding %d duplicates: %.0f allocations, want 0", n, got)
	}
	// A key is the terms in slot order: the same terms in other slots differ.
	if !set.AddRow(Row{rows[0][1], rows[0][0]}) {
		t.Error("a row with its terms swapped reported as duplicate")
	}
}
