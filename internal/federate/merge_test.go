package federate

import (
	"fmt"
	"testing"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// TestMergerRewritesInPlaceAndDeduplicates: add owns the row it is given,
// canonicalises it without copying, and emits each canonical row once.
func TestMergerRewritesInPlaceAndDeduplicates(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://b/1", "http://a/1")
	var out []eval.Solution
	m := newMerger(cs, func(sol eval.Solution) bool { out = append(out, sol); return true })
	first := eval.Solution{"p": rdf.NewIRI("http://b/1"), "n": rdf.NewLiteral("x")}
	m.add(first)
	m.add(eval.Solution{"p": rdf.NewIRI("http://a/1"), "n": rdf.NewLiteral("x")})
	m.add(eval.Solution{"p": rdf.NewIRI("http://a/1"), "n": rdf.NewLiteral("y")})
	if len(out) != 2 || m.duplicates != 1 {
		t.Fatalf("emitted %v, duplicates %d", out, m.duplicates)
	}
	if first["p"] != rdf.NewIRI("http://a/1") || first["n"] != rdf.NewLiteral("x") {
		t.Fatalf("row not canonicalised in place: %v", first)
	}
}

// TestMergerAllocations: a duplicate row costs nothing; a new row whose
// IRIs the RepCache already knows costs its retained key.
func TestMergerAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 200
	cs := coref.NewStore()
	rows := make([]eval.Solution, runs+1)
	for i := range rows {
		cs.Add(fmt.Sprintf("http://b/%d", i), fmt.Sprintf("http://a/%d", i))
		rows[i] = eval.Solution{"p": rdf.NewIRI(fmt.Sprintf("http://b/%d", i)), "n": rdf.NewLiteral("x")}
	}
	m := newMerger(cs, func(eval.Solution) bool { return true })
	for _, row := range rows {
		m.reps.Term(row["p"])
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() { m.add(rows[i]); i++ }); got > 1 {
		t.Errorf("merging a new row: %.1f allocations, want at most 1", got)
	}
	if got := testing.AllocsPerRun(runs, func() { m.add(rows[0]) }); got != 0 {
		t.Errorf("merging a duplicate row: %.1f allocations, want 0", got)
	}
	if m.duplicates != runs+1 {
		t.Fatalf("duplicates = %d, want %d", m.duplicates, runs+1)
	}
}
