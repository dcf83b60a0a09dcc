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

// TestAppendKeyOnIsProjectedKey: AppendKeyOn must give the bytes of
// Project(vars).Key() whatever the order, repetition or boundness of vars.
func TestAppendKeyOnIsProjectedKey(t *testing.T) {
	wide := Solution{}
	var wideVars []string
	for i := range 40 { // more names than the stack array holds
		v := fmt.Sprintf("v%02d", 39-i)
		wide[v] = rdf.NewInteger(int64(i))
		wideVars = append(wideVars, v)
	}
	sol := Solution{"a": rdf.NewIRI("http://x/a"), "b": rdf.NewLiteral("b"), "c": rdf.NewBlank("c")}
	for _, tc := range []struct {
		sol  Solution
		vars []string
	}{
		{sol, nil},
		{sol, []string{"a"}},
		{sol, []string{"c", "a"}},
		{sol, []string{"b", "unbound", "a", "b"}},
		{sol, []string{"unbound"}},
		{wide, wideVars},
	} {
		if got, want := string(tc.sol.AppendKeyOn(nil, tc.vars)), tc.sol.Project(tc.vars).Key(); got != want {
			t.Errorf("AppendKeyOn(%v) = %q, want %q", tc.vars, got, want)
		}
	}
	if got, want := wide.Key(), wide.Project(wideVars).Key(); got != want {
		t.Errorf("wide Key = %q, want %q", got, want)
	}
}

// TestKeySetAllocations: the DISTINCT state behind the evaluator, the
// decomposer's final DISTINCT and the federated merge takes a duplicate
// for free and a new row for the one key it keeps.
func TestKeySetAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 200
	rows := make([]Solution, runs+1)
	for i := range rows {
		rows[i] = Solution{"p": rdf.NewIRI(fmt.Sprintf("http://x/paper-%d", i)), "t": rdf.NewLiteral("a title")}
	}
	var set KeySet
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		if !set.Add(rows[i]) {
			t.Fatal("new row reported as duplicate")
		}
		i++
	}); got > 1 {
		t.Errorf("adding a new row: %.1f allocations, want at most 1", got)
	}
	vars := []string{"t", "p"}
	if got := testing.AllocsPerRun(runs, func() {
		if set.Add(rows[0]) || set.AddOn(rows[1], vars) {
			t.Fatal("duplicate reported as new")
		}
	}); got != 0 {
		t.Errorf("adding a duplicate: %.1f allocations, want 0", got)
	}
}
