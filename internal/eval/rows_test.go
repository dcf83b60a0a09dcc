package eval

import (
	"fmt"
	"slices"
	"testing"

	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

// paperStore holds n papers with one author and one title each: the shape
// of the benchmark's bulk-stream data.
func paperStore(n int) *store.Store {
	st := store.New()
	for i := range n {
		p := rdf.NewIRI(fmt.Sprintf("http://ex/paper%d", i))
		st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/author"), rdf.NewIRI(fmt.Sprintf("http://ex/person%d", i%50))))
		st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/title"), rdf.NewLiteral(fmt.Sprintf("Paper %d", i))))
	}
	return st
}

// TestRowStreamAllocations pins the evaluator's per-row cost for a
// two-pattern BGP at zero: compiling the plan may allocate, matching and
// yielding a row may not. The only growth with the answer is the store's
// id snapshot of the outer pattern (a handful of doublings per query).
func TestRowStreamAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	q := sparql.MustParse(`SELECT ?p ?a ?t WHERE { ?p <http://ex/author> ?a . ?p <http://ex/title> ?t }`)
	allocs := func(rows int) float64 {
		e := New(paperStore(rows))
		return testing.AllocsPerRun(20, func() {
			rr, err := e.SelectRows(q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for r := range rr.Seq {
				if r[0].Kind != rdf.KindIRI || r[2].Kind != rdf.KindLiteral {
					t.Fatalf("row = %v", r)
				}
				n++
			}
			if n != rows {
				t.Fatalf("%d rows, want %d", n, rows)
			}
		})
	}
	small, big := allocs(10), allocs(1000)
	if perRow := (big - small) / 990; perRow >= 0.02 {
		t.Errorf("%.3f allocations per additional row (%.0f for 10 rows, %.0f for 1000), want 0", perRow, small, big)
	}
}

// TestOptionalFiltersInEitherOrder: both FILTERs of an OPTIONAL group see
// the left side's variables, whichever is written first.
func TestOptionalFiltersInEitherOrder(t *testing.T) {
	g, _, err := turtle.Parse(`@prefix : <http://example.org/> . :a :p 5 ; :q 5 .`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	for _, filters := range []string{"FILTER(?z = ?y) FILTER(?y > 1)", "FILTER(?y > 1) FILTER(?z = ?y)"} {
		res := sel(t, New(st), `PREFIX : <http://example.org/>
SELECT * WHERE { ?x :p ?z . OPTIONAL { ?x :q ?y . `+filters+` } }`)
		if len(res.Solutions) != 1 || res.Solutions[0]["y"] != rdf.NewInteger(5) {
			t.Errorf("%s: solutions = %v, want ?y bound to 5", filters, res.Solutions)
		}
	}
}

// TestRetainedRowsAreCopies covers the volcano rule where rows outlive
// their yield: the boundary hands out independent maps, and ORDER BY, an
// OPTIONAL over a non-BGP right side and a UNION ⋈ UNION hash join all
// give the right rows while the producers below them reuse their frames.
func TestRetainedRowsAreCopies(t *testing.T) {
	e := testEngine(t)
	const prefix = `PREFIX ex: <http://example.org/> `
	names := func(res *Result, v string) []string {
		var out []string
		for _, s := range res.Solutions {
			out = append(out, s[v].Value)
		}
		return out
	}

	res, err := e.Select(sparql.MustParse(prefix + `SELECT ?n ?a WHERE { ?p ex:name ?n ; ex:age ?a } ORDER BY DESC(?a)`))
	if err != nil {
		t.Fatal(err)
	}
	if got := names(res, "n"); !slices.Equal(got, []string{"Carol", "Alice", "Bob"}) {
		t.Errorf("ORDER BY DESC(?a) = %v", got)
	}
	res.Solutions[0]["n"] = rdf.NewLiteral("overwritten")
	delete(res.Solutions[0], "a")
	if got := names(res, "n")[1:]; !slices.Equal(got, []string{"Alice", "Bob"}) || len(res.Solutions[1]) != 2 {
		t.Errorf("mutating one solution changed the others: %v", res.Solutions)
	}

	// The right side is a UNION, so it is evaluated once and retained.
	res = sel(t, e, prefix+`SELECT ?n ?x WHERE { ?p ex:name ?n OPTIONAL { { ?p ex:knows ?x } UNION { ?x ex:author ?p } } }`)
	got := map[string]int{}
	for _, s := range res.Solutions {
		got[s["n"].Value+"/"+s["x"].Value]++
	}
	want := map[string]int{
		"Alice/http://example.org/bob": 1, "Alice/http://example.org/carol": 1, "Alice/http://example.org/p1": 1, "Alice/http://example.org/p2": 1,
		"Bob/http://example.org/carol": 1, "Bob/http://example.org/p1": 1,
		"Carol/http://example.org/p3": 1, "Dave/": 1,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("OPTIONAL over UNION:\n got %v\nwant %v", got, want)
	}

	// Neither operand is a BGP: both sides are retained and hash-joined on ?p.
	res = sel(t, e, prefix+`SELECT ?n ?x WHERE {
  { ?p ex:name ?n . ?p a ex:Person } UNION { ?p ex:name ?n . ?p a ex:Robot }
  { ?p ex:knows ?x } UNION { ?x ex:author ?p } }`)
	got = map[string]int{}
	for _, s := range res.Solutions {
		got[s["n"].Value+"/"+s["x"].Value]++
	}
	delete(want, "Dave/")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("UNION ⋈ UNION:\n got %v\nwant %v", got, want)
	}
}

// countingSource counts the statistics lookups the join-order heuristic
// makes.
type countingSource struct {
	TripleSource
	predicateCounts int
}

func (c *countingSource) PredicateCount(p rdf.Term) int {
	c.predicateCounts++
	return c.TripleSource.PredicateCount(p)
}

// TestBGPPlannedOncePerBoundSet: a 30-row VALUES table seeding a BGP — a
// shard of a bound join — plans the BGP once, not once per seed row; a
// second set of bound slots (here through UNDEF) plans it once more.
func TestBGPPlannedOncePerBoundSet(t *testing.T) {
	src := &countingSource{TripleSource: paperStore(40)}
	e := New(src)
	const bgp = `?p <http://ex/author> ?a . ?p <http://ex/title> ?t .`
	values := func(rows int, extra string) string {
		v := "VALUES ?p {"
		for i := range rows {
			v += fmt.Sprintf(" <http://ex/paper%d>", i)
		}
		return v + extra + " }"
	}
	run := func(query string, wantRows int) int {
		t.Helper()
		src.predicateCounts = 0
		res, err := e.Select(sparql.MustParse(query))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != wantRows {
			t.Fatalf("%d solutions, want %d", len(res.Solutions), wantRows)
		}
		return src.predicateCounts
	}
	one := run(`SELECT * WHERE { `+values(1, "")+` `+bgp+` }`, 1)
	if one == 0 {
		t.Fatal("planning a two-pattern BGP made no statistics lookup")
	}
	if thirty := run(`SELECT * WHERE { `+values(30, "")+` `+bgp+` }`, 30); thirty != one {
		t.Errorf("30 seed rows made %d PredicateCount calls, 1 seed row %d: the BGP is re-planned per row", thirty, one)
	}
	if mixed := run(`SELECT * WHERE { `+bgp+` `+values(30, " UNDEF")+` }`, 70); mixed > 2*one {
		t.Errorf("two bound-slot sets made %d PredicateCount calls, want at most %d", mixed, 2*one)
	}
}
