package federate

import (
	"fmt"
	"reflect"
	"testing"

	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// batchOf packs rows of one width into a batch, as a dispatch worker does.
func batchOf(rows ...eval.Row) eval.RowBuf {
	b := eval.RowBuf{Width: len(rows[0])}
	for _, r := range rows {
		b.Append(r)
	}
	return b
}

// TestMergerRewritesInPlaceAndDeduplicates: merge owns the batch it is
// given, canonicalises it without copying and compacts the first-seen
// rows to its front.
func TestMergerRewritesInPlaceAndDeduplicates(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://b/1", "http://a/1")
	m := &merger{reps: NewRepCache(cs)}
	a1, b1, x, y := rdf.NewIRI("http://a/1"), rdf.NewIRI("http://b/1"), rdf.NewLiteral("x"), rdf.NewLiteral("y")
	batch := batchOf(eval.Row{b1, x}, eval.Row{a1, x}, eval.Row{a1, y})
	out := m.merge(batch)
	if want := []rdf.Term{a1, x, a1, y}; out.N != 2 || !reflect.DeepEqual(out.Terms, want) {
		t.Fatalf("merged batch = %+v, want the two rows %v", out, want)
	}
	if got := batch.Terms[:4]; !reflect.DeepEqual(got, out.Terms) {
		t.Fatalf("batch not canonicalised and compacted in place: %v", got)
	}
	if again := m.merge(batchOf(eval.Row{b1, y})); again.N != 0 || m.duplicates != 2 {
		t.Fatalf("a batch of duplicates left %d rows, %d duplicates counted in all", again.N, m.duplicates)
	}
}

// TestMergerAllocations: per row, new or duplicate, the merge allocates
// next to nothing — a new row's key comes out of the key arena and its
// representatives out of the RepCache's memo.
func TestMergerAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 1024 // AllocsPerRun rounds down, so a fraction per row is measured over many rows
	cs := coref.NewStore()
	batches := make([]eval.RowBuf, n/maxBatchRows)
	for i := range n {
		cs.Add(fmt.Sprintf("http://b/%d", i), fmt.Sprintf("http://a/%d", i))
		b := &batches[i/maxBatchRows]
		b.Width = 2
		b.Append(eval.Row{rdf.NewIRI(fmt.Sprintf("http://b/%d", i)), rdf.NewLiteral("x")})
	}
	emitted := 0
	var m *merger
	feed := func() {
		for _, b := range batches {
			// The merge consumes its input; hand it a copy of the slab, as
			// a worker hands over a fresh one (the copy is the one
			// allocation per batch this loop itself makes).
			b.Terms = append([]rdf.Term(nil), b.Terms...)
			emitted += m.merge(b).N
		}
	}
	perRow := func(f func()) float64 {
		return (testing.AllocsPerRun(5, f) - float64(len(batches))) / n
	}
	if got := perRow(func() {
		m = &merger{reps: NewRepCache(cs)}
		feed()
	}); got > 0.1 {
		t.Errorf("merging new rows: %.3f allocations per row, want at most 0.1", got)
	}
	if got := perRow(feed); got != 0 {
		t.Errorf("merging duplicate rows: %.3f allocations per row, want 0", got)
	}
	if emitted != 6*n || m.duplicates != 6*n {
		t.Fatalf("emitted %d rows and dropped %d, want %d each", emitted, m.duplicates, 6*n)
	}
}

// pairSource is a coref source without the Canonical capability.
type pairSource map[string][]string

func (p pairSource) Equivalents(uri string) []string {
	if eq, ok := p[uri]; ok {
		return eq
	}
	return []string{uri}
}

// TestRepCacheSources: a source that names its smallest member itself and
// one that only lists classes give the same representatives, each asked
// once per distinct IRI.
func TestRepCacheSources(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://b/1", "http://a/1")
	cs.Add("http://b/1", "http://c/1")
	class := []string{"http://a/1", "http://b/1", "http://c/1"}
	plain := pairSource{"http://a/1": class, "http://b/1": class, "http://c/1": class}
	for name, src := range map[string]interface{ Equivalents(string) []string }{"canonical": cs, "equivalents": plain} {
		c := NewRepCache(src)
		for _, uri := range append(class, "http://lonely/1", "http://b/1") {
			want := rdf.NewIRI(uri)
			if uri != "http://lonely/1" {
				want = rdf.NewIRI("http://a/1")
			}
			if got := c.Term(rdf.NewIRI(uri)); got != want {
				t.Errorf("%s: Term(%s) = %v, want %v", name, uri, got, want)
			}
		}
		if lit := rdf.NewLiteral("http://b/1"); c.Term(lit) != lit {
			t.Errorf("%s: a literal was canonicalised", name)
		}
		if got := c.Triple(rdf.NewTriple(rdf.NewIRI("http://c/1"), rdf.NewIRI("http://p"), rdf.NewLiteral("o"))); got.S != rdf.NewIRI("http://a/1") {
			t.Errorf("%s: Triple subject = %v", name, got.S)
		}
	}
	if _, ok := any(plain).(interface{ Canonical(string) string }); ok {
		t.Fatal("the plain source grew a Canonical method: the fallback is untested")
	}
}
