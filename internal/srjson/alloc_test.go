package srjson

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
)

// benchRow is the shape of the benchmark's bulk-stream rows: two IRIs and
// a plain literal.
func benchRow(i int) eval.Solution {
	return eval.Solution{
		"paper": rdf.NewIRI(fmt.Sprintf("http://southampton.rkbexplorer.com/id/paper-%05d", i)),
		"a":     rdf.NewIRI(fmt.Sprintf("http://southampton.rkbexplorer.com/id/person-%05d", i%400)),
		"t":     rdf.NewLiteral(fmt.Sprintf("Paper %d: on the rewriting of queries", i)),
	}
}

var benchVars = []string{"paper", "a", "t"}

// benchDocument is a SELECT document of n benchRows.
func benchDocument(tb testing.TB, n int) []byte {
	var buf bytes.Buffer
	enc, err := NewStreamEncoder(&buf, benchVars)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range n {
		if err := enc.Encode(benchRow(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRowAllocations holds the codec to its per-row budget: a decoded
// row costs its map (two allocations) and one string per bound variable,
// an encoded row nothing.
func TestRowAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 500
	d, err := NewStreamDecoder(bytes.NewReader(benchDocument(t, runs+2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(runs, func() {
		if sol, err := d.Next(); err != nil || len(sol) != 3 {
			t.Fatalf("Next = %v, %v", sol, err)
		}
	}); got > 5 {
		t.Errorf("decoding a 3-variable row: %.1f allocations, want at most 5", got)
	}

	enc, err := NewStreamEncoder(io.Discard, benchVars)
	if err != nil {
		t.Fatal(err)
	}
	row := benchRow(1)
	if got := testing.AllocsPerRun(runs, func() {
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("encoding a row: %.1f allocations, want 0", got)
	}
	// The NDJSON and SSE writers' form: the scratch row stays on the stack.
	line := make([]byte, 0, 512)
	if got := testing.AllocsPerRun(runs, func() {
		if line, err = AppendBinding(line[:0], benchVars, row); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("appending a binding: %.1f allocations, want 0", got)
	}
}

func BenchmarkSRJDecodeRow(b *testing.B) {
	const rows = 1000
	doc := benchDocument(b, rows)
	r := bytes.NewReader(doc)
	b.ReportAllocs()
	b.SetBytes(int64(len(doc) / rows))
	for n := 0; n < b.N; {
		r.Reset(doc)
		d, err := NewStreamDecoder(r)
		if err != nil {
			b.Fatal(err)
		}
		for ; n < b.N; n++ { // one iteration is one row
			if _, err := d.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSRJEncodeRow(b *testing.B) {
	enc, err := NewStreamEncoder(io.Discard, benchVars)
	if err != nil {
		b.Fatal(err)
	}
	row := benchRow(1)
	b.ReportAllocs()
	for b.Loop() {
		if err := enc.Encode(row); err != nil {
			b.Fatal(err)
		}
	}
}
