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

// TestRowAllocations holds the codec to its per-row budget: a row decoded
// into the caller's slots costs its share of an arena chunk, a decoded
// solution map the map on top of that (two allocations), an encoded row
// nothing.
func TestRowAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// AllocsPerRun rounds down to whole allocations, so the decoder's
	// fractions are measured over a whole document per run.
	const rows = 1000
	doc := benchDocument(t, rows)
	r := bytes.NewReader(doc)
	perRow := func(next func(d *StreamDecoder) error) float64 {
		return testing.AllocsPerRun(5, func() {
			r.Reset(doc)
			d, err := NewStreamDecoder(r)
			for n := 0; err == nil; n++ {
				if err = next(d); err == io.EOF && n == rows {
					return
				}
			}
			t.Fatalf("decoding stopped with %v", err)
		}) / rows
	}
	slots := make([]rdf.Term, len(benchVars))
	if got := perRow(func(d *StreamDecoder) error { return d.NextRow(benchVars, slots) }); got > 0.1 {
		t.Errorf("decoding a 3-variable row into slots: %.3f allocations, want at most 0.1", got)
	}
	if got := perRow(func(d *StreamDecoder) error { _, err := d.Next(); return err }); got > 2.2 {
		t.Errorf("decoding a 3-variable row into a map: %.3f allocations, want at most 2.2", got)
	}
	if slots[2].Kind != rdf.KindLiteral || slots[0].Kind != rdf.KindIRI {
		t.Fatalf("last row = %v", slots)
	}

	const runs = 500
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
	// The NDJSON writer's form, a positional row appended to a line.
	positional := []rdf.Term{row["paper"], row["a"], row["t"]}
	line := make([]byte, 0, 512)
	if got := testing.AllocsPerRun(runs, func() {
		if line, err = AppendRow(line[:0], benchVars, positional); err != nil {
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

// BenchmarkSRJNextRow is the mediator's decode path: a row into the
// caller's slots, as a federation worker decodes it.
func BenchmarkSRJNextRow(b *testing.B) {
	const rows = 1000
	doc := benchDocument(b, rows)
	r := bytes.NewReader(doc)
	slots := make([]rdf.Term, len(benchVars))
	b.ReportAllocs()
	b.SetBytes(int64(len(doc) / rows))
	for n := 0; n < b.N; {
		r.Reset(doc)
		d, err := NewStreamDecoder(r)
		if err != nil {
			b.Fatal(err)
		}
		for ; n < b.N; n++ { // one iteration is one row
			if err := d.NextRow(benchVars, slots); err == io.EOF {
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

// TestEncoderBlockIsReused: a long answer's block goes back to the pool
// however the document ends — closed, closed with a trailer, or failed —
// so the next answer takes it again: encoding a whole 1000-row document
// costs the encoder and nothing more.
func TestEncoderBlockIsReused(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	rows := make([][]rdf.Term, 1000)
	for i := range rows {
		sol := benchRow(i)
		rows[i] = []rdf.Term{sol["paper"], sol["a"], sol["t"]}
	}
	for name, end := range map[string]func(*StreamEncoder) error{
		"Close":     (*StreamEncoder).Close,
		"CloseWith": func(e *StreamEncoder) error { return e.CloseWith("trace", []byte(`{}`)) },
		"Fail":      func(e *StreamEncoder) error { e.Fail(io.ErrUnexpectedEOF); return nil },
	} {
		if got := testing.AllocsPerRun(20, func() {
			enc, err := NewStreamEncoder(io.Discard, benchVars)
			for _, row := range rows {
				if err == nil {
					err = enc.EncodeRow(row)
				}
			}
			if err == nil {
				err = end(enc)
			}
			if err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("a 1000-row document ended by %s: %.0f allocations, want 1 (the encoder)", name, got)
		}
	}
}
