package srjson

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

func drainStream(t *testing.T, src string) ([]eval.Solution, *StreamDecoder, error) {
	t.Helper()
	d, err := NewStreamDecoder(strings.NewReader(src))
	if err != nil {
		return nil, nil, err
	}
	var sols []eval.Solution
	for {
		sol, err := d.Next()
		if err == io.EOF {
			return sols, d, nil
		}
		if err != nil {
			return sols, d, err
		}
		sols = append(sols, sol)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	res := &eval.Result{
		Vars: []string{"a", "n"},
		Solutions: []eval.Solution{
			{"a": rdf.NewIRI("http://example.org/alice"), "n": rdf.NewLiteral("Alice")},
			{"a": rdf.NewIRI("http://example.org/bob")}, // n unbound
			{"a": rdf.NewBlank("b0"), "n": rdf.NewLangLiteral("Bob", "en")},
			{"n": rdf.NewTypedLiteral("42", rdf.XSDInteger)},
		},
	}
	var sb strings.Builder
	enc, err := NewStreamEncoder(&sb, res.Vars)
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range res.Solutions {
		if err := enc.Encode(sol); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	sols, d, err := drainStream(t, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(res.Solutions) {
		t.Fatalf("solutions = %d, want %d", len(sols), len(res.Solutions))
	}
	if got := d.Vars(); len(got) != 2 || got[0] != "a" || got[1] != "n" {
		t.Fatalf("vars = %v", got)
	}
	for i, sol := range sols {
		if sol.Key() != res.Solutions[i].Key() {
			t.Fatalf("solution %d = %v, want %v", i, sol, res.Solutions[i])
		}
	}
	// The streamed document must also satisfy the buffered decoder.
	got, b, err := Decode([]byte(sb.String()))
	if err != nil || b != nil {
		t.Fatalf("Decode: %v %v", b, err)
	}
	if len(got.Solutions) != 4 {
		t.Fatalf("buffered decode = %d solutions", len(got.Solutions))
	}
}

func TestStreamDecoderAsk(t *testing.T) {
	_, d, err := drainStream(t, `{"head":{},"boolean":true}`)
	if err != nil {
		t.Fatal(err)
	}
	if b := d.Boolean(); b == nil || !*b {
		t.Fatalf("boolean = %v", b)
	}
}

func TestStreamDecoderHeadAfterResults(t *testing.T) {
	src := `{"results":{"bindings":[{"a":{"type":"uri","value":"http://x/1"}}]},"head":{"vars":["a"]}}`
	sols, d, err := drainStream(t, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %v", sols)
	}
	// Vars become definitive once the stream is drained.
	if got := d.Vars(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("vars = %v", got)
	}
}

func TestStreamDecoderTruncated(t *testing.T) {
	full := `{"head":{"vars":["a"]},"results":{"bindings":[` +
		`{"a":{"type":"uri","value":"http://x/1"}},` +
		`{"a":{"type":"uri","value":"http://x/2"}}]}}`
	// Truncating at any point must produce either a constructor error or a
	// Next error — never a silent clean EOF with the tail missing.
	for cut := 1; cut < len(full); cut++ {
		src := full[:cut]
		d, err := NewStreamDecoder(strings.NewReader(src))
		if err != nil {
			continue
		}
		n, sawErr := 0, false
		for {
			_, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
			n++
		}
		if !sawErr {
			t.Fatalf("truncation at %d decoded cleanly (%d solutions): %q", cut, n, src)
		}
		// Errors are sticky.
		if _, err := d.Next(); err == nil || err == io.EOF {
			t.Fatalf("truncation at %d: error not sticky (%v)", cut, err)
		}
	}
}

func TestStreamDecoderMalformedTermMidStream(t *testing.T) {
	src := `{"head":{"vars":["a"]},"results":{"bindings":[
		{"a":{"type":"uri","value":"http://x/1"}},
		{"a":{"type":"wibble","value":"http://x/2"}},
		{"a":{"type":"uri","value":"http://x/3"}}]}}`
	d, err := NewStreamDecoder(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := d.Next()
	if err != nil || sol == nil {
		t.Fatalf("first solution: %v %v", sol, err)
	}
	if _, err := d.Next(); err == nil || !strings.Contains(err.Error(), "wibble") {
		t.Fatalf("malformed term error = %v", err)
	}
	// The error is terminal: the valid third row is not reachable.
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("post-error Next = %v", err)
	}
}

func TestStreamDecoderMalformedStructure(t *testing.T) {
	for _, src := range []string{
		`[]`,
		`{"results":"nope"}`,
		`{"results":{"bindings":{}}}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[42]}}`,
		`{"results":{"bindings":[]},"results":{"bindings":[]}}`,
	} {
		_, _, err := drainStream(t, src)
		if err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

// TestDecodeRejectsTrailingData: the buffered Decode owns the whole
// payload, so concatenated/corrupt tails are errors (the incremental
// decoder deliberately stays positioned after the document instead).
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, src := range []string{
		`{"head":{"vars":["a"]},"results":{"bindings":[]}}GARBAGE`,
		`{"boolean":true}{"boolean":false}`,
	} {
		if _, _, err := Decode([]byte(src)); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
	// Trailing whitespace stays fine.
	if _, _, err := Decode([]byte("{\"head\":{},\"results\":{\"bindings\":[]}}\n  ")); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDecoderConstantMemory decodes a multi-hundred-thousand-row
// document from a generator reader and checks the decoder's live heap
// stays far below the document size: the stream is never buffered whole.
func TestStreamDecoderConstantMemory(t *testing.T) {
	const rows = 80_000
	pr, pw := io.Pipe()
	go func() {
		enc, err := NewStreamEncoder(pw, []string{"i", "label"})
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for i := 0; i < rows; i++ {
			sol := eval.Solution{
				"i":     rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger),
				"label": rdf.NewLiteral(strings.Repeat("x", 100)),
			}
			if err := enc.Encode(sol); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.CloseWithError(enc.Close())
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := NewStreamDecoder(pr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		sol, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(sol) != 2 {
			t.Fatalf("row %d = %v", n, sol)
		}
		n++
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n != rows {
		t.Fatalf("rows = %d", n)
	}
	// The document is > 10 MB; the decoder should retain well under 8 MB.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 8<<20 {
		t.Fatalf("heap grew %d bytes across a streamed decode", growth)
	}
}

// TestNextRowSlotTable: the positional decode binds by the caller's slot
// table whatever the document's head says, and Next still hands out every
// variable a row names.
func TestNextRowSlotTable(t *testing.T) {
	uri := func(v string) rdf.Term { return rdf.NewIRI(v) }
	for _, tc := range []struct {
		name, doc string
		vars      []string
		rows      [][]rdf.Term
		next      []eval.Solution // what Next answers for the same document
	}{
		{
			name: "head after results",
			doc:  `{"results":{"bindings":[{"a":{"type":"uri","value":"1"},"b":{"type":"uri","value":"2"}}]},"head":{"vars":["b","a"]}}`,
			vars: []string{"a", "b"},
			rows: [][]rdf.Term{{uri("1"), uri("2")}},
			next: []eval.Solution{{"a": uri("1"), "b": uri("2")}},
		},
		{
			name: "a variable the head omits",
			doc:  `{"head":{"vars":["a"]},"results":{"bindings":[{"fresh":{"type":"uri","value":"f"},"a":{"type":"uri","value":"1"}},{"a":{"type":"uri","value":"2"}}]}}`,
			vars: []string{"fresh", "a"},
			rows: [][]rdf.Term{{uri("f"), uri("1")}, {{}, uri("2")}},
			next: []eval.Solution{{"fresh": uri("f"), "a": uri("1")}, {"a": uri("2")}},
		},
		{
			name: "a variable outside the slot table",
			doc:  `{"head":{"vars":["a","fresh"]},"results":{"bindings":[{"a":{"type":"uri","value":"1"},"fresh":{"type":"literal","value":"dropped","xml:lang":"en"}},{"fresh":{"type":"uri","value":"only"}}]}}`,
			vars: []string{"a"},
			rows: [][]rdf.Term{{uri("1")}, {{}}},
			next: []eval.Solution{{"a": uri("1"), "fresh": rdf.NewLangLiteral("dropped", "en")}, {"fresh": uri("only")}},
		},
		{
			name: "a repeated member",
			doc:  `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri","value":"first"},"a":{"type":"bnode","value":"last","value":"really last"}}]}}`,
			vars: []string{"a"},
			rows: [][]rdf.Term{{rdf.NewBlank("really last")}},
			next: []eval.Solution{{"a": rdf.NewBlank("really last")}},
		},
		{
			name: "an empty slot table",
			doc:  `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri","value":"1"}},{}]}}`,
			vars: nil,
			rows: [][]rdf.Term{{}, {}},
			next: []eval.Solution{{"a": uri("1")}, {}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewStreamDecoder(strings.NewReader(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			row := make([]rdf.Term, len(tc.vars))
			for i, want := range tc.rows {
				if err := d.NextRow(tc.vars, row); err != nil || !slices.Equal(row, want) {
					t.Fatalf("row %d = %v, %v, want %v", i, row, err, want)
				}
			}
			if err := d.NextRow(tc.vars, row); err != io.EOF {
				t.Fatalf("after the last row: %v, want io.EOF", err)
			}
			sols, _, err := drainStream(t, tc.doc)
			if err != nil || !reflect.DeepEqual(sols, tc.next) {
				t.Fatalf("Next = %v, %v, want %v", sols, err, tc.next)
			}
		})
	}
}

// TestNextRowUnknownTypeInDroppedVariable: a binding nobody asked for is
// still checked — the positional decode accepts exactly what Next does.
func TestNextRowUnknownTypeInDroppedVariable(t *testing.T) {
	doc := `{"results":{"bindings":[{"a":{"type":"uri","value":"1"},"x":{"type":"wibble","value":"2"}}]}}`
	d, err := NewStreamDecoder(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.NextRow([]string{"a"}, make([]rdf.Term, 1)); err == nil || err == io.EOF {
		t.Fatalf("NextRow = %v, want the unknown-type error", err)
	}
}

// TestRowBuffered: after a row, RowBuffered says whether the next one can
// be had without reading — true while the window holds another row's
// worth, false once the source has to be asked.
func TestRowBuffered(t *testing.T) {
	doc := benchDocument(t, 3)
	// The reader hands over everything but the last row, then the rest.
	cut := bytes.LastIndex(doc, []byte(`,{"paper"`))
	d, err := NewStreamDecoder(io.MultiReader(bytes.NewReader(doc[:cut]), bytes.NewReader(doc[cut:])))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]rdf.Term, len(benchVars))
	for i, want := range []bool{true, false, false} {
		if err := d.NextRow(benchVars, row); err != nil {
			t.Fatal(err)
		}
		if got := d.RowBuffered(); got != want {
			t.Errorf("after row %d: RowBuffered = %v, want %v", i, got, want)
		}
	}
	if err := d.NextRow(benchVars, row); err != io.EOF || d.RowBuffered() {
		t.Fatalf("end = %v, RowBuffered = %v", err, d.RowBuffered())
	}
}

// blockWriter counts the Write calls it takes and records, at each Flush,
// how many bytes had been written by then.
type blockWriter struct {
	bytes.Buffer
	writes  int
	flushed []int
}

func (w *blockWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func (w *blockWriter) Flush() { w.flushed = append(w.flushed, w.Len()) }

// TestStreamEncoderWritesBlocks: a 1000-row answer reaches its writer in
// one Write per flush point and three more (head, tail, first row), as
// the very document a Write per row made, and is flushed right after the
// first row and then after every FlushEvery-th, each flush ending on a
// whole row.
func TestStreamEncoderWritesBlocks(t *testing.T) {
	const rows = 1000
	var w blockWriter
	enc, err := NewStreamEncoder(&w, benchVars)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"head":{"vars":["paper","a","t"]},"results":{"bindings":[`)
	var flushAt []int // the document's length after each flush point's row
	for i := range rows {
		sol := benchRow(i)
		row := []rdf.Term{sol["paper"], sol["a"], sol["t"]}
		if err := enc.EncodeRow(row); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want = append(want, ',')
		}
		if want, err = AppendRow(want, benchVars, row); err != nil {
			t.Fatal(err)
		}
		if n := i + 1; n == 1 || n%FlushEvery == 0 {
			flushAt = append(flushAt, len(want))
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	want = append(want, "]}}"...)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("the blocks make a different document:\n%.300s\nwant\n%.300s", w.Bytes(), want)
	}
	if limit := (rows+FlushEvery-1)/FlushEvery + 3; w.writes > limit {
		t.Errorf("%d rows took %d writes, want at most %d", rows, w.writes, limit)
	}
	if !slices.Equal(w.flushed, flushAt) {
		t.Errorf("flushed with %v bytes written, want %v", w.flushed, flushAt)
	}
}

// TestStreamEncoderFailsMidBlock: a row that cannot be encoded, half-way
// through a block, leaves the rows before it written and no epilogue;
// the encoder stays failed.
func TestStreamEncoderFailsMidBlock(t *testing.T) {
	var w blockWriter
	enc, err := NewStreamEncoder(&w, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"head":{"vars":["x"]},"results":{"bindings":[`)
	for i := range 100 {
		row := []rdf.Term{rdf.NewLiteral(fmt.Sprint(i))}
		if err := enc.EncodeRow(row); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want = append(want, ',')
		}
		want, _ = AppendRow(want, []string{"x"}, row)
	}
	bad := []rdf.Term{rdf.NewVar("v")}
	if err := enc.EncodeRow(bad); err == nil {
		t.Fatal("a variable encoded as a term")
	}
	if err := enc.EncodeRow([]rdf.Term{rdf.NewLiteral("after")}); err == nil {
		t.Error("a row after the failure encoded")
	}
	if err := enc.Close(); err == nil {
		t.Error("Close after the failure succeeded")
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("document = ...%s, want it to end after the 100th row, unclosed", w.Bytes()[max(0, w.Len()-80):])
	}
}

// TestStreamEncodersShareThePool: encoders on several goroutines at once
// take blocks from the one pool and give them back, and each document
// still holds its own rows only.
func TestStreamEncodersShareThePool(t *testing.T) {
	const workers, docs, rows = 4, 5, 300
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for doc := range docs {
				var w blockWriter
				enc, err := NewStreamEncoder(&w, []string{"x"})
				want := []byte(`{"head":{"vars":["x"]},"results":{"bindings":[`)
				for i := 0; i < rows && err == nil; i++ {
					row := []rdf.Term{rdf.NewLiteral(fmt.Sprintf("worker %d, document %d, row %d", g, doc, i))}
					if i > 0 {
						want = append(want, ',')
					}
					want, _ = AppendRow(want, []string{"x"}, row)
					err = enc.EncodeRow(row)
				}
				if err == nil {
					err = enc.Close()
				}
				if want = append(want, "]}}"...); err != nil || !bytes.Equal(w.Bytes(), want) {
					t.Errorf("worker %d, document %d: %v, or other bytes than its rows'", g, doc, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
