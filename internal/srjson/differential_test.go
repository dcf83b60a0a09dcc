package srjson

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"sparqlrw/internal/rdf"
)

// streamDecode drains a StreamDecoder over r the way Decode does,
// trailing-data check included, but keeps the rows delivered before an
// error, so it can be compared with refDecode.
func streamDecode(r io.Reader) (res refResult) {
	d, err := NewStreamDecoder(r)
	if err != nil {
		res.err = err
		return res
	}
	for {
		sol, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			res.err = err
			return res
		}
		res.sols = append(res.sols, sol)
	}
	if res.err = d.trailing(); res.err != nil {
		return res
	}
	res.vars, res.boolean, res.sawResults = d.Vars(), d.Boolean(), d.SawResults()
	return res
}

// rowDecode drains a StreamDecoder over r through the positional decode,
// over the caller's slot table, keeping every row delivered before an
// error: by the time they are compared the decoder has read on, refilled
// its window and moved to later arena chunks under them.
func rowDecode(r io.Reader, vars []string) (rows [][]rdf.Term, err error) {
	d, err := NewStreamDecoder(r)
	if err != nil {
		return nil, err
	}
	row := make([]rdf.Term, len(vars))
	for {
		if err := d.NextRow(vars, row); err == io.EOF {
			return rows, d.trailing()
		} else if err != nil {
			return rows, err
		}
		rows = append(rows, append([]rdf.Term(nil), row...))
	}
}

// slotTables returns the slot tables a document is decoded positionally
// over: every variable its rows or head name (sorted), and the same
// without the first, which the decoder must then check and drop.
func slotTables(want refResult) [][]string {
	seen := map[string]bool{}
	for _, v := range want.vars {
		seen[v] = true
	}
	for _, sol := range want.sols {
		for v := range sol {
			seen[v] = true
		}
	}
	all := slices.Sorted(maps.Keys(seen))
	if len(all) == 0 {
		return [][]string{all}
	}
	return [][]string{all, all[1:]}
}

// checkAgainstReference decodes data with the reference and with the
// StreamDecoder — through Next and through the positional NextRow, each
// fed whole, byte by byte and in 7-byte reads, so every token also
// straddles a buffer refill and the read window shifts while earlier
// values of the same row already sit in the arena — and requires the
// same terms per variable and the same error-or-not from all of them.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	want := refDecode(data)
	readers := map[string]func() io.Reader{
		"whole":      func() io.Reader { return bytes.NewReader(data) },
		"one-byte":   func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"seven-byte": func() io.Reader { return &chunkReader{data: data, n: 7} },
	}
	for name, reader := range readers {
		got := streamDecode(reader())
		if (got.err != nil) != (want.err != nil) {
			t.Fatalf("%s: error = %v, reference error = %v\ninput: %q", name, got.err, want.err, data)
		}
		if !reflect.DeepEqual(got.sols, want.sols) {
			t.Fatalf("%s: solutions = %v, reference = %v\ninput: %q", name, got.sols, want.sols, data)
		}
		for _, vars := range slotTables(want) {
			rows, err := rowDecode(reader(), vars)
			if (err != nil) != (want.err != nil) {
				t.Fatalf("%s: NextRow over %v: error = %v, reference error = %v\ninput: %q", name, vars, err, want.err, data)
			}
			if len(rows) != len(want.sols) {
				t.Fatalf("%s: NextRow over %v: %d rows, reference %d\ninput: %q", name, vars, len(rows), len(want.sols), data)
			}
			for i, row := range rows {
				for s, v := range vars {
					if row[s] != want.sols[i][v] {
						t.Fatalf("%s: NextRow over %v: row %d binds ?%s to %v, reference %v\ninput: %q", name, vars, i, v, row[s], want.sols[i][v], data)
					}
				}
			}
		}
		if want.err != nil {
			continue
		}
		if !reflect.DeepEqual(got.vars, want.vars) || !reflect.DeepEqual(got.boolean, want.boolean) || got.sawResults != want.sawResults {
			t.Fatalf("%s: vars/boolean/sawResults = %v %v %v, reference = %v %v %v\ninput: %q", name,
				got.vars, got.boolean, got.sawResults, want.vars, want.boolean, want.sawResults, data)
		}
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// differentialCases are documents on which the decoder must agree with
// the reference; they also seed FuzzStreamDecoder.
var differentialCases = map[string]string{
	"select":            `{"head":{"vars":["a","n"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://x/1"},"n":{"type":"literal","value":"Alice"}},{"a":{"type":"bnode","value":"b0"}}]}}`,
	"ask":               `{"head":{},"boolean":true}`,
	"ask false":         `{"boolean":false}`,
	"empty bindings":    `{"head":{"vars":["a"]},"results":{"bindings":[]}}`,
	"empty binding":     `{"head":{"vars":["a"]},"results":{"bindings":[{},{}]}}`,
	"no bindings":       `{"head":{"vars":["a"]},"results":{}}`,
	"neither":           `{"head":{"vars":["a"]}}`,
	"typed and lang":    `{"head":{"vars":["x","y","z"]},"results":{"bindings":[{"x":{"type":"typed-literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"y":{"type":"literal","value":"chat","xml:lang":"FR"},"z":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
	"lang beats type":   `{"results":{"bindings":[{"x":{"datatype":"http://d","xml:lang":"en","value":"v","type":"literal"}}]}}`,
	"uri ignores lang":  `{"results":{"bindings":[{"x":{"type":"uri","value":"http://x","xml:lang":"en","datatype":"http://d"}}]}}`,
	"no value":          `{"results":{"bindings":[{"x":{"type":"uri"}}]}}`,
	"no type":           `{"results":{"bindings":[{"x":{"value":"v"}}]}}`,
	"unknown type":      `{"results":{"bindings":[{"x":{"type":"uri","value":"1"}},{"x":{"type":"wibble","value":"2"}},{"x":{"type":"uri","value":"3"}}]}}`,
	"repeated type":     `{"results":{"bindings":[{"x":{"type":"wibble","type":"uri","value":"a","value":"b"}}]}}`,
	"repeated variable": `{"results":{"bindings":[{"x":{"type":"uri","value":"a"},"x":{"type":"bnode","value":"b"}}]}}`,
	"escapes":           `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"q\" b\\ s\/ \b\f\n\r\t \u00e9\u00E9 \u4e16"}}]}}`,
	"escaped names":     `{"he\u0061d":{"v\u0061rs":["x"]},"r\u0065sults":{"bindin\u0067s":[{"\u0078":{"ty\u0070e":"uri","valu\u0065":"v"}}]}}`,
	"escaped type":      `{"results":{"bindings":[{"x":{"type":"\u0075ri","value":"v"}}]}}`,
	"surrogate pair":    `{"results":{"bindings":[{"x":{"type":"literal","value":"\ud83d\ude00 \uD83D\uDE00"}}]}}`,
	"lone high":         `{"results":{"bindings":[{"x":{"type":"literal","value":"a\ud83db"}}]}}`,
	"lone low":          `{"results":{"bindings":[{"x":{"type":"literal","value":"a\ude00b"}}]}}`,
	"high then char":    `{"results":{"bindings":[{"x":{"type":"literal","value":"\ud83dA"}}]}}`,
	"high then high":    `{"results":{"bindings":[{"x":{"type":"literal","value":"\ud83d\ud83d\ude00"}}]}}`,
	"high at end":       `{"results":{"bindings":[{"x":{"type":"literal","value":"\ud83d"}}]}}`,
	"high then escape":  `{"results":{"bindings":[{"x":{"type":"literal","value":"\ud83d\n"}}]}}`,
	"bad escape":        `{"results":{"bindings":[{"x":{"type":"literal","value":"\x"}}]}}`,
	"short \\u":         `{"results":{"bindings":[{"x":{"type":"literal","value":"\u12"}}]}}`,
	"bad \\u":           `{"results":{"bindings":[{"x":{"type":"literal","value":"\u12g4"}}]}}`,
	"control character": "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"a\nb\"}}]}}",
	"escaped control":   "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"a\\\nb\"}}]}}",
	"invalid utf-8":     "{\"results\":{\"bindings\":[{\"x\\xff\":{\"type\":\"literal\",\"value\":\"a\xffb\xc0\xafc\xe4\xb8\"}}]}}",
	"utf-8":             "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"世界 é \U0001F600\"}}]}}",
	"utf-8 surrogate":   "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"\xed\xa0\xbd\"}}]}}",
	"white space":       " \t\r\n{ \"head\" : { \"vars\" : [ \"a\" , \"b\" ] } ,\n\"results\" : { \"bindings\" : [ { \"a\" : { \"type\" : \"uri\" , \"value\" : \"v\" } } , { } ] } } \n ",
	"form feed":         "{\"head\":{},\f\"boolean\":true}",
	"unknown before":    `{"link":["http://x",{"a":[1,-2.5e+3,true,false,null,"s\n"]}],"head":{"link":[],"vars":["a"]},"results":{"ordered":true,"distinct":false,"bindings":[{"a":{"type":"uri","extra":{"deep":[[]]},"value":"v","more":null}}]}}`,
	"unknown after":     `{"results":{"bindings":[{"a":{"type":"uri","value":"v"}}],"ordered":true},"head":{"vars":["a"],"link":[]},"trace":{"spans":[1,2,3]}}`,
	"head after":        `{"results":{"bindings":[{"a":{"type":"uri","value":"http://x/1"}}]},"head":{"vars":["a"]}}`,
	"two heads":         `{"head":{"vars":["a"]},"head":{"vars":["b"]},"results":{"bindings":[]}}`,
	"head no vars":      `{"head":{},"head":{"vars":["b"]},"results":{"bindings":[]}}`,
	"boolean after":     `{"results":{"bindings":[]},"boolean":true,"boolean":false}`,
	"two results":       `{"results":{"bindings":[]},"results":{"bindings":[]}}`,
	"results then rows": `{"results":{},"results":{"bindings":[{"a":{"type":"uri","value":"v"}}]}}`,
	"two bindings":      `{"results":{"bindings":[{"a":{"type":"uri","value":"v"}}],"bindings":[]}}`,
	"bindings outside":  `{"bindings":[1,2],"results":{"head":7,"bindings":[]}}`,
	"null binding":      `{"results":{"bindings":[null]}}`,
	"null term":         `{"results":{"bindings":[{"a":null}]}}`,
	"null value":        `{"results":{"bindings":[{"a":{"type":"uri","value":null}}]}}`,
	"null lang":         `{"results":{"bindings":[{"a":{"type":"literal","value":"v","xml:lang":null}}]}}`,
	"null head":         `{"head":null,"boolean":true}`,
	"null vars":         `{"head":{"vars":null},"boolean":true}`,
	"null var":          `{"head":{"vars":[null]},"boolean":true}`,
	"null boolean":      `{"boolean":null}`,
	"number boolean":    `{"boolean":1}`,
	"string boolean":    `{"boolean":"true"}`,
	"upper-case names":  `{"HEAD":{"vars":["a"]},"head":{"VARS":["b"]},"results":{"bindings":[{"a":{"TYPE":"bnode","type":"uri","Value":"w","value":"v"}}]}}`,
	"number value":      `{"results":{"bindings":[{"a":{"type":"uri","value":5}}]}}`,
	"array document":    `[]`,
	"string results":    `{"results":"nope"}`,
	"object bindings":   `{"results":{"bindings":{}}}`,
	"number binding":    `{"head":{"vars":["a"]},"results":{"bindings":[42]}}`,
	"string term":       `{"results":{"bindings":[{"a":"v"}]}}`,
	"trailing garbage":  `{"head":{"vars":["a"]},"results":{"bindings":[]}}GARBAGE`,
	"two documents":     `{"boolean":true}{"boolean":false}`,
	"trailing comma":    `{"boolean":true,}`,
	"trailing comma 2":  `{"results":{"bindings":[{"a":{"type":"uri","value":"v"}},]}}`,
	"trailing comma 3":  `{"results":{"bindings":[{"a":{"type":"uri","value":"v",}}]}}`,
	"leading comma":     `{,"boolean":true}`,
	"leading comma 2":   `{"results":{"bindings":[,{}]}}`,
	"missing comma":     `{"results":{"bindings":[{} {}]}}`,
	"missing comma 2":   `{"head":{} "boolean":true}`,
	"missing colon":     `{"boolean" true}`,
	"double colon":      `{"boolean"::true}`,
	"unquoted name":     `{boolean:true}`,
	"single quotes":     `{'boolean':true}`,
	"bad literal":       `{"boolean":tru}`,
	"long literal":      `{"boolean":truex}`,
	"skipped literal":   `{"x":nul,"boolean":true}`,
	"skipped numbers":   `{"x":[0,-0,1,10,0.5,-1.25,1e5,1E5,1e+5,1e-5,1.5e10],"boolean":true}`,
	"leading zero":      `{"x":01,"boolean":true}`,
	"bare minus":        `{"x":-,"boolean":true}`,
	"plus sign":         `{"x":+1,"boolean":true}`,
	"no fraction":       `{"x":1.,"boolean":true}`,
	"no integer":        `{"x":.5,"boolean":true}`,
	"no exponent":       `{"x":1e,"boolean":true}`,
	"no exponent 2":     `{"x":1e+,"boolean":true}`,
	"hex number":        `{"x":0x10,"boolean":true}`,
	"skipped mismatch":  `{"x":[1,2},"boolean":true}`,
	"skipped open":      `{"x":[1,2,"boolean":true}`,
	"skipped bad str":   `{"x":["\q"],"boolean":true}`,
	"unclosed string":   `{"head":{"vars":["a`,
	"empty":             ``,
	"only white space":  "  \n",
	"only brace":        `{`,
	"nul byte":          "{\"boolean\":true\x00}",
	"bom":               "\xef\xbb\xbf{\"boolean\":true}",
	"deep unknown":      `{"x":` + strings.Repeat("[", 5000) + strings.Repeat("]", 5000) + `,"boolean":true}`,
	"deep unknown obj":  `{"x":` + strings.Repeat(`{"a":`, 5000) + `1` + strings.Repeat("}", 5000) + `,"boolean":true}`,
	"too deep unknown":  `{"x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `,"boolean":true}`,
	"long strings":      `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":"` + strings.Repeat("x", 3*readSize) + `"}},{"a":{"type":"literal","value":"` + strings.Repeat(`éy`, 2*readSize) + `"}}]}}`,
	"long skipped":      `{"x":"` + strings.Repeat("é", 5*readSize) + `","boolean":true}`,
	// The usual layout, which term reads with one compare, followed by
	// what must still go through its member loop.
	"usual layout":          `{"head":{"vars":["a","n"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://x/1"},"n":{"type":"literal","value":"Alice"}},{"a":{"type":"uri","value":"http://x/2"},"n":{"type":"literal","value":"chat","xml:lang":"FR"}},{"n":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}`,
	"usual, value again":    `{"results":{"bindings":[{"x":{"type":"uri","value":"a","value":"b"}},{"x":{"type":"literal","value":"a","value":"b","value":"c"}}]}}`,
	"usual, type again":     `{"results":{"bindings":[{"x":{"type":"uri","value":"a","type":"bnode"}},{"x":{"type":"literal","value":"a","type":"uri"}}]}}`,
	"usual, bad type after": `{"results":{"bindings":[{"x":{"type":"literal","value":"a","type":"wibble"}}]}}`,
	"usual, lang on a uri":  `{"results":{"bindings":[{"x":{"type":"uri","value":"http://x","xml:lang":"en","datatype":"http://d","extra":[1]}}]}}`,
	"usual, escapes":        `{"results":{"bindings":[{"x":{"type":"uri","value":"http://x/0123456789\u00e9\"q\\b\/0123456789"}},{"x":{"type":"literal","value":"0123456\n89abcdef\t"}}]}}`,
	"usual, non-ASCII":      "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"01234567 世界 abcdefgh é 01234567\U0001F600\"}}]}}",
	"usual, invalid utf-8":  "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"uri\",\"value\":\"01234567\xff89abcdef\xc0\xaf0123456789\xe4\xb8\"}}]}}",
	"usual, control":        "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"0123456789abc\x01def\"}}]}}",
	"usual, DEL":            "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"literal\",\"value\":\"0123456789abc\x7fdef ~ 0123\"}}]}}",
	"usual, white space":    "{\"results\":{\"bindings\":[{\"x\":{\"type\":\"uri\",\"value\": \"v\" , \"xml:lang\" : \"en\" },\"y\":{\"type\":\"literal\",\"value\":\n\"w\"\t}, \"z\":{ \"type\":\"uri\",\"value\":\"u\"}}]}}",
	"usual, no comma":       `{"results":{"bindings":[{"x":{"type":"uri","value":"a" "type":"bnode"}}]}}`,
	"usual, value a number": `{"results":{"bindings":[{"x":{"type":"literal","value":5}}]}}`,
	"usual, no value":       `{"results":{"bindings":[{"x":{"type":"literal","value":}}]}}`,
	"usual, long value":     `{"results":{"bindings":[{"x":{"type":"uri","value":"` + strings.Repeat("0123456789", readSize/5) + `"}}]}}`,
}

func TestStreamDecoderAgainstReference(t *testing.T) {
	for name, src := range differentialCases {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, []byte(src)) })
	}
	// The table must exercise both outcomes.
	if refDecode([]byte(differentialCases["escapes"])).err != nil || refDecode([]byte(differentialCases["bad escape"])).err == nil {
		t.Fatal("reference decoder accepts or rejects everything")
	}
}

// TestStreamDecoderTruncatedAgainstReference cuts a document that uses
// every construct, and one in the usual layout, at every byte.
func TestStreamDecoderTruncatedAgainstReference(t *testing.T) {
	for _, name := range []string{"unknown before", "usual layout"} {
		full := differentialCases[name]
		for cut := range len(full) {
			checkAgainstReference(t, []byte(full[:cut]))
		}
	}
}

// TestPlain8 holds the eight-byte test of stringValue to the byte-wise
// rule: every byte printable ASCII other than quote and backslash. One
// odd byte goes at each position among plain ones, and two at each pair
// of positions, so a borrow from one byte cannot hide or fake another.
func TestPlain8(t *testing.T) {
	plain := func(b []byte) bool {
		for _, c := range b {
			if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' {
				return false
			}
		}
		return true
	}
	check := func(b []byte) {
		if got := plain8(binary.LittleEndian.Uint64(b)); got != plain(b) {
			t.Fatalf("plain8(%q) = %v", b, got)
		}
	}
	b := []byte("abcdefgh")
	for i := range b {
		for c := range 256 {
			b[i] = byte(c)
			check(b)
		}
		b[i] = 'a'
	}
	odd := []byte{0x00, 0x01, 0x1f, ' ', '!', '"', '#', '[', '\\', ']', '~', 0x7f, 0x80, 0xc3, 0xff}
	for i := range b {
		for j := i + 1; j < len(b); j++ {
			for _, x := range odd {
				for _, y := range odd {
					b[i], b[j] = x, y
					check(b)
				}
			}
			b[i], b[j] = 'a', 'a'
		}
	}
}

func FuzzStreamDecoder(f *testing.F) {
	for _, src := range differentialCases {
		if len(src) < 2000 { // the long ones only slow the mutator down
			f.Add([]byte(src))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// validUTF8 is s as it reads back from JSON: every byte of invalid UTF-8
// replaced by U+FFFD.
func validUTF8(s string) string { return string([]rune(s)) }

// FuzzAppendRow holds the one binding encoder, the NDJSON writer's, to
// valid JSON, to the bytes StreamEncoder.EncodeRow writes and to a read
// back that gives the term again.
func FuzzAppendRow(f *testing.F) {
	f.Add("x", uint8(0), "http://example.org/a", "")
	f.Add("name", uint8(1), "b0", "")
	f.Add("n", uint8(2), "plain \"quoted\" \\ text\n", "")
	f.Add("l", uint8(3), "chat", "FR")
	f.Add("t", uint8(4), "42", rdf.XSDInteger)
	f.Add("s", uint8(4), "<&>   \x00\x1f\x7f", rdf.XSDString)
	f.Add("bad\xff", uint8(2), "a\xffb\xed\xa0\xbd", "")
	f.Add("", uint8(3), "", "")
	f.Fuzz(func(t *testing.T, name string, kind uint8, value, extra string) {
		var term rdf.Term
		switch kind % 5 {
		case 0:
			term = rdf.NewIRI(value)
		case 1:
			term = rdf.NewBlank(value)
		case 2:
			term = rdf.NewLiteral(value)
		case 3:
			term = rdf.NewLangLiteral(value, extra)
		case 4:
			term = rdf.NewTypedLiteral(value, extra)
		}
		row, err := AppendRow([]byte("prefix"), []string{"unbound", name}, []rdf.Term{{}, term})
		if err != nil {
			t.Fatal(err)
		}
		row = row[len("prefix"):]
		if !json.Valid(row) {
			t.Fatalf("invalid JSON: %q", row)
		}
		// The stream encoder must give the very same bytes.
		var streamed bytes.Buffer
		enc, err := NewStreamEncoder(&streamed, []string{"unbound", name})
		if err != nil {
			t.Fatal(err)
		}
		head := streamed.Len()
		if err := enc.EncodeRow([]rdf.Term{{}, term}); err != nil || !bytes.Equal(streamed.Bytes()[head:], row) {
			t.Fatalf("EncodeRow wrote %q (%v), AppendRow %q", streamed.Bytes()[head:], err, row)
		}
		// What must read back: the term with its strings made valid
		// UTF-8, a language tag lower-cased, and xsd:string — which the
		// format writes as a plain literal — dropped.
		want := term
		want.Value, want.Datatype = validUTF8(want.Value), validUTF8(want.Datatype)
		want.Lang = strings.ToLower(validUTF8(want.Lang))
		if want.Datatype == rdf.XSDString {
			want.Datatype = ""
		}
		doc := append(append([]byte(`{"results":{"bindings":[`), row...), "]}}"...)
		for which, got := range map[string]refResult{"StreamDecoder": streamDecode(bytes.NewReader(doc)), "reference": refDecode(doc)} {
			if got.err != nil || len(got.sols) != 1 || len(got.sols[0]) != 1 || got.sols[0][validUTF8(name)] != want {
				t.Fatalf("%s read %q back as %v (%v), want %v", which, row, got.sols, got.err, want)
			}
		}
	})
}
