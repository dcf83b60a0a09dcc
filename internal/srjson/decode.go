package srjson

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

const (
	// readSize is the initial size of the read buffer; it grows only to
	// hold a single string literal longer than that.
	readSize = 4096
	// maxSkipDepth bounds the nesting of a skipped unknown value, the
	// bound encoding/json puts on any value.
	maxSkipDepth = 10000
	// maxInterned bounds the per-decoder table of interned variable
	// names, datatypes and language tags, so a hostile document cannot
	// grow it; past the bound such strings are allocated per occurrence.
	maxInterned = 256
)

// StreamDecoder parses a SPARQL results JSON document incrementally,
// straight off a read buffer: bindings are surfaced one at a time via
// Next without ever holding the whole document (or the whole binding
// list) in memory. It accepts both SELECT documents (head/results) and
// ASK documents (head/boolean), with members in any order and unknown
// members at every level skipped. NextRow and Next share one decode body:
// term values are cut from a chunked arena (one allocation per many
// rows, see rdf.Arena), variable names resolve to the caller's or the
// head's strings, datatypes and language tags are interned — so a
// positional row costs no allocation of its own and a solution map only
// the map.
type StreamDecoder struct {
	r io.Reader
	// buf[pos:end] is input read but not yet consumed; base is the
	// document offset of buf[0], for error messages.
	buf      []byte
	pos, end int
	base     int64
	rerr     error // what r.Read last failed with (io.EOF at end of input)
	// first is true while no member or element of the innermost open
	// object or array has been read, i.e. no comma is due.
	first bool
	// scratch holds the decoded form of a string literal with escapes.
	scratch []byte
	strs    map[string]string
	// arena backs the term values handed out; rowStart is the document
	// offset the current binding began at and lastRow how many bytes the
	// last one took.
	arena             rdf.Arena
	rowStart, lastRow int64

	vars []string
	// boolean is set when the document is an ASK result.
	boolean *bool
	// sawResults records that a results member was present (a SELECT
	// document, even when its bindings array is empty).
	sawResults bool
	// inResults and inBindings say which container the decoder is
	// positioned in between calls; neither means the top-level object.
	inResults, inBindings bool
	// sawBindings records that the bindings array was entered.
	sawBindings bool
	err         error
}

// NewStreamDecoder reads the document up to the start of the bindings
// array (or to the end, for ASK documents and binding-less corner cases)
// and returns a decoder positioned to stream bindings.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	d := &StreamDecoder{r: r, buf: make([]byte, readSize)}
	if err := d.open('{'); err != nil {
		return nil, err
	}
	if err := d.advance(); err != nil {
		return nil, err
	}
	return d, nil
}

// Vars returns the head's variable list. It may still be empty while
// bindings are being streamed if the document (unusually) places head
// after results; it is definitive once Next has returned io.EOF.
func (d *StreamDecoder) Vars() []string { return d.vars }

// Boolean returns the ASK result, or nil for SELECT documents. For
// documents with boolean after results it is definitive only at io.EOF.
func (d *StreamDecoder) Boolean() *bool { return d.boolean }

// SawResults reports whether the document carried a results member (so an
// empty SELECT can be told apart from a malformed document).
func (d *StreamDecoder) SawResults() bool { return d.sawResults }

// Next returns the next solution; the caller owns the returned map, and
// variables the head omits still appear in it. It returns io.EOF when the
// document is exhausted (at which point Vars and Boolean are final), or
// the decoding error that terminated the stream. Errors are sticky.
func (d *StreamDecoder) Next() (eval.Solution, error) {
	if err := d.nextElement(); err != nil {
		return nil, err
	}
	sol := make(eval.Solution, len(d.vars))
	if err := d.binding(d.vars, nil, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// NextRow decodes the next solution into the caller's row over the
// caller's slot table: row[i] receives the binding of vars[i], the zero
// Term where the solution leaves it unbound, and bindings of variables
// outside vars are checked and dropped. The terms' strings are immutable
// and stay valid for as long as they are referenced; the row itself is
// the caller's to reuse. Errors are as for Next.
func (d *StreamDecoder) NextRow(vars []string, row []rdf.Term) error {
	if err := d.nextElement(); err != nil {
		return err
	}
	return d.binding(vars, row[:len(vars)], nil)
}

// RowBuffered reports whether the input already buffered is at least as
// long as the last row was, i.e. whether the next NextRow will probably
// return without reading from (and possibly blocking on) the source. A
// consumer that batches rows uses it to hand a batch on instead of
// holding it across a read.
func (d *StreamDecoder) RowBuffered() bool {
	return d.inBindings && int64(d.end-d.pos) >= d.lastRow
}

// nextElement positions the decoder on the next element of the bindings
// array, or returns io.EOF (or the sticky error) when there is none.
func (d *StreamDecoder) nextElement() error {
	if d.err != nil {
		return d.err
	}
	if !d.inBindings {
		return io.EOF // finished, ASK or bindings-less document
	}
	d.rowStart = d.base + int64(d.pos)
	done, err := d.element(']')
	if err != nil {
		return d.fail(err)
	}
	if !done {
		return nil
	}
	// End of the bindings array: consume the rest of the results object
	// and whatever top-level members follow (head-after-results).
	d.inBindings = false
	if err := d.advance(); err != nil {
		return err
	}
	return io.EOF
}

// trailing is the error for anything but white space following the
// document, for callers that own the whole input. Call it after Next
// has returned io.EOF.
func (d *StreamDecoder) trailing() error {
	if c, err := d.peek(); err == nil {
		return d.syntax("trailing data after document: %q", c)
	}
	return nil
}

func (d *StreamDecoder) fail(err error) error {
	d.err = err
	return err
}

// advance consumes results-object and top-level members until it enters
// the bindings array or reaches the end of the document.
func (d *StreamDecoder) advance() error {
	for {
		name, done, err := d.member()
		if err != nil {
			return d.fail(err)
		}
		if done {
			if d.inResults {
				d.inResults = false
				continue
			}
			return nil // the document's closing brace
		}
		key := string(name) // for error messages; the document has few such members
		if err := d.colon(); err != nil {
			return d.fail(err)
		}
		switch {
		case d.inResults && key == "bindings":
			if d.sawBindings {
				return d.fail(d.syntax("multiple bindings members"))
			}
			if err := d.open('['); err != nil {
				return d.fail(fmt.Errorf("%w (bindings)", err))
			}
			d.sawBindings, d.inBindings = true, true
			return nil
		case d.inResults:
			err = d.skipValue(0) // e.g. "ordered", "distinct"
		case key == "head":
			err = d.head()
		case key == "boolean":
			var b bool
			if b, err = d.boolValue(); err == nil {
				d.boolean = &b
			}
		case key == "results":
			if d.sawResults {
				// The format has exactly one; rows of the first may
				// already have been delivered.
				return d.fail(d.syntax("multiple results members"))
			}
			d.sawResults = true
			if err = d.open('{'); err == nil {
				d.inResults = true
			}
		default:
			err = d.skipValue(0) // e.g. "link"
		}
		if err != nil {
			return d.fail(fmt.Errorf("%w (%s)", err, key))
		}
	}
}

// head reads the head object; the first head that names vars wins.
func (d *StreamDecoder) head() error {
	if err := d.open('{'); err != nil {
		return err
	}
	for {
		name, done, err := d.member()
		if err != nil || done {
			return err
		}
		isVars := string(name) == "vars"
		if err := d.colon(); err != nil {
			return err
		}
		if !isVars {
			if err := d.skipValue(0); err != nil {
				return err
			}
			continue
		}
		if err := d.open('['); err != nil {
			return err
		}
		vars := []string{}
		for {
			done, err := d.element(']')
			if err != nil {
				return err
			}
			if done {
				break
			}
			v, err := d.stringValue()
			if err != nil {
				return err
			}
			vars = append(vars, string(v))
		}
		if d.vars == nil {
			d.vars = vars
		}
	}
}

// binding is the decode body behind NextRow and Next: it reads one
// element of the bindings array into row (cleared first, row[i] binding
// vars[i], variables outside vars dropped) or, when sol is non-nil, into
// that map instead (under vars' strings where they name the variable, so
// a row allocates no names). As with any JSON object, the last of a
// repeated member counts.
func (d *StreamDecoder) binding(vars []string, row []rdf.Term, sol eval.Solution) error {
	clear(row)
	d.arena.Hint(d.end - d.pos)
	if err := d.open('{'); err != nil {
		return d.fail(err)
	}
	for n := 0; ; n++ {
		name, done, err := d.member()
		if err != nil {
			return d.fail(err)
		}
		if done {
			d.lastRow = d.base + int64(d.pos) - d.rowStart
			return nil
		}
		// Members usually come in the table's order: try that slot first.
		slot := -1
		if n < len(vars) && string(name) == vars[n] {
			slot = n
		} else {
			for i, v := range vars {
				if string(name) == v {
					slot = i
					break
				}
			}
		}
		var v string // the name, while its bytes are still in the window
		if slot >= 0 {
			v = vars[slot]
		} else if sol != nil {
			v = d.intern(name) // head after results, or a variable it omits
		}
		if err := d.colon(); err != nil {
			return d.fail(err)
		}
		t, err := d.term(slot >= 0 || sol != nil)
		if err != nil {
			return d.fail(err)
		}
		if sol != nil {
			sol[v] = t
		} else if slot >= 0 {
			row[slot] = t
		}
	}
}

// The members of a term object.
const (
	mUnknown = iota
	mType
	mValue
	mLang
	mDatatype
)

// The openings of a term object in the usual layout, the one AppendRow
// and most endpoints write: type first, value next, no white space.
var (
	uriPrefix     = []byte(`{"type":"uri","value":`)
	literalPrefix = []byte(`{"type":"literal","value":`)
)

// term reads one RDF term object. As with any JSON object, the last of
// a repeated member counts. A term nobody keeps is checked all the same,
// but its strings are not copied out of the read buffer.
func (d *StreamDecoder) term(keep bool) (rdf.Term, error) {
	var (
		kind                  rdf.TermKind // KindAny: type missing or unknown
		typ                   string       // the unknown type, for the error
		value, lang, datatype string
	)
	// The usual layout takes its type and value's name in one compare of
	// the buffered input; the members after them, if any, go through the
	// loop below as any others do. A comma is due before them: first is
	// false since member read the name this term is the value of.
	if _, err := d.peek(); err != nil {
		return rdf.Term{}, err
	}
	switch window := d.buf[d.pos:d.end]; {
	case bytes.HasPrefix(window, uriPrefix):
		kind, d.pos = rdf.KindIRI, d.pos+len(uriPrefix)
	case bytes.HasPrefix(window, literalPrefix):
		kind, d.pos = rdf.KindLiteral, d.pos+len(literalPrefix)
	default:
		if err := d.open('{'); err != nil {
			return rdf.Term{}, err
		}
	}
	if kind != rdf.KindAny {
		s, err := d.stringValue()
		if err != nil {
			return rdf.Term{}, err
		}
		if keep {
			value = d.arena.Bytes(s)
		}
	}
	for {
		name, done, err := d.member()
		if err != nil {
			return rdf.Term{}, err
		}
		if done {
			break
		}
		m := mUnknown
		switch string(name) {
		case "type":
			m = mType
		case "value":
			m = mValue
		case "xml:lang":
			m = mLang
		case "datatype":
			m = mDatatype
		}
		if err := d.colon(); err != nil {
			return rdf.Term{}, err
		}
		if m == mUnknown {
			if err := d.skipValue(0); err != nil {
				return rdf.Term{}, err
			}
			continue
		}
		s, err := d.stringValue()
		if err != nil {
			return rdf.Term{}, err
		}
		switch {
		case m == mType:
			switch string(s) {
			case "uri":
				kind = rdf.KindIRI
			case "bnode":
				kind = rdf.KindBlank
			case "literal", "typed-literal":
				kind = rdf.KindLiteral
			default:
				kind, typ = rdf.KindAny, string(s)
			}
		case !keep:
		case m == mValue:
			value = d.arena.Bytes(s)
		case m == mLang:
			lang = d.intern(s)
		case m == mDatatype:
			datatype = d.intern(s)
		}
	}
	switch {
	case kind == rdf.KindIRI:
		return rdf.NewIRI(value), nil
	case kind == rdf.KindBlank:
		return rdf.NewBlank(value), nil
	case kind != rdf.KindLiteral:
		return rdf.Term{}, fmt.Errorf("srjson: unknown term type %q", typ)
	case lang != "":
		return rdf.NewLangLiteral(value, lang), nil
	case datatype != "":
		return rdf.NewTypedLiteral(value, datatype), nil
	default:
		return rdf.NewLiteral(value), nil
	}
}

func (d *StreamDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.strs) < maxInterned {
		if d.strs == nil {
			d.strs = make(map[string]string)
		}
		d.strs[s] = s
	}
	return s
}

// The tokenizer. Every method leaves pos behind what it consumed.

func (d *StreamDecoder) syntax(format string, args ...any) error {
	return fmt.Errorf("srjson: offset %d: %s", d.base+int64(d.pos), fmt.Sprintf(format, args...))
}

// more reads further input behind buf[pos:end], first moving that
// window to the front of the buffer (growing the buffer if the window
// fills it). It reports false once no more input can be had; rerr says
// why.
func (d *StreamDecoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		copy(d.buf, d.buf[d.pos:d.end])
		d.base += int64(d.pos)
		d.end -= d.pos
		d.pos = 0
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for range 100 { // as bufio does, give up on a reader that makes no progress
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		d.rerr = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// readErr is the error for input that ended where the document did not.
func (d *StreamDecoder) readErr() error {
	if d.rerr == io.EOF {
		return fmt.Errorf("srjson: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("srjson: %w", d.rerr)
}

// peek returns the next byte that is not white space, unconsumed.
func (d *StreamDecoder) peek() (byte, error) {
	for {
		for ; d.pos < d.end; d.pos++ {
			if c := d.buf[d.pos]; c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return c, nil
			}
		}
		if !d.more() {
			return 0, d.readErr()
		}
	}
}

// expect consumes the byte want, which must come next.
func (d *StreamDecoder) expect(want byte) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != want {
		return d.syntax("expected %q, got %q", want, c)
	}
	d.pos++
	return nil
}

// open consumes the opening '{' or '[' of a container.
func (d *StreamDecoder) open(want byte) error {
	d.first = true
	return d.expect(want)
}

func (d *StreamDecoder) colon() error { return d.expect(':') }

// element consumes what precedes the next element (or member) of the
// open container — a comma, unless it is the first — or the container's
// closing byte (done).
func (d *StreamDecoder) element(closing byte) (done bool, err error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch {
	case c == closing:
		d.pos++
		done = true
	case d.first:
	case c == ',':
		d.pos++
	default:
		return false, d.syntax("expected ',' or %q, got %q", closing, c)
	}
	d.first = false
	return done, nil
}

// member consumes the separator and the name of the next member of the
// open object, or the object's closing brace (done). The name is valid
// until the next read; colon must follow.
func (d *StreamDecoder) member() (name []byte, done bool, err error) {
	if done, err = d.element('}'); err != nil || done {
		return nil, done, err
	}
	name, err = d.stringValue()
	return name, false, err
}

// stringValue consumes a string literal and returns its decoded bytes: a
// view of the read buffer or, when the literal has escapes or invalid
// UTF-8, of d.scratch. The view is valid until the next read.
func (d *StreamDecoder) stringValue() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, d.syntax("expected a string, got %q", c)
	}
	// The whole literal is brought into the buffer; pos stays on its
	// opening quote meanwhile, so more() keeps it.
	i := d.pos + 1
	escaped, all := false, byte(0) // all ORs the literal's bytes: < 0x80 means ASCII
	for {
		for i+8 <= d.end && plain8(binary.LittleEndian.Uint64(d.buf[i:])) {
			i += 8
		}
		if i >= d.end {
			off := i - d.pos
			if !d.more() {
				return nil, d.readErr()
			}
			i = d.pos + off
			continue
		}
		c := d.buf[i]
		if c == '"' {
			break
		}
		if c < ' ' {
			d.pos = i
			return nil, d.syntax("control character %q in string", c)
		}
		if c == '\\' {
			escaped = true
			i++ // whatever is escaped, a quote included, is not the end
		}
		all |= c
		i++
	}
	s := d.buf[d.pos+1 : i]
	if escaped || all >= utf8.RuneSelf && !utf8.Valid(s) {
		s, err = d.unquote(s)
	}
	d.pos = i + 1
	return s, err
}

// plain8 reports whether the eight bytes packed in v are all ASCII that a
// string literal carries as they are: no control character, quote or
// backslash among them.
func plain8(v uint64) bool {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	zero := func(x uint64) uint64 { return (x - lsb) &^ x & msb } // msb set if a byte of x is 0
	// v's own high bits mark non-ASCII bytes; once there are none,
	// subtracting 0x20 from every byte borrows exactly when one is a
	// control character.
	return (v|(v-0x20*lsb)|zero(v^'"'*lsb)|zero(v^'\\'*lsb))&msb == 0
}

// unquote decodes the inside of a string literal into d.scratch exactly
// as encoding/json does: escapes resolved, a surrogate pair combined, a
// lone surrogate and every byte of invalid UTF-8 replaced by U+FFFD.
func (d *StreamDecoder) unquote(s []byte) ([]byte, error) {
	b := d.scratch[:0]
	for r := 0; r < len(s); {
		c := s[r]
		if c != '\\' {
			if c < utf8.RuneSelf {
				b = append(b, c)
				r++
				continue
			}
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
			continue
		}
		r++
		if r == len(s) {
			return nil, d.syntax("unfinished escape in string")
		}
		switch c := s[r]; c {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			b = append(b, "\"\\/\b\f\n\r\t"[strings.IndexByte(`"\/bfnrt`, c)])
		case 'u':
			rr := hex4(s[r+1:])
			if rr < 0 {
				return nil, d.syntax(`invalid \u escape in string`)
			}
			r += 4
			if utf16.IsSurrogate(rr) {
				pair := unicode.ReplacementChar // unless a low surrogate's escape follows
				if len(s) > r+2 && s[r+1] == '\\' && s[r+2] == 'u' {
					pair = utf16.DecodeRune(rr, hex4(s[r+3:]))
				}
				if pair != unicode.ReplacementChar {
					r += 6
				}
				rr = pair
			}
			b = utf8.AppendRune(b, rr)
		default:
			return nil, d.syntax("invalid escape %q in string", c)
		}
		r++
	}
	d.scratch = b
	return b, nil
}

// hex4 decodes four hexadecimal digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(s[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// boolValue consumes a true or false literal.
func (d *StreamDecoder) boolValue() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c != 't' && c != 'f' {
		return false, d.syntax("expected true or false, got %q", c)
	}
	return c == 't', d.skipValue(0)
}

// skipValue consumes any JSON value, checking its syntax; depth is how
// many containers of the skipped value enclose it.
func (d *StreamDecoder) skipValue(depth int) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		_, err := d.stringValue()
		return err
	case '{', '[':
		if depth == maxSkipDepth {
			return d.syntax("value nested deeper than %d", maxSkipDepth)
		}
		d.pos++
		d.first = true
		for {
			if c == '[' {
				if done, err := d.element(']'); err != nil || done {
					return err
				}
			} else {
				if _, done, err := d.member(); err != nil || done {
					return err
				}
				if err := d.colon(); err != nil {
					return err
				}
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		return d.number()
	}
}

// cur returns the byte at pos, white space included, unconsumed; ok is
// false at the end of input.
func (d *StreamDecoder) cur() (c byte, ok bool) {
	if d.pos == d.end && !d.more() {
		return 0, false
	}
	return d.buf[d.pos], true
}

func (d *StreamDecoder) literal(word string) error {
	for i := range len(word) {
		c, ok := d.cur()
		if !ok {
			return d.readErr()
		}
		if c != word[i] {
			return d.syntax("invalid literal, expected %q", word)
		}
		d.pos++
	}
	return nil
}

// number consumes a JSON number: -? (0|[1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
func (d *StreamDecoder) number() error {
	accept := func(set string) bool {
		c, ok := d.cur()
		if ok = ok && strings.IndexByte(set, c) >= 0; ok {
			d.pos++
		}
		return ok
	}
	digits := func() bool {
		n := 0
		for accept("0123456789") {
			n++
		}
		return n > 0
	}
	accept("-")
	ok := accept("0") || digits()
	if ok && accept(".") {
		ok = digits()
	}
	if ok && accept("eE") {
		accept("+-")
		ok = digits()
	}
	if !ok {
		return d.syntax("invalid value or number")
	}
	return nil
}
