package srjson

import (
	"fmt"
	"io"
	"unicode/utf8"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// StreamEncoder writes a SELECT results document incrementally: the head
// and the opening of the bindings array up front, then one binding object
// per EncodeRow (or Encode) call, then the closing braces on Close. It
// lets an HTTP handler flush the first solution to the client before the
// last one exists. Bindings are rendered by AppendRow, the package's one
// binding-encoding routine, from a positional row; the map-taking Encode
// only gathers its solution into such a row first. The
// encoder keeps nothing of a row past the call, so the evaluator's reused
// rows can be handed to it directly.
type StreamEncoder struct {
	w      io.Writer
	vars   []string
	buf    []byte     // reused for every row
	row    []rdf.Term // reused by Encode to gather a solution
	n      int
	closed bool
	err    error     // the first failed EncodeRow's: no epilogue follows it
	first  [512]byte // buf's first backing array, allocated with the encoder
}

// NewStreamEncoder writes the document prologue (head + opening of the
// bindings array) and returns an encoder ready to stream bindings.
func NewStreamEncoder(w io.Writer, vars []string) (*StreamEncoder, error) {
	e := &StreamEncoder{w: w, vars: vars}
	buf := append(e.first[:0], `{"head":{`...)
	for i, v := range vars {
		if i == 0 {
			buf = append(buf, `"vars":[`...)
		} else {
			buf = append(buf, ',')
		}
		buf = appendString(buf, v)
	}
	if len(vars) > 0 {
		buf = append(buf, ']')
	}
	buf = append(buf, `},"results":{"bindings":[`...)
	if _, err := w.Write(buf); err != nil {
		return nil, err
	}
	e.buf = buf
	return e, nil
}

// EncodeRow writes one positional row — row[i] binds the encoder's i-th
// variable, the zero Term leaves it unbound — as a binding object,
// separator included, in a single Write. Unbound variables are omitted
// per the W3C format. A row that fails to encode or write fails the
// encoder: later rows, Close and CloseWith write nothing and return its
// error, so a truncated document is never closed as if it were whole.
func (e *StreamEncoder) EncodeRow(row []rdf.Term) error {
	if e.closed {
		return fmt.Errorf("srjson: Encode after Close")
	}
	if e.err != nil {
		return e.err
	}
	buf := e.buf[:0]
	if e.n > 0 {
		buf = append(buf, ',')
	}
	buf, err := AppendRow(buf, e.vars, row)
	if err != nil {
		e.err = err
		return err
	}
	e.buf = buf
	e.n++
	if _, err = e.w.Write(buf); err != nil {
		e.err = err
	}
	return err
}

// Encode is EncodeRow for a solution map, gathered into a reused row.
func (e *StreamEncoder) Encode(sol eval.Solution) error {
	e.row = e.row[:0]
	for _, v := range e.vars {
		e.row = append(e.row, sol[v])
	}
	return e.EncodeRow(e.row)
}

// Count reports how many bindings have been encoded so far.
func (e *StreamEncoder) Count() int { return e.n }

// Close writes the document epilogue. The encoder is unusable afterwards.
func (e *StreamEncoder) Close() error {
	if e.closed || e.err != nil {
		return e.err
	}
	e.closed = true
	_, err := io.WriteString(e.w, "]}}")
	return err
}

// CloseWith writes the document epilogue with one extra top-level member
// appended after results — the /sparql endpoint's explain=trace trailer.
// W3C-format consumers (including StreamDecoder) skip unknown top-level
// members, so the document stays a valid SELECT results document. raw
// must be valid JSON; nil raw degrades to a plain Close.
func (e *StreamEncoder) CloseWith(key string, raw []byte) error {
	if e.closed || e.err != nil {
		return e.err
	}
	if raw == nil {
		return e.Close()
	}
	e.closed = true
	buf := appendString(append(e.buf[:0], "]},"...), key)
	buf = append(append(append(buf, ':'), raw...), '}')
	_, err := e.w.Write(buf)
	return err
}

// EncodeSelectStream drains a lazy solution sequence into w as a SELECT
// results document, writing each solution as it arrives. flush, when
// non-nil, is called after every written solution (an http.Flusher
// adapter), so the first row reaches the client immediately. A mid-stream
// error from the sequence aborts the document and is returned; the output
// is then truncated JSON, which tells the consumer the stream failed.
func EncodeSelectStream(w io.Writer, vars []string, seq eval.SolutionSeq, flush func()) error {
	enc, err := NewStreamEncoder(w, vars)
	if err != nil {
		return err
	}
	for sol, err := range seq {
		if err != nil {
			return err
		}
		if err := enc.Encode(sol); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}
	}
	return enc.Close()
}

// AppendRow appends one positional row as a W3C results-JSON binding
// object — the element shape of results.bindings — to dst: row[i] binds
// vars[i], and the zero Term leaves it unbound, which omits it. Members
// follow the order of vars. NDJSON streaming writes one such object per
// line. On error dst is returned unextended.
func AppendRow(dst []byte, vars []string, row []rdf.Term) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, '{')
	for i, v := range vars {
		t := row[i]
		if t.Kind == rdf.KindAny {
			continue // unbound: omitted per spec
		}
		if len(dst) > mark+1 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v)
		typed := t.Datatype != "" && t.Datatype != rdf.XSDString
		switch {
		case t.Kind == rdf.KindIRI:
			dst = append(dst, `:{"type":"uri","value":`...)
		case t.Kind == rdf.KindBlank:
			dst = append(dst, `:{"type":"bnode","value":`...)
		case t.Kind == rdf.KindLiteral && typed:
			dst = append(dst, `:{"type":"typed-literal","value":`...)
		case t.Kind == rdf.KindLiteral:
			dst = append(dst, `:{"type":"literal","value":`...)
		default:
			return dst[:mark], fmt.Errorf("srjson: cannot encode term %s", t)
		}
		dst = appendString(dst, t.Value)
		if t.Kind == rdf.KindLiteral {
			if t.Lang != "" {
				dst = append(dst, `,"xml:lang":`...)
				dst = appendString(dst, t.Lang)
			}
			if typed {
				dst = append(dst, `,"datatype":`...)
				dst = appendString(dst, t.Datatype)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return
}()

// appendString appends s as a JSON string literal. Bytes that are not
// valid UTF-8 are written as \ufffd, as encoding/json does.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is a run that needs no escaping
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
			i += size
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, `\ufffd`...)
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
