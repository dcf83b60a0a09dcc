package srjson

import (
	"fmt"
	"io"
	"sync"
	"unicode/utf8"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// FlushEvery is how often a streaming response is flushed after its first
// item: the first reaches the client at once, later ones go out FlushEvery
// at a time, which keeps write, chunk and syscall overhead off the row
// path.
const FlushEvery = 64

// flushPoint reports whether the n-th item written is one after which a
// streaming response is flushed: the first, then every FlushEvery-th.
func flushPoint(n int) bool { return n == 1 || n%FlushEvery == 0 }

// flusher is what an http.ResponseWriter that can flush implements.
type flusher interface{ Flush() }

// FlushAfter is what a streaming handler calls once it has written its
// n-th item to w: it flushes w at the flush points StreamEncoder keeps
// (the first item, then every FlushEvery-th). It does nothing when w
// cannot flush.
func FlushAfter(w io.Writer, n int) {
	if f, ok := w.(flusher); ok && flushPoint(n) {
		f.Flush()
	}
}

// WriteBlock is what a streaming handler that writes its items a block at
// a time calls once it has appended its n-th item to block: at the flush
// points StreamEncoder keeps (the first item, then every FlushEvery-th)
// it writes block to w in one Write, flushes w when w can flush and
// returns block emptied for the items that follow; elsewhere it returns
// block as it is.
func WriteBlock(w io.Writer, block []byte, n int) ([]byte, error) {
	if !flushPoint(n) {
		return block, nil
	}
	if _, err := w.Write(block); err != nil {
		return block, err
	}
	if f, ok := w.(flusher); ok {
		f.Flush()
	}
	return block[:0], nil
}

const (
	// blockSize is the initial capacity of a pooled block: FlushEvery
	// rows of the usual size.
	blockSize = 16 << 10
	// maxPooledBlock bounds what goes back to the pool: a block grown
	// past it (huge literals) is left to the collector.
	maxPooledBlock = 1 << 20
)

// blockPool holds the blocks in which the rows between two flush points
// accumulate, once they outgrow an encoder's inline buffer.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, blockSize)
	return &b
}}

// flushFunc lets EncodeSelectStream's callback stand in for w's Flush.
type flushFunc func()

func (f flushFunc) Flush() { f() }

// StreamEncoder writes a SELECT results document incrementally: the head
// and the opening of the bindings array up front, then the binding
// objects, then the closing braces on Close. Rows are written a block at
// a time: the first row at once, then the rows up to each flush point
// (every FlushEvery-th) in one Write, after which a writer that can flush
// (an http.ResponseWriter) is flushed — so an HTTP handler gets its first
// solution to the client before the last one exists, and a long answer
// costs one chunk and one syscall per block rather than per 2 KB. The
// rows between flush points accumulate in the encoder's inline buffer
// and, once they outgrow it, in a pooled block, which Close, CloseWith and
// a failure give back. Bindings are rendered by AppendRow, the package's
// one binding-encoding routine, from a positional row; the map-taking
// Encode only gathers its solution into such a row first. The encoder
// keeps nothing of a row past the call but its bytes, so the evaluator's
// reused rows can be handed to it directly.
type StreamEncoder struct {
	w       io.Writer
	flusher flusher // w's, when it can flush
	vars    []string
	buf     []byte     // the rows encoded since the last flush point
	block   *[]byte    // the pooled block buf lives in; nil while buf is inline
	last    int        // how many bytes the last row took
	row     []rdf.Term // reused by Encode to gather a solution
	n       int
	closed  bool
	err     error     // the failure that ended the document: no epilogue follows it
	first   [512]byte // buf's inline array, allocated with the encoder
}

// NewStreamEncoder writes the document prologue (head + opening of the
// bindings array) and returns an encoder ready to stream bindings.
func NewStreamEncoder(w io.Writer, vars []string) (*StreamEncoder, error) {
	e := &StreamEncoder{w: w, vars: vars}
	e.flusher, _ = w.(flusher)
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
	e.buf = buf[:0]
	return e, nil
}

// EncodeRow encodes one positional row — row[i] binds the encoder's i-th
// variable, the zero Term leaves it unbound — as a binding object,
// separator included. Unbound variables are omitted per the W3C format.
// At a flush point the rows encoded since the last one are written in one
// Write and w is flushed. A row that fails to encode or write fails the
// encoder: the rows before it are written, and later rows, Close and
// CloseWith write nothing and return its error, so a truncated document
// is never closed as if it were whole.
func (e *StreamEncoder) EncodeRow(row []rdf.Term) error {
	if e.closed {
		return fmt.Errorf("srjson: Encode after Close")
	}
	if e.err != nil {
		return e.err
	}
	if e.block == nil && len(e.buf)+e.last > cap(e.buf) {
		// The inline buffer would probably overflow: move to a block.
		e.block = blockPool.Get().(*[]byte)
		e.buf = append((*e.block)[:0], e.buf...)
	}
	mark := len(e.buf)
	buf := e.buf
	if e.n > 0 {
		buf = append(buf, ',')
	}
	buf, err := AppendRow(buf, e.vars, row)
	if err != nil {
		e.buf = buf[:mark]
		return e.Fail(err)
	}
	e.buf, e.last = buf, len(buf)-mark
	e.n++
	if !flushPoint(e.n) {
		return nil
	}
	if err := e.write(e.buf); err != nil {
		return err
	}
	e.buf = e.buf[:0]
	if e.flusher != nil {
		e.flusher.Flush()
	}
	return nil
}

// Encode is EncodeRow for a solution map, gathered into a reused row.
func (e *StreamEncoder) Encode(sol eval.Solution) error {
	e.row = e.row[:0]
	for _, v := range e.vars {
		e.row = append(e.row, sol[v])
	}
	return e.EncodeRow(e.row)
}

// write writes p, failing the encoder if w does.
func (e *StreamEncoder) write(p []byte) error {
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		e.release()
		return err
	}
	return nil
}

// release gives the encoder's block back to the pool.
func (e *StreamEncoder) release() {
	if e.block == nil {
		return
	}
	if cap(e.buf) <= maxPooledBlock {
		*e.block = e.buf[:0] // the grown array, if the block grew
		blockPool.Put(e.block)
	}
	e.block, e.buf = nil, e.first[:0]
}

// Fail ends the document without its epilogue, as a stream that broke
// off mid-answer must: the rows encoded so far are written, and later
// rows, Close and CloseWith write nothing and return err. On an encoder
// that has already failed or closed it does nothing and returns the
// earlier outcome.
func (e *StreamEncoder) Fail(err error) error {
	if e.closed || e.err != nil {
		return e.err
	}
	if len(e.buf) > 0 && e.write(e.buf) != nil {
		return e.err
	}
	e.err = err
	e.release()
	return err
}

// Close writes the document epilogue. The encoder is unusable afterwards.
func (e *StreamEncoder) Close() error {
	return e.CloseWith("", nil)
}

// CloseWith writes the document epilogue with one extra top-level member
// appended after results — the /sparql endpoint's explain=trace trailer.
// W3C-format consumers (including StreamDecoder) skip unknown top-level
// members, so the document stays a valid SELECT results document. raw
// must be valid JSON; nil raw degrades to a plain Close. The encoder is
// unusable afterwards.
func (e *StreamEncoder) CloseWith(key string, raw []byte) error {
	if e.closed || e.err != nil {
		return e.err
	}
	e.closed = true
	buf := e.buf
	if raw == nil {
		buf = append(buf, "]}}"...)
	} else {
		buf = appendString(append(buf, "]},"...), key)
		buf = append(append(append(buf, ':'), raw...), '}')
	}
	e.buf = buf
	if err := e.write(buf); err != nil {
		return err
	}
	e.release()
	return nil
}

// EncodeSelectStream drains a lazy solution sequence into w as a SELECT
// results document. flush, when non-nil, is called at each flush point in
// place of w's own Flush (an http.Flusher adapter), so the first row
// reaches the client immediately. A mid-stream error from the sequence
// aborts the document and is returned; the output is then truncated JSON,
// which tells the consumer the stream failed.
func EncodeSelectStream(w io.Writer, vars []string, seq eval.SolutionSeq, flush func()) error {
	enc, err := NewStreamEncoder(w, vars)
	if err != nil {
		return err
	}
	if flush != nil {
		enc.flusher = flushFunc(flush)
	}
	for sol, err := range seq {
		if err != nil {
			_ = enc.Fail(err)
			return err
		}
		if err := enc.Encode(sol); err != nil {
			return err
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
