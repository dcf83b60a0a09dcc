package srjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// refResult is everything a decoder can say about a document.
type refResult struct {
	sols       []eval.Solution // the rows delivered before the end or the error
	vars       []string
	boolean    *bool
	sawResults bool
	err        error
}

// refDecode is the reference the hand-written StreamDecoder is compared
// against: the same document rules written over encoding/json's token
// stream, so string unquoting, number and literal syntax, white space,
// separators and the nesting bound are all encoding/json's. Like Decode
// it owns the whole payload and rejects trailing data.
//
// The rules, where the format leaves room: members may come in any
// order and unknown ones are skipped at every level; a binding and a
// term must be objects and type, value, xml:lang, datatype and the vars
// must be strings (null is neither); member names match exactly; of a
// repeated member the last one counts, except that a second results or
// bindings member is an error (rows of the first were already
// delivered) and that the first head naming vars wins.
func refDecode(data []byte) (res refResult) {
	r := &refReader{dec: json.NewDecoder(bytes.NewReader(data)), res: &res}
	defer func() {
		if p := recover(); p != nil {
			err, ok := p.(refError)
			if !ok {
				panic(p)
			}
			res.err = err.error
		}
	}()
	r.document()
	return res
}

// refError carries a decode error up refReader's recursive descent.
type refError struct{ error }

type refReader struct {
	dec *json.Decoder
	res *refResult
}

func (r *refReader) fail(format string, args ...any) {
	panic(refError{fmt.Errorf(format, args...)})
}

func (r *refReader) token() json.Token {
	tok, err := r.dec.Token()
	if err != nil {
		r.fail("token: %w", err)
	}
	return tok
}

func (r *refReader) delim(want json.Delim) {
	if tok := r.token(); tok != want {
		r.fail("expected %q, got %v", want, tok)
	}
}

func (r *refReader) str() string {
	s, ok := r.token().(string)
	if !ok {
		r.fail("expected a string")
	}
	return s
}

func (r *refReader) skip() {
	var raw json.RawMessage
	if err := r.dec.Decode(&raw); err != nil {
		r.fail("skip: %w", err)
	}
}

// object calls member for each member of the object that comes next.
func (r *refReader) object(member func(name string)) {
	r.delim('{')
	for r.dec.More() {
		member(r.str())
	}
	r.delim('}')
}

// array calls element before each element of the array that comes next.
func (r *refReader) array(element func()) {
	r.delim('[')
	for r.dec.More() {
		element()
	}
	r.delim(']')
}

func (r *refReader) document() {
	r.object(func(name string) {
		switch name {
		case "head":
			r.object(func(name string) {
				if name != "vars" {
					r.skip()
					return
				}
				vars := []string{}
				r.array(func() { vars = append(vars, r.str()) })
				if r.res.vars == nil {
					r.res.vars = vars
				}
			})
		case "boolean":
			b, ok := r.token().(bool)
			if !ok {
				r.fail("expected true or false")
			}
			r.res.boolean = &b
		case "results":
			if r.res.sawResults {
				r.fail("multiple results members")
			}
			r.res.sawResults = true
			sawBindings := false
			r.object(func(name string) {
				if name != "bindings" {
					r.skip()
					return
				}
				if sawBindings {
					r.fail("multiple bindings members")
				}
				sawBindings = true
				r.array(func() { r.res.sols = append(r.res.sols, r.binding()) })
			})
		default:
			r.skip()
		}
	})
	if _, err := r.dec.Token(); !errors.Is(err, io.EOF) {
		r.fail("trailing data after document")
	}
}

func (r *refReader) binding() eval.Solution {
	sol := eval.Solution{}
	r.object(func(name string) { sol[name] = r.term() })
	return sol
}

func (r *refReader) term() rdf.Term {
	var typ, value, lang, datatype string
	r.object(func(name string) {
		switch name {
		case "type":
			typ = r.str()
		case "value":
			value = r.str()
		case "xml:lang":
			lang = r.str()
		case "datatype":
			datatype = r.str()
		default:
			r.skip()
		}
	})
	switch typ {
	case "uri":
		return rdf.NewIRI(value)
	case "bnode":
		return rdf.NewBlank(value)
	case "literal", "typed-literal":
		switch {
		case lang != "":
			return rdf.NewLangLiteral(value, lang)
		case datatype != "":
			return rdf.NewTypedLiteral(value, datatype)
		}
		return rdf.NewLiteral(value)
	}
	r.fail("unknown term type %q", typ)
	return rdf.Term{}
}
