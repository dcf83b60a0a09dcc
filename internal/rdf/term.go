// Package rdf provides the core RDF data model used throughout the
// repository: terms (IRIs, literals, blank nodes and — because this code
// base manipulates SPARQL patterns as well as ground data — variables),
// triples, prefix maps, and the vocabularies referenced by the paper
// (RDF/RDFS/OWL/XSD, voiD, the AKT and KISTI ontologies, and the `map:`
// alignment vocabulary of Correndo et al., EDBT 2010).
//
// Terms are small comparable value types so they can be used directly as
// Go map keys; the triple store in internal/store relies on this.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the four kinds of term that can occur in a triple
// pattern. Ground RDF data only contains IRIs, literals and blank nodes;
// variables appear in SPARQL patterns and in entity alignments (where the
// paper encodes them as blank nodes and we canonicalise them to variables).
type TermKind uint8

const (
	// KindAny is the zero kind. A zero Term acts as a wildcard in store
	// match operations and is otherwise invalid inside data triples.
	KindAny TermKind = iota
	// KindIRI identifies an IRI reference term.
	KindIRI
	// KindLiteral identifies an RDF literal (plain, typed or language tagged).
	KindLiteral
	// KindBlank identifies a blank node with a local label.
	KindBlank
	// KindVar identifies a SPARQL/alignment variable.
	KindVar
)

// String returns a human readable kind name.
func (k TermKind) String() string {
	switch k {
	case KindAny:
		return "any"
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindVar:
		return "var"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term or SPARQL variable. It is an immutable value type:
// two terms are equal (==) exactly when they denote the same RDF term.
//
// Fields are interpreted by Kind:
//
//	KindIRI     Value = IRI string
//	KindLiteral Value = lexical form, Datatype = datatype IRI ("" = xsd:string plain),
//	            Lang = language tag ("" = none)
//	KindBlank   Value = blank node label (without the "_:" prefix)
//	KindVar     Value = variable name (without the "?"/"$" sigil)
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// Any is the wildcard term used in store match calls.
var Any = Term{}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: strings.ToLower(lang)}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// NewVar returns a variable term with the given name (no sigil).
func NewVar(name string) Term { return Term{Kind: KindVar, Value: name} }

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: KindLiteral, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsGround reports whether the term is a ground RDF term (IRI or literal).
// Blank nodes are existentials and variables are unbound, so neither is
// ground in the sense used by the paper's functional dependencies.
func (t Term) IsGround() bool { return t.Kind == KindIRI || t.Kind == KindLiteral }

// IsZero reports whether the term is the wildcard zero value.
func (t Term) IsZero() bool { return t.Kind == KindAny }

// Equal reports whether two terms are identical RDF terms.
func (t Term) Equal(o Term) bool { return t == o }

// IsNumericLiteral reports whether the term is a literal with one of the
// XSD numeric datatypes understood by the SPARQL expression evaluator.
func (t Term) IsNumericLiteral() bool {
	if t.Kind != KindLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong, XSDShort,
		XSDByte, XSDNonNegativeInteger, XSDPositiveInteger, XSDNegativeInteger,
		XSDNonPositiveInteger, XSDUnsignedInt, XSDUnsignedLong:
		return true
	}
	return false
}

// Float returns the numeric value of a numeric literal.
func (t Term) Float() (float64, bool) {
	if !t.IsNumericLiteral() {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Int returns the integer value of an xsd:integer-family literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != KindLiteral {
		return 0, false
	}
	switch t.Datatype {
	case XSDInteger, XSDInt, XSDLong, XSDShort, XSDByte, XSDNonNegativeInteger,
		XSDPositiveInteger, XSDNegativeInteger, XSDNonPositiveInteger:
		n, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	return 0, false
}

// Bool returns the value of an xsd:boolean literal.
func (t Term) Bool() (bool, bool) {
	if t.Kind != KindLiteral || t.Datatype != XSDBoolean {
		return false, false
	}
	switch t.Value {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// String renders the term in N-Triples-like concrete syntax: <iri>,
// "literal"^^<dt>, "literal"@lang, _:label, ?var. The wildcard renders as
// "*". The output is used in diagnostics, test fixtures and serialisers.
func (t Term) String() string {
	var buf [128]byte // most terms render without a second allocation
	return string(t.AppendString(buf[:0]))
}

// AppendString appends the String rendering of the term to dst and
// returns the extended slice, so row keys and serialisers build one
// buffer instead of one string per term.
func (t Term) AppendString(dst []byte) []byte {
	switch t.Kind {
	case KindAny:
		return append(dst, '*')
	case KindIRI:
		return AppendIRI(dst, t.Value)
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	case KindVar:
		dst = append(dst, '?')
		return append(dst, t.Value...)
	case KindLiteral:
		dst = appendQuoted(dst, t.Value)
		if t.Lang != "" {
			dst = append(dst, '@')
			return append(dst, t.Lang...)
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return AppendIRI(append(dst, "^^"...), t.Datatype)
		}
		return dst
	default:
		return append(dst, fmt.Sprintf("!invalid-term(%d)", t.Kind)...)
	}
}

// AppendIRI appends <iri> as Term.String renders an IRI, writing as a
// \u00XX escape each character an IRI reference may not hold raw
// (controls, space and <>"{}|^`\), so the text parses back to the same
// IRI: the lexer decodes the escapes such an IRI arrived with.
func AppendIRI(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	dst = append(dst, '<')
	start := 0 // s[start:i] is a run that needs no escaping
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\': // escaped below
		default:
			if c > ' ' {
				continue
			}
		}
		dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hex[s[i]>>4], hex[s[i]&0xF])
		start = i + 1
	}
	return append(append(dst, s[start:]...), '>')
}

// appendQuoted appends a literal lexical form escaped for
// N-Triples/Turtle output. Bytes that are not valid UTF-8 render as
// U+FFFD, one per byte.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is a run that needs no escaping
	for i := 0; i < len(s); {
		var esc string
		switch c := s[i]; {
		case c == '"':
			esc = `\"`
		case c == '\\':
			esc = `\\`
		case c == '\n':
			esc = `\n`
		case c == '\r':
			esc = `\r`
		case c == '\t':
			esc = `\t`
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			esc = "\uFFFD"
		default:
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Compare imposes a deterministic total order over terms: by kind, then by
// value, datatype and language. It is used to produce stable serialisations
// and reproducible test output; it is not the SPARQL ORDER BY order (which
// lives in internal/eval and has value-aware numeric comparison).
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		return int(t.Kind) - int(o.Kind)
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}
