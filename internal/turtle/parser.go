// Package turtle implements a parser and serialiser for the Turtle RDF
// syntax (the W3C Team Submission subset the paper uses for its alignment
// listings, §3.2.2): prefix and base directives, predicate-object and
// object lists, the `a` keyword, blank node property lists, collections,
// and plain/typed/language-tagged literals.
package turtle

import (
	"fmt"
	"strconv"
	"strings"

	"sparqlrw/internal/lex"
	"sparqlrw/internal/rdf"
)

// Parser parses one Turtle document. Its tokens' values are slices of the
// document; a value the graph or the prefix map keeps is copied once (val,
// iri), so nothing parsed pins the document. Keywords are only compared,
// and the prefix:local text of a prefixed name only feeds
// PrefixMap.Expand, which builds a new string.
type Parser struct {
	lx       lex.Lexer
	tok      lex.Token
	prefixes *rdf.PrefixMap
	graph    rdf.Graph
	anonSeq  int
	used     map[string]bool // blank labels seen in the document
}

// Parse parses a Turtle document and returns its triples together with the
// prefix map accumulated from @prefix/@base directives.
func Parse(src string) (rdf.Graph, *rdf.PrefixMap, error) {
	p := &Parser{
		lx:       lex.New(src),
		prefixes: rdf.NewPrefixMap(),
		used:     map[string]bool{},
	}
	p.next()
	for p.tok.Kind != lex.EOF {
		if err := p.statement(); err != nil {
			return nil, nil, err
		}
	}
	return p.graph, p.prefixes, nil
}

// MustParse parses src and panics on error; for tests and fixtures.
func MustParse(src string) rdf.Graph {
	g, _, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return g
}

func (p *Parser) next() {
	p.tok = p.lx.Next()
}

// val returns a copy of the current token's value.
func (p *Parser) val() string { return strings.Clone(p.tok.Val) }

// iri returns a copy of the current IRIREF token's value, resolved
// against the base.
func (p *Parser) iri() string { return p.prefixes.ResolveIRI(p.val()) }

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: %d:%d: %s", p.tok.Line, p.tok.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) expect(k lex.Kind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s", k, p.tok)
	}
	p.next()
	return nil
}

func (p *Parser) statement() error {
	switch {
	case p.tok.Kind == lex.AtKeyword && p.tok.Val == "prefix":
		p.next()
		if p.tok.Kind != lex.PNameNS {
			return p.errf("expected prefix name after @prefix, found %s", p.tok)
		}
		name := p.val()
		p.next()
		if p.tok.Kind != lex.IRIRef {
			return p.errf("expected IRI after @prefix %s:, found %s", name, p.tok)
		}
		p.prefixes.Bind(name, p.iri())
		p.next()
		return p.expect(lex.Dot)
	case p.tok.Kind == lex.AtKeyword && p.tok.Val == "base":
		p.next()
		if p.tok.Kind != lex.IRIRef {
			return p.errf("expected IRI after @base, found %s", p.tok)
		}
		p.prefixes.SetBase(p.val())
		p.next()
		return p.expect(lex.Dot)
	case p.tok.Kind == lex.Ident && (equalsFold(p.tok.Val, "PREFIX")):
		// SPARQL-style directive (Turtle 1.1), no trailing dot.
		p.next()
		if p.tok.Kind != lex.PNameNS {
			return p.errf("expected prefix name after PREFIX, found %s", p.tok)
		}
		name := p.val()
		p.next()
		if p.tok.Kind != lex.IRIRef {
			return p.errf("expected IRI after PREFIX %s:, found %s", name, p.tok)
		}
		p.prefixes.Bind(name, p.iri())
		p.next()
		return nil
	case p.tok.Kind == lex.Ident && equalsFold(p.tok.Val, "BASE"):
		p.next()
		if p.tok.Kind != lex.IRIRef {
			return p.errf("expected IRI after BASE, found %s", p.tok)
		}
		p.prefixes.SetBase(p.val())
		p.next()
		return nil
	}
	return p.triples()
}

func (p *Parser) triples() error {
	var subj rdf.Term
	var err error
	if p.tok.Kind == lex.LBracket {
		// Blank node property list as subject.
		subj, err = p.blankNodePropertyList()
		if err != nil {
			return err
		}
		// Predicate-object list is optional after a bnode property list.
		if p.tok.Kind == lex.Dot {
			p.next()
			return nil
		}
	} else {
		subj, err = p.subject()
		if err != nil {
			return err
		}
	}
	if err := p.predicateObjectList(subj); err != nil {
		return err
	}
	return p.expect(lex.Dot)
}

func (p *Parser) subject() (rdf.Term, error) {
	switch p.tok.Kind {
	case lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case lex.PNameLN, lex.PNameNS:
		return p.pname()
	case lex.BlankNode:
		t := p.blankLabel(p.val())
		p.next()
		return t, nil
	case lex.LParen:
		return p.collection()
	}
	return rdf.Term{}, p.errf("expected subject, found %s", p.tok)
}

func (p *Parser) pname() (rdf.Term, error) {
	var q string
	if p.tok.Kind == lex.PNameLN {
		q = p.tok.Val
	} else {
		q = p.tok.Val + ":"
	}
	iri, err := p.prefixes.Expand(q)
	if err != nil {
		return rdf.Term{}, p.errf("%v", err)
	}
	p.next()
	return rdf.NewIRI(iri), nil
}

func (p *Parser) blankLabel(label string) rdf.Term {
	p.used[label] = true
	return rdf.NewBlank(label)
}

func (p *Parser) freshBlank() rdf.Term {
	for {
		p.anonSeq++
		label := "anon" + strconv.Itoa(p.anonSeq)
		if !p.used[label] {
			p.used[label] = true
			return rdf.NewBlank(label)
		}
	}
}

func (p *Parser) predicateObjectList(subj rdf.Term) error {
	for {
		verb, err := p.verb()
		if err != nil {
			return err
		}
		if err := p.objectList(subj, verb); err != nil {
			return err
		}
		if p.tok.Kind != lex.Semicolon {
			return nil
		}
		// Consume any run of semicolons; a trailing ';' before '.' or ']'
		// is legal Turtle.
		for p.tok.Kind == lex.Semicolon {
			p.next()
		}
		if p.tok.Kind == lex.Dot || p.tok.Kind == lex.RBracket {
			return nil
		}
	}
}

func (p *Parser) verb() (rdf.Term, error) {
	if p.tok.Kind == lex.Ident && p.tok.Val == "a" {
		p.next()
		return rdf.NewIRI(rdf.RDFType), nil
	}
	switch p.tok.Kind {
	case lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case lex.PNameLN, lex.PNameNS:
		return p.pname()
	}
	return rdf.Term{}, p.errf("expected predicate, found %s", p.tok)
}

func (p *Parser) objectList(subj, verb rdf.Term) error {
	for {
		obj, err := p.object()
		if err != nil {
			return err
		}
		p.graph.AddTriple(subj, verb, obj)
		if p.tok.Kind != lex.Comma {
			return nil
		}
		p.next()
	}
}

func (p *Parser) object() (rdf.Term, error) {
	switch p.tok.Kind {
	case lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case lex.PNameLN, lex.PNameNS:
		return p.pname()
	case lex.BlankNode:
		t := p.blankLabel(p.val())
		p.next()
		return t, nil
	case lex.LBracket:
		return p.blankNodePropertyList()
	case lex.LParen:
		return p.collection()
	case lex.String:
		return p.literal()
	case lex.Integer, lex.Decimal, lex.Double:
		return p.number(p.val()), nil
	case lex.Minus, lex.Plus:
		neg := p.tok.Kind == lex.Minus
		p.next()
		if _, ok := numberTypes[p.tok.Kind]; !ok {
			return rdf.Term{}, p.errf("expected number after sign, found %s", p.tok)
		}
		if neg {
			return p.number("-" + p.tok.Val), nil // the concatenation is a new string
		}
		return p.number(p.val()), nil
	case lex.Ident:
		switch p.tok.Val {
		case "true":
			p.next()
			return rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil
		case "false":
			p.next()
			return rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil
		}
	}
	return rdf.Term{}, p.errf("expected object, found %s", p.tok)
}

// numberTypes maps a numeric token kind to its literal's datatype.
var numberTypes = map[lex.Kind]string{
	lex.Integer: rdf.XSDInteger, lex.Decimal: rdf.XSDDecimal, lex.Double: rdf.XSDDouble,
}

// number returns the literal of the current Integer, Decimal or Double
// token with lexical form lexval, and moves past the token.
func (p *Parser) number(lexval string) rdf.Term {
	t := rdf.NewTypedLiteral(lexval, numberTypes[p.tok.Kind])
	p.next()
	return t
}

func (p *Parser) literal() (rdf.Term, error) {
	lexval := p.val()
	p.next()
	switch p.tok.Kind {
	case lex.LangTag:
		t := rdf.NewLangLiteral(lexval, p.val())
		p.next()
		return t, nil
	case lex.HatHat:
		p.next()
		var dt string
		switch p.tok.Kind {
		case lex.IRIRef:
			dt = p.iri()
			p.next()
		case lex.PNameLN:
			t, err := p.pname()
			if err != nil {
				return rdf.Term{}, err
			}
			dt = t.Value
		default:
			return rdf.Term{}, p.errf("expected datatype IRI after ^^, found %s", p.tok)
		}
		return rdf.NewTypedLiteral(lexval, dt), nil
	}
	return rdf.NewLiteral(lexval), nil
}

// blankNodePropertyList parses "[ predicateObjectList ]" and returns the
// fresh blank node standing for it.
func (p *Parser) blankNodePropertyList() (rdf.Term, error) {
	if err := p.expect(lex.LBracket); err != nil {
		return rdf.Term{}, err
	}
	node := p.freshBlank()
	if p.tok.Kind == lex.RBracket { // empty []
		p.next()
		return node, nil
	}
	if err := p.predicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	if err := p.expect(lex.RBracket); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

// collection parses "( object* )" into an rdf:first/rdf:rest list and
// returns its head (rdf:nil for the empty collection).
func (p *Parser) collection() (rdf.Term, error) {
	if err := p.expect(lex.LParen); err != nil {
		return rdf.Term{}, err
	}
	if p.tok.Kind == lex.RParen {
		p.next()
		return rdf.NewIRI(rdf.RDFNil), nil
	}
	head := p.freshBlank()
	cur := head
	first := true
	for p.tok.Kind != lex.RParen {
		if p.tok.Kind == lex.EOF {
			return rdf.Term{}, p.errf("unterminated collection")
		}
		if !first {
			next := p.freshBlank()
			p.graph.AddTriple(cur, rdf.NewIRI(rdf.RDFRest), next)
			cur = next
		}
		first = false
		obj, err := p.object()
		if err != nil {
			return rdf.Term{}, err
		}
		p.graph.AddTriple(cur, rdf.NewIRI(rdf.RDFFirst), obj)
	}
	p.graph.AddTriple(cur, rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil))
	p.next() // ')'
	return head, nil
}

func equalsFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'a' && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if cb >= 'a' && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
