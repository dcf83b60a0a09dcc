package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"sparqlrw/internal/lex"
	"sparqlrw/internal/rdf"
)

// Parse parses a SPARQL 1.0 query (SELECT, ASK, CONSTRUCT or DESCRIBE).
func Parse(src string) (*Query, error) {
	p := &parser{lx: lex.New(src)}
	p.next()
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses src and panics on error; for tests and fixtures.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// parser reads tokens whose values are slices of the query text. A value
// the query keeps — a term's value, datatype or language, a variable name
// or blank-node label, a prefix or namespace — is copied once (val, iri),
// so nothing parsed pins the text; keywords are only compared, and the
// prefix:local text of a prefixed name only feeds PrefixMap.Expand, which
// builds a new string.
type parser struct {
	lx      lex.Lexer
	tok     lex.Token
	pm      *rdf.PrefixMap
	anonSeq int
	used    map[string]bool // blank labels of the query, made on first use
}

func (p *parser) next() {
	p.tok = p.lx.Next()
}

// val returns a copy of the current token's value.
func (p *parser) val() string { return strings.Clone(p.tok.Val) }

// iri returns a copy of the current IRIREF token's value, resolved
// against the base.
func (p *parser) iri() string { return p.pm.ResolveIRI(p.val()) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: %d:%d: %s", p.tok.Line, p.tok.Col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k lex.Kind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s", k, p.tok)
	}
	p.next()
	return nil
}

// isKeyword reports whether the current token is the given keyword
// (case-insensitive bare identifier).
func (p *parser) isKeyword(kw string) bool {
	return p.tok.Kind == lex.Ident && strings.EqualFold(p.tok.Val, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) query() (*Query, error) {
	// The prologue binds straight into the query's own prefix map; the
	// form's parser sets the form.
	q := NewQuery(Select)
	p.pm = q.Prefixes
	if err := p.prologue(); err != nil {
		return nil, err
	}
	var err error
	switch {
	case p.isKeyword("SELECT"):
		err = p.selectQuery(q)
	case p.isKeyword("ASK"):
		err = p.askQuery(q)
	case p.isKeyword("CONSTRUCT"):
		err = p.constructQuery(q)
	case p.isKeyword("DESCRIBE"):
		err = p.describeQuery(q)
	default:
		return nil, p.errf("expected SELECT, ASK, CONSTRUCT or DESCRIBE, found %s", p.tok)
	}
	if err != nil {
		return nil, err
	}
	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	// Trailing VALUES clause (SPARQL 1.1 ValuesClause): joined with the
	// WHERE group, so it is represented as a group element.
	if p.isKeyword("VALUES") {
		data, err := p.inlineData()
		if err != nil {
			return nil, err
		}
		if q.Where == nil {
			q.Where = &GroupGraphPattern{}
		}
		q.Where.Elements = append(q.Where.Elements, data)
	}
	if p.tok.Kind != lex.EOF {
		return nil, p.errf("unexpected trailing input: %s", p.tok)
	}
	return q, nil
}

func (p *parser) prologue() error {
	for {
		switch {
		case p.isKeyword("BASE"):
			p.next()
			if p.tok.Kind != lex.IRIRef {
				return p.errf("expected IRI after BASE, found %s", p.tok)
			}
			p.pm.SetBase(p.val())
			p.next()
		case p.isKeyword("PREFIX"):
			p.next()
			if p.tok.Kind != lex.PNameNS {
				return p.errf("expected prefix name after PREFIX, found %s", p.tok)
			}
			name := p.val()
			p.next()
			if p.tok.Kind != lex.IRIRef {
				return p.errf("expected IRI after PREFIX %s:, found %s", name, p.tok)
			}
			p.pm.Bind(name, p.iri())
			p.next()
		default:
			return nil
		}
	}
}

func (p *parser) selectQuery(q *Query) error {
	q.Form = Select
	p.next() // SELECT
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else if p.acceptKeyword("REDUCED") {
		q.Reduced = true
	}
	switch {
	case p.tok.Kind == lex.Star:
		q.SelectStar = true
		p.next()
	case p.tok.Kind == lex.Var:
		for p.tok.Kind == lex.Var {
			q.SelectVars = append(q.SelectVars, p.val())
			p.next()
		}
	default:
		return p.errf("expected variable list or * after SELECT, found %s", p.tok)
	}
	return p.whereClause(q)
}

func (p *parser) askQuery(q *Query) error {
	q.Form = Ask
	p.next() // ASK
	return p.whereClause(q)
}

func (p *parser) constructQuery(q *Query) error {
	q.Form = Construct
	p.next() // CONSTRUCT
	if p.tok.Kind != lex.LBrace {
		return p.errf("expected '{' after CONSTRUCT, found %s", p.tok)
	}
	p.next()
	tmpl, err := p.triplesBlock()
	if err != nil {
		return err
	}
	q.Template = tmpl
	if err := p.expect(lex.RBrace); err != nil {
		return err
	}
	return p.whereClause(q)
}

// describeQuery parses `DESCRIBE VarOrIRIref+ [WHERE GroupGraphPattern]`:
// the resources are variables (resolved against the WHERE clause) and/or
// ground IRIs, and the WHERE clause is optional.
func (p *parser) describeQuery(q *Query) error {
	q.Form = Describe
	p.next() // DESCRIBE
	for {
		switch p.tok.Kind {
		case lex.Var:
			q.DescribeTerms = append(q.DescribeTerms, rdf.NewVar(p.val()))
			p.next()
			continue
		case lex.IRIRef:
			q.DescribeTerms = append(q.DescribeTerms, rdf.NewIRI(p.iri()))
			p.next()
			continue
		case lex.PNameLN, lex.PNameNS:
			// A bare prefix token may also be the WHERE keyword lexed as an
			// identifier elsewhere; PName kinds are unambiguous resources.
			t, err := p.pname()
			if err != nil {
				return err
			}
			q.DescribeTerms = append(q.DescribeTerms, t)
			continue
		}
		break
	}
	if len(q.DescribeTerms) == 0 {
		return p.errf("DESCRIBE requires at least one variable or IRI, found %s", p.tok)
	}
	if p.isKeyword("WHERE") || p.tok.Kind == lex.LBrace {
		return p.whereClause(q)
	}
	return nil
}

// whereClause parses the WHERE clause into q.Where.
func (p *parser) whereClause(q *Query) error {
	p.acceptKeyword("WHERE")
	where, err := p.groupGraphPattern()
	q.Where = where
	return err
}

func (p *parser) groupGraphPattern() (*GroupGraphPattern, error) {
	if err := p.expect(lex.LBrace); err != nil {
		return nil, err
	}
	g := &GroupGraphPattern{}
	for {
		switch {
		case p.tok.Kind == lex.RBrace:
			p.next()
			return g, nil
		case p.tok.Kind == lex.EOF:
			return nil, p.errf("unterminated group graph pattern")
		case p.isKeyword("FILTER"):
			p.next()
			expr, err := p.constraint()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &Filter{Expr: expr})
			// optional '.' after a filter
			if p.tok.Kind == lex.Dot {
				p.next()
			}
		case p.isKeyword("OPTIONAL"):
			p.next()
			sub, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, &Optional{Group: sub})
			if p.tok.Kind == lex.Dot {
				p.next()
			}
		case p.isKeyword("VALUES"):
			data, err := p.inlineData()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, data)
			if p.tok.Kind == lex.Dot {
				p.next()
			}
		case p.tok.Kind == lex.LBrace:
			// Nested group, possibly a UNION chain.
			first, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			if p.isKeyword("UNION") {
				alts := []*GroupGraphPattern{first}
				for p.acceptKeyword("UNION") {
					alt, err := p.groupGraphPattern()
					if err != nil {
						return nil, err
					}
					alts = append(alts, alt)
				}
				g.Elements = append(g.Elements, &Union{Alternatives: alts})
			} else {
				g.Elements = append(g.Elements, &SubGroup{Group: first})
			}
			if p.tok.Kind == lex.Dot {
				p.next()
			}
		default:
			pats, err := p.triplesBlock()
			if err != nil {
				return nil, err
			}
			if len(pats) == 0 {
				return nil, p.errf("expected graph pattern, found %s", p.tok)
			}
			// Merge with a preceding BGP so "t1 . FILTER(...) t2" still
			// yields distinct syntactic blocks but "t1 . t2" stays one.
			if n := len(g.Elements); n > 0 {
				if prev, ok := g.Elements[n-1].(*BGP); ok {
					prev.Patterns = append(prev.Patterns, pats...)
					continue
				}
			}
			g.Elements = append(g.Elements, &BGP{Patterns: pats})
		}
	}
}

// triplesBlock parses a run of TriplesSameSubject productions separated by
// dots, stopping at tokens that cannot start a triple.
func (p *parser) triplesBlock() ([]rdf.Triple, error) {
	var out []rdf.Triple
	for {
		if !p.startsTriples() {
			return out, nil
		}
		pats, err := p.triplesSameSubject()
		if err != nil {
			return nil, err
		}
		out = append(out, pats...)
		if p.tok.Kind == lex.Dot {
			p.next()
			continue
		}
		return out, nil
	}
}

func (p *parser) startsTriples() bool {
	switch p.tok.Kind {
	case lex.Var, lex.IRIRef, lex.PNameLN, lex.PNameNS, lex.BlankNode,
		lex.LBracket, lex.LParen, lex.String, lex.Integer, lex.Decimal, lex.Double:
		return true
	case lex.Ident:
		return strings.EqualFold(p.tok.Val, "true") || strings.EqualFold(p.tok.Val, "false")
	}
	return false
}

func (p *parser) triplesSameSubject() ([]rdf.Triple, error) {
	var acc []rdf.Triple
	var subj rdf.Term
	var err error
	if p.tok.Kind == lex.LBracket {
		subj, err = p.blankNodePropertyList(&acc)
		if err != nil {
			return nil, err
		}
		// property list is optional after [ ... ] as subject
		if !p.startsVerb() {
			return acc, nil
		}
	} else {
		subj, err = p.graphNode(&acc)
		if err != nil {
			return nil, err
		}
	}
	if err := p.propertyListNotEmpty(subj, &acc); err != nil {
		return nil, err
	}
	return acc, nil
}

func (p *parser) startsVerb() bool {
	switch p.tok.Kind {
	case lex.Var, lex.IRIRef, lex.PNameLN, lex.PNameNS:
		return true
	case lex.Ident:
		return p.tok.Val == "a"
	}
	return false
}

func (p *parser) propertyListNotEmpty(subj rdf.Term, acc *[]rdf.Triple) error {
	for {
		verb, err := p.verb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.graphNode(acc)
			if err != nil {
				return err
			}
			*acc = append(*acc, rdf.Triple{S: subj, P: verb, O: obj})
			if p.tok.Kind != lex.Comma {
				break
			}
			p.next()
		}
		if p.tok.Kind != lex.Semicolon {
			return nil
		}
		for p.tok.Kind == lex.Semicolon {
			p.next()
		}
		if !p.startsVerb() {
			return nil
		}
	}
}

func (p *parser) verb() (rdf.Term, error) {
	switch {
	case p.tok.Kind == lex.Var:
		t := rdf.NewVar(p.val())
		p.next()
		return t, nil
	case p.tok.Kind == lex.Ident && p.tok.Val == "a":
		p.next()
		return rdf.NewIRI(rdf.RDFType), nil
	case p.tok.Kind == lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case p.tok.Kind == lex.PNameLN || p.tok.Kind == lex.PNameNS:
		return p.pname()
	}
	return rdf.Term{}, p.errf("expected predicate, found %s", p.tok)
}

func (p *parser) pname() (rdf.Term, error) {
	var q string
	if p.tok.Kind == lex.PNameLN {
		q = p.tok.Val
	} else {
		q = p.tok.Val + ":"
	}
	iri, err := p.pm.Expand(q)
	if err != nil {
		return rdf.Term{}, p.errf("%v", err)
	}
	p.next()
	return rdf.NewIRI(iri), nil
}

// graphNode parses a node that may appear in subject or object position,
// appending auxiliary triples (from [..] and (..) nodes) to acc.
func (p *parser) graphNode(acc *[]rdf.Triple) (rdf.Term, error) {
	switch p.tok.Kind {
	case lex.Var:
		t := rdf.NewVar(p.val())
		p.next()
		return t, nil
	case lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case lex.PNameLN, lex.PNameNS:
		return p.pname()
	case lex.BlankNode:
		label := p.val()
		p.markUsed(label)
		p.next()
		return rdf.NewBlank(label), nil
	case lex.LBracket:
		return p.blankNodePropertyList(acc)
	case lex.LParen:
		return p.collection(acc)
	case lex.String:
		return p.literal()
	case lex.Integer, lex.Decimal, lex.Double:
		return p.number(), nil
	case lex.Ident:
		if t, ok := p.boolean(); ok {
			return t, nil
		}
	}
	return rdf.Term{}, p.errf("expected graph node, found %s", p.tok)
}

// numberTypes maps a numeric token kind to its literal's datatype.
var numberTypes = map[lex.Kind]string{
	lex.Integer: rdf.XSDInteger, lex.Decimal: rdf.XSDDecimal, lex.Double: rdf.XSDDouble,
}

// number returns the typed literal of the current Integer, Decimal or
// Double token and moves past it.
func (p *parser) number() rdf.Term {
	t := rdf.NewTypedLiteral(p.val(), numberTypes[p.tok.Kind])
	p.next()
	return t
}

// boolean returns the xsd:boolean literal of a true or false keyword (in
// any case) and moves past it; ok is false, and nothing consumed, for any
// other token.
func (p *parser) boolean() (t rdf.Term, ok bool) {
	switch {
	case p.tok.Kind != lex.Ident:
		return rdf.Term{}, false
	case strings.EqualFold(p.tok.Val, "true"):
		t = rdf.NewTypedLiteral("true", rdf.XSDBoolean)
	case strings.EqualFold(p.tok.Val, "false"):
		t = rdf.NewTypedLiteral("false", rdf.XSDBoolean)
	default:
		return rdf.Term{}, false
	}
	p.next()
	return t, true
}

func (p *parser) literal() (rdf.Term, error) {
	lexval := p.val()
	p.next()
	switch p.tok.Kind {
	case lex.LangTag:
		t := rdf.NewLangLiteral(lexval, p.val())
		p.next()
		return t, nil
	case lex.HatHat:
		p.next()
		switch p.tok.Kind {
		case lex.IRIRef:
			t := rdf.NewTypedLiteral(lexval, p.iri())
			p.next()
			return t, nil
		case lex.PNameLN:
			dt, err := p.pname()
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.NewTypedLiteral(lexval, dt.Value), nil
		}
		return rdf.Term{}, p.errf("expected datatype IRI after ^^, found %s", p.tok)
	}
	return rdf.NewLiteral(lexval), nil
}

func (p *parser) freshBlank() rdf.Term {
	for {
		p.anonSeq++
		label := "anon" + strconv.Itoa(p.anonSeq)
		if !p.used[label] {
			p.markUsed(label)
			return rdf.NewBlank(label)
		}
	}
}

// markUsed records a blank label as taken, so freshBlank skips it.
func (p *parser) markUsed(label string) {
	if p.used == nil {
		p.used = map[string]bool{}
	}
	p.used[label] = true
}

func (p *parser) blankNodePropertyList(acc *[]rdf.Triple) (rdf.Term, error) {
	if err := p.expect(lex.LBracket); err != nil {
		return rdf.Term{}, err
	}
	node := p.freshBlank()
	if p.tok.Kind == lex.RBracket {
		p.next()
		return node, nil
	}
	if err := p.propertyListNotEmpty(node, acc); err != nil {
		return rdf.Term{}, err
	}
	if err := p.expect(lex.RBracket); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

func (p *parser) collection(acc *[]rdf.Triple) (rdf.Term, error) {
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
			*acc = append(*acc, rdf.Triple{S: cur, P: rdf.NewIRI(rdf.RDFRest), O: next})
			cur = next
		}
		first = false
		obj, err := p.graphNode(acc)
		if err != nil {
			return rdf.Term{}, err
		}
		*acc = append(*acc, rdf.Triple{S: cur, P: rdf.NewIRI(rdf.RDFFirst), O: obj})
	}
	*acc = append(*acc, rdf.Triple{S: cur, P: rdf.NewIRI(rdf.RDFRest), O: rdf.NewIRI(rdf.RDFNil)})
	p.next()
	return head, nil
}

// inlineData parses a VALUES data block, in either form:
//
//	VALUES ?x { <v1> <v2> ... }
//	VALUES (?x ?y) { (<v1> "a") (UNDEF <v2>) ... }
//
// Row terms are ground (IRIs or literals) or UNDEF; UNDEF is represented
// as the zero Term.
func (p *parser) inlineData() (*InlineData, error) {
	p.next() // VALUES
	data := &InlineData{}
	single := false
	switch p.tok.Kind {
	case lex.Var:
		single = true
		data.Vars = []string{p.val()}
		p.next()
	case lex.LParen:
		p.next()
		for p.tok.Kind == lex.Var {
			data.Vars = append(data.Vars, p.val())
			p.next()
		}
		if err := p.expect(lex.RParen); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected variable or variable list after VALUES, found %s", p.tok)
	}
	if err := p.expect(lex.LBrace); err != nil {
		return nil, err
	}
	// The cells of every row go into one array, which the rows then
	// window, capped so that appending to one row cannot write into the
	// next.
	var cells []rdf.Term
	rows := 0
	for p.tok.Kind != lex.RBrace {
		if p.tok.Kind == lex.EOF {
			return nil, p.errf("unterminated VALUES block")
		}
		if single {
			t, err := p.dataTerm()
			if err != nil {
				return nil, err
			}
			cells = append(cells, t)
		} else {
			if err := p.expect(lex.LParen); err != nil {
				return nil, err
			}
			n := 0
			for p.tok.Kind != lex.RParen {
				if p.tok.Kind == lex.EOF {
					return nil, p.errf("unterminated VALUES row")
				}
				t, err := p.dataTerm()
				if err != nil {
					return nil, err
				}
				cells = append(cells, t)
				n++
			}
			p.next() // RParen
			if n != len(data.Vars) {
				return nil, p.errf("VALUES row has %d terms for %d variables", n, len(data.Vars))
			}
		}
		rows++
	}
	p.next() // RBrace
	if rows > 0 {
		w := len(data.Vars)
		data.Rows = make([][]rdf.Term, rows)
		for i := range data.Rows {
			data.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		}
	}
	return data, nil
}

// dataTerm parses one VALUES row entry: a ground term or UNDEF (returned
// as the zero Term). Variables and blank nodes are not data terms.
func (p *parser) dataTerm() (rdf.Term, error) {
	switch p.tok.Kind {
	case lex.IRIRef:
		t := rdf.NewIRI(p.iri())
		p.next()
		return t, nil
	case lex.PNameLN, lex.PNameNS:
		return p.pname()
	case lex.String:
		return p.literal()
	case lex.Integer, lex.Decimal, lex.Double:
		return p.number(), nil
	case lex.Ident:
		if strings.EqualFold(p.tok.Val, "UNDEF") {
			p.next()
			return rdf.Term{}, nil
		}
		if t, ok := p.boolean(); ok {
			return t, nil
		}
	}
	return rdf.Term{}, p.errf("expected VALUES data term, found %s", p.tok)
}

// ---- Expressions --------------------------------------------------------

// constraint parses the FILTER constraint production: a bracketted
// expression, builtin call, or extension function call.
func (p *parser) constraint() (Expression, error) {
	switch {
	case p.tok.Kind == lex.LParen:
		return p.brackettedExpression()
	case p.tok.Kind == lex.Ident:
		return p.builtinCall()
	case p.tok.Kind == lex.IRIRef || p.tok.Kind == lex.PNameLN:
		return p.iriOrFunction()
	}
	return nil, p.errf("expected FILTER constraint, found %s", p.tok)
}

func (p *parser) brackettedExpression() (Expression, error) {
	if err := p.expect(lex.LParen); err != nil {
		return nil, err
	}
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lex.RParen); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) expression() (Expression, error) { return p.orExpression() }

func (p *parser) orExpression() (Expression, error) {
	l, err := p.andExpression()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lex.OrOr {
		p.next()
		r, err := p.andExpression()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpression() (Expression, error) {
	l, err := p.relationalExpression()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lex.AndAnd {
		p.next()
		r, err := p.relationalExpression()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

var relOps = map[lex.Kind]string{
	lex.Eq: "=", lex.Neq: "!=", lex.Lt: "<", lex.Gt: ">", lex.Le: "<=", lex.Ge: ">=",
}

func (p *parser) relationalExpression() (Expression, error) {
	l, err := p.additiveExpression()
	if err != nil {
		return nil, err
	}
	if op, ok := relOps[p.tok.Kind]; ok {
		p.next()
		r, err := p.additiveExpression()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) additiveExpression() (Expression, error) {
	l, err := p.multiplicativeExpression()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lex.Plus || p.tok.Kind == lex.Minus {
		op := "+"
		if p.tok.Kind == lex.Minus {
			op = "-"
		}
		p.next()
		r, err := p.multiplicativeExpression()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) multiplicativeExpression() (Expression, error) {
	l, err := p.unaryExpression()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lex.Star || p.tok.Kind == lex.Slash {
		op := "*"
		if p.tok.Kind == lex.Slash {
			op = "/"
		}
		p.next()
		r, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpression() (Expression, error) {
	switch p.tok.Kind {
	case lex.Not:
		p.next()
		x, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	case lex.Minus:
		p.next()
		x, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case lex.Plus:
		p.next()
		x, err := p.unaryExpression()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "+", X: x}, nil
	}
	return p.primaryExpression()
}

// builtin is a SPARQL 1.0 built-in call: its upper-case name and arity.
type builtin struct {
	name     string
	min, max int
}

// builtins recognised by the parser, keyed by name; a call keeps the
// table's name, not the query text's spelling of it.
var builtins = map[string]builtin{}

func init() {
	for _, b := range []builtin{
		{"STR", 1, 1}, {"LANG", 1, 1}, {"LANGMATCHES", 2, 2}, {"DATATYPE", 1, 1},
		{"BOUND", 1, 1}, {"SAMETERM", 2, 2}, {"ISIRI", 1, 1}, {"ISURI", 1, 1},
		{"ISBLANK", 1, 1}, {"ISLITERAL", 1, 1}, {"REGEX", 2, 3},
	} {
		builtins[b.name] = b
	}
}

func (p *parser) builtinCall() (Expression, error) {
	sig, ok := builtins[strings.ToUpper(p.tok.Val)]
	if !ok {
		return nil, p.errf("unknown function %q", p.tok.Val)
	}
	name := sig.name
	p.next()
	if err := p.expect(lex.LParen); err != nil {
		return nil, err
	}
	var args []Expression
	if p.tok.Kind != lex.RParen {
		for {
			a, err := p.expression()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.tok.Kind != lex.Comma {
				break
			}
			p.next()
		}
	}
	if err := p.expect(lex.RParen); err != nil {
		return nil, err
	}
	if len(args) < sig.min || len(args) > sig.max {
		return nil, p.errf("%s takes %d..%d arguments, got %d", name, sig.min, sig.max, len(args))
	}
	return &Call{Name: name, Args: args}, nil
}

// iriOrFunction parses an IRI primary which may be an extension function
// call when followed by an argument list.
func (p *parser) iriOrFunction() (Expression, error) {
	var iri rdf.Term
	var err error
	if p.tok.Kind == lex.IRIRef {
		iri = rdf.NewIRI(p.iri())
		p.next()
	} else {
		iri, err = p.pname()
		if err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != lex.LParen {
		return &TermExpr{Term: iri}, nil
	}
	p.next()
	var args []Expression
	if p.tok.Kind != lex.RParen {
		for {
			a, err := p.expression()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.tok.Kind != lex.Comma {
				break
			}
			p.next()
		}
	}
	if err := p.expect(lex.RParen); err != nil {
		return nil, err
	}
	return &Call{Name: iri.Value, Args: args, IRIFunc: true}, nil
}

func (p *parser) primaryExpression() (Expression, error) {
	switch p.tok.Kind {
	case lex.LParen:
		return p.brackettedExpression()
	case lex.Var:
		t := rdf.NewVar(p.val())
		p.next()
		return &TermExpr{Term: t}, nil
	case lex.IRIRef, lex.PNameLN:
		return p.iriOrFunction()
	case lex.PNameNS:
		t, err := p.pname()
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term: t}, nil
	case lex.String:
		t, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &TermExpr{Term: t}, nil
	case lex.Integer, lex.Decimal, lex.Double:
		return &TermExpr{Term: p.number()}, nil
	case lex.Ident:
		if t, ok := p.boolean(); ok {
			return &TermExpr{Term: t}, nil
		}
		return p.builtinCall()
	}
	return nil, p.errf("expected expression, found %s", p.tok)
}

// ---- Solution modifiers --------------------------------------------------

func (p *parser) solutionModifiers(q *Query) error {
	if p.acceptKeyword("ORDER") {
		if !p.acceptKeyword("BY") {
			return p.errf("expected BY after ORDER")
		}
		for {
			oc, ok, err := p.orderCondition()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, oc)
		}
		if len(q.OrderBy) == 0 {
			return p.errf("ORDER BY requires at least one condition")
		}
	}
	// LIMIT and OFFSET may appear in either order.
	for {
		switch {
		case p.isKeyword("LIMIT"):
			p.next()
			n, err := p.integer()
			if err != nil {
				return err
			}
			q.Limit = n
		case p.isKeyword("OFFSET"):
			p.next()
			n, err := p.integer()
			if err != nil {
				return err
			}
			q.Offset = n
		default:
			return nil
		}
	}
}

func (p *parser) orderCondition() (OrderCondition, bool, error) {
	switch {
	case p.isKeyword("ASC"):
		p.next()
		e, err := p.brackettedExpression()
		if err != nil {
			return OrderCondition{}, false, err
		}
		return OrderCondition{Expr: e}, true, nil
	case p.isKeyword("DESC"):
		p.next()
		e, err := p.brackettedExpression()
		if err != nil {
			return OrderCondition{}, false, err
		}
		return OrderCondition{Expr: e, Desc: true}, true, nil
	case p.tok.Kind == lex.Var:
		e := &TermExpr{Term: rdf.NewVar(p.val())}
		p.next()
		return OrderCondition{Expr: e}, true, nil
	case p.tok.Kind == lex.LParen:
		e, err := p.brackettedExpression()
		if err != nil {
			return OrderCondition{}, false, err
		}
		return OrderCondition{Expr: e}, true, nil
	}
	return OrderCondition{}, false, nil
}

func (p *parser) integer() (int, error) {
	if p.tok.Kind != lex.Integer {
		return 0, p.errf("expected integer, found %s", p.tok)
	}
	n, err := strconv.Atoi(p.tok.Val)
	if err != nil {
		return 0, p.errf("bad integer %q", p.tok.Val)
	}
	p.next()
	return n, nil
}
