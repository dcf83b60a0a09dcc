package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sparqlrw/internal/rdf"
)

// Format serialises a query back to SPARQL concrete syntax. The output is
// deterministic and re-parseable; IRIs are shrunk to prefixed names using
// the query's own prefix map. This is the function that produces the
// Figure-3-style rewritten query text users see.
func Format(q *Query) string {
	f := newFormatter(q.Prefixes, nil)
	f.query(q)
	return f.text(false)
}

// AppendKey appends a key of q to dst: its text with every IRI in full
// and no prologue, each term of its basic graph patterns and VALUES rows
// written as canon maps it. Two queries get one key exactly when they
// differ only in prefix declarations and in terms canon identifies there,
// so a cache keyed by it needs no clone of the query to canonicalise and
// no second rendering.
func AppendKey(dst []byte, q *Query, canon func(rdf.Term) rdf.Term) []byte {
	f := formatter{body: dst, canon: canon}
	f.query(q)
	return f.body
}

// MarshalText renders the query as its text, so a document that carries a
// parsed query (a federation plan, a decomposition) serialises it when the
// document is marshalled and not before.
func (q *Query) MarshalText() ([]byte, error) { return []byte(Format(q)), nil }

// UnmarshalText is MarshalText's inverse: it parses the text into q.
func (q *Query) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*q = *parsed
	return nil
}

// formatter writes a query's text: the body into body, the prologue, which
// declares only the prefixes the body uses, when the body is done. With a
// slot function it also leaves holes (see Template): a term slot claims is
// written as its slot token and recorded, and does not count towards the
// prologue, since the value that fills the hole decides that.
type formatter struct {
	pm       *rdf.PrefixMap
	prefixes []string // pm's prefixes, sorted: the prologue's order
	used     []bool   // used[i]: a written term shrinks into prefixes[i]
	body     []byte
	// slot reports which slot the term at t stands for; liftable says t
	// is at a position Lift lifts (see Lift).
	slot  func(t *rdf.Term, liftable bool) (int, bool)
	holes []hole
	// canon, when set, maps each term of a basic graph pattern or a VALUES
	// row before it is written, into mapped (see AppendKey).
	canon  func(rdf.Term) rdf.Term
	mapped rdf.Triple
}

// hole is one slot occurrence in a formatter's body: its token spans
// body[at:end]; verb marks the predicate position, where rdf:type is "a".
type hole struct {
	slot    int
	verb    bool
	at, end int
}

func newFormatter(pm *rdf.PrefixMap, slot func(*rdf.Term, bool) (int, bool)) *formatter {
	f := &formatter{pm: pm, slot: slot, body: make([]byte, 0, 512)}
	if pm != nil {
		f.prefixes = pm.Prefixes()
		f.used = make([]bool, len(f.prefixes))
	}
	return f
}

// text returns the prologue and the body: the prologue declares every
// prefix when all is set, else the used ones.
// The body ends in one newline, which text trims off the body.
func (f *formatter) text(all bool) string {
	for len(f.body) > 0 && f.body[len(f.body)-1] == '\n' {
		f.body = f.body[:len(f.body)-1]
	}
	var b strings.Builder
	b.Grow(len(f.body) + 1 + 64*len(f.prefixes))
	writePrologue(&b, f.pm, f.prefixes, func(i int) bool { return all || f.used[i] })
	b.Write(f.body)
	b.WriteByte('\n')
	return b.String()
}

// writePrologue writes one PREFIX line per prefix that use accepts.
func writePrologue(b *strings.Builder, pm *rdf.PrefixMap, prefixes []string, use func(i int) bool) {
	var iri [128]byte // most namespaces render without an allocation
	for i, p := range prefixes {
		if use(i) {
			ns, _ := pm.Namespace(p)
			b.WriteString("PREFIX ")
			b.WriteString(p)
			b.WriteString(": ")
			b.Write(rdf.AppendIRI(iri[:0], ns))
			b.WriteByte('\n')
		}
	}
}

func (f *formatter) str(s string) { f.body = append(f.body, s...) }

func (f *formatter) indent(n int) {
	for ; n > 0; n-- {
		f.str("  ")
	}
}

func (f *formatter) query(q *Query) {
	switch q.Form {
	case Select:
		f.str("SELECT ")
		if q.Distinct {
			f.str("DISTINCT ")
		}
		if q.Reduced {
			f.str("REDUCED ")
		}
		if q.SelectStar {
			f.str("*")
		} else {
			for i, v := range q.SelectVars {
				if i > 0 {
					f.str(" ")
				}
				f.str("?")
				f.str(v)
			}
		}
		f.str("\n")
	case Ask:
		f.str("ASK\n")
	case Construct:
		f.str("CONSTRUCT {\n")
		for i := range q.Template {
			f.str("  ")
			f.triple(&q.Template[i], false)
			f.str(" .\n")
		}
		f.str("}\n")
	case Describe:
		f.str("DESCRIBE")
		for i := range q.DescribeTerms {
			f.str(" ")
			f.term(&q.DescribeTerms[i], true, false)
		}
		f.str("\n")
	}
	// A template or resource list the form does not write still declares
	// its prefixes.
	if q.Form != Construct {
		for _, t := range q.Template {
			f.note(t.S)
			f.note(t.P)
			f.note(t.O)
		}
	}
	if q.Form != Describe {
		for _, t := range q.DescribeTerms {
			f.note(t)
		}
	}
	if q.Form != Describe || q.Where != nil {
		f.str("WHERE ")
		f.group(q.Where, 0)
		f.str("\n")
	}
	if len(q.OrderBy) > 0 {
		f.str("ORDER BY")
		for _, oc := range q.OrderBy {
			if oc.Desc {
				f.str(" DESC(")
				f.expr(oc.Expr, false)
				f.str(")")
			} else if te, ok := oc.Expr.(*TermExpr); ok && te.Term.IsVar() {
				f.str(" ?")
				f.str(te.Term.Value)
			} else {
				f.str(" ASC(")
				f.expr(oc.Expr, false)
				f.str(")")
			}
		}
		f.str("\n")
	}
	if q.Limit >= 0 {
		f.str("LIMIT ")
		f.body = strconv.AppendInt(f.body, int64(q.Limit), 10)
		f.str("\n")
	}
	if q.Offset >= 0 {
		f.str("OFFSET ")
		f.body = strconv.AppendInt(f.body, int64(q.Offset), 10)
		f.str("\n")
	}
}

func (f *formatter) group(g *GroupGraphPattern, depth int) {
	f.str("{\n")
	inner := depth + 1
	if g != nil {
		for _, el := range g.Elements {
			switch e := el.(type) {
			case *BGP:
				for i := range e.Patterns {
					f.indent(inner)
					t := &e.Patterns[i]
					if f.canon != nil {
						f.mapped = rdf.Triple{S: f.canon(t.S), P: f.canon(t.P), O: f.canon(t.O)}
						t = &f.mapped
					}
					f.triple(t, true)
					f.str(" .\n")
				}
			case *Filter:
				f.indent(inner)
				f.str("FILTER (")
				f.expr(e.Expr, true)
				f.str(")\n")
			case *Optional:
				f.indent(inner)
				f.str("OPTIONAL ")
				f.group(e.Group, inner)
				f.str("\n")
			case *SubGroup:
				f.indent(inner)
				f.group(e.Group, inner)
				f.str("\n")
			case *Union:
				f.indent(inner)
				for i, alt := range e.Alternatives {
					if i > 0 {
						f.str(" UNION ")
					}
					f.group(alt, inner)
				}
				f.str("\n")
			case *InlineData:
				f.inlineData(e, inner)
			}
		}
	}
	f.indent(depth)
	f.str("}")
}

// inlineData writes a VALUES block in the full (parenthesised) row form,
// which is valid for any arity and re-parses to an identical tree.
func (f *formatter) inlineData(d *InlineData, depth int) {
	f.indent(depth)
	f.str("VALUES (")
	for i, v := range d.Vars {
		if i > 0 {
			f.str(" ")
		}
		f.str("?")
		f.str(v)
	}
	f.str(") {\n")
	for _, row := range d.Rows {
		f.indent(depth + 1)
		f.str("(")
		for i := range row {
			if i > 0 {
				f.str(" ")
			}
			switch {
			case row[i].Kind == rdf.KindAny:
				f.str("UNDEF")
			case f.canon != nil:
				f.mapped.S = f.canon(row[i])
				f.term(&f.mapped.S, true, false)
			default:
				f.term(&row[i], true, false)
			}
		}
		f.str(")\n")
	}
	f.indent(depth)
	f.str("}\n")
}

// triple writes a triple pattern; in a WHERE clause (liftable) its
// subject is a lifted position, and its object too unless the predicate
// is rdf:type.
func (f *formatter) triple(t *rdf.Triple, liftable bool) {
	f.term(&t.S, liftable, false)
	f.str(" ")
	f.term(&t.P, false, true)
	f.str(" ")
	f.term(&t.O, liftable && !(t.P.Kind == rdf.KindIRI && t.P.Value == rdf.RDFType), false)
}

// term writes one term, or the hole of the slot it stands for.
func (f *formatter) term(t *rdf.Term, liftable, verb bool) {
	if f.slot != nil {
		if i, ok := f.slot(t, liftable); ok {
			at := len(f.body)
			f.body = appendSlotToken(f.body, i)
			f.holes = append(f.holes, hole{slot: i, verb: verb, at: at, end: len(f.body)})
			return
		}
	}
	f.note(*t)
	f.body = appendTerm(f.body, f.pm, *t, verb)
}

// note records the prefix a term declares: the namespace its IRI, or its
// literal's datatype, shrinks into.
func (f *formatter) note(t rdf.Term) {
	if f.used == nil {
		return
	}
	if p, ok := termPrefix(f.pm, t); ok {
		markUsed(f.used, f.pm, f.prefixes, p)
	}
}

// markUsed marks prefix p used, and with it every prefix bound to the
// same namespace: the prologue declares namespaces.
func markUsed(used []bool, pm *rdf.PrefixMap, prefixes []string, p string) {
	if used[sort.SearchStrings(prefixes, p)] {
		return
	}
	ns, _ := pm.Namespace(p)
	for i, q := range prefixes {
		if other, _ := pm.Namespace(q); other == ns {
			used[i] = true
		}
	}
}

// termPrefix returns the prefix the term makes its text declare.
func termPrefix(pm *rdf.PrefixMap, t rdf.Term) (string, bool) {
	if pm == nil {
		return "", false
	}
	iri := t.Value
	switch t.Kind {
	case rdf.KindIRI:
	case rdf.KindLiteral:
		if t.Datatype == "" || t.Datatype == rdf.XSDString {
			return "", false
		}
		iri = t.Datatype
	default:
		return "", false
	}
	p, _, ok := pm.Split(iri)
	return p, ok
}

// appendTerm appends a term as Format writes it: IRIs and datatypes
// shrunk through pm when they can be, rdf:type as "a" in the predicate
// position.
func appendTerm(dst []byte, pm *rdf.PrefixMap, t rdf.Term, verb bool) []byte {
	if verb && t.Kind == rdf.KindIRI && t.Value == rdf.RDFType {
		return append(dst, 'a')
	}
	if pm != nil {
		switch t.Kind {
		case rdf.KindIRI:
			if p, local, ok := pm.Split(t.Value); ok {
				return append(append(append(dst, p...), ':'), local...)
			}
		case rdf.KindLiteral:
			if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
				if p, local, ok := pm.Split(t.Datatype); ok {
					dst = append(dst, rdf.NewLiteral(t.Value).String()...)
					return append(append(append(append(dst, "^^"...), p...), ':'), local...)
				}
			}
		}
	}
	switch t.Kind {
	case rdf.KindIRI:
		return rdf.AppendIRI(dst, t.Value)
	case rdf.KindVar:
		return append(append(dst, '?'), t.Value...)
	case rdf.KindBlank:
		return append(append(dst, "_:"...), t.Value...)
	}
	return append(dst, t.String()...)
}

// FormatTriplePattern serialises one triple pattern in query syntax
// (QName-shrunk through pm when possible), for diagnostics and explain
// output.
func FormatTriplePattern(t rdf.Triple, pm *rdf.PrefixMap) string {
	var buf [256]byte
	b := appendTerm(buf[:0], pm, t.S, false)
	b = appendTerm(append(b, ' '), pm, t.P, true)
	b = appendTerm(append(b, ' '), pm, t.O, false)
	return string(b)
}

// FormatExpr serialises an expression with explicit grouping parentheses so
// the output re-parses to an identical tree regardless of precedence.
func FormatExpr(e Expression, pm *rdf.PrefixMap) string {
	var buf [256]byte
	f := formatter{pm: pm, body: buf[:0]}
	f.expr(e, false)
	return string(f.body)
}

// expr writes an expression; liftable says its constants are at lifted
// positions (a FILTER's are, an ORDER BY's are not).
func (f *formatter) expr(e Expression, liftable bool) {
	switch x := e.(type) {
	case nil:
	case *TermExpr:
		f.term(&x.Term, liftable, false)
	case *Unary:
		f.str(x.Op)
		f.str("(")
		f.expr(x.X, liftable)
		f.str(")")
	case *Binary:
		f.str("(")
		f.expr(x.L, liftable)
		f.str(" ")
		f.str(x.Op)
		f.str(" ")
		f.expr(x.R, liftable)
		f.str(")")
	case *Call:
		switch {
		case !x.IRIFunc:
			f.str(x.Name)
		case f.pm != nil:
			// The function's namespace is not declared: the prologue
			// only covers terms.
			f.body = appendTerm(f.body, f.pm, rdf.NewIRI(x.Name), false)
		default:
			f.body = rdf.AppendIRI(f.body, x.Name)
		}
		f.str("(")
		for i, a := range x.Args {
			if i > 0 {
				f.str(", ")
			}
			f.expr(a, liftable)
		}
		f.str(")")
	default:
		f.str(fmt.Sprintf("!unknown-expr(%T)", e))
	}
}
