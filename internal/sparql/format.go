package sparql

import (
	"fmt"
	"strings"

	"sparqlrw/internal/rdf"
)

// Format serialises a query back to SPARQL concrete syntax. The output is
// deterministic and re-parseable; IRIs are shrunk to prefixed names using
// the query's own prefix map. This is the function that produces the
// Figure-3-style rewritten query text users see.
func Format(q *Query) string {
	var b strings.Builder
	pm := q.Prefixes
	if pm != nil {
		used := usedNamespaces(q, pm)
		var iri [128]byte // most namespaces render without an allocation
		for _, p := range pm.Prefixes() {
			ns, _ := pm.Namespace(p)
			if used[ns] {
				b.WriteString("PREFIX " + p + ": ")
				b.Write(rdf.AppendIRI(iri[:0], ns))
				b.WriteByte('\n')
			}
		}
	}
	switch q.Form {
	case Select:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if q.Reduced {
			b.WriteString("REDUCED ")
		}
		if q.SelectStar {
			b.WriteString("*")
		} else {
			for i, v := range q.SelectVars {
				if i > 0 {
					b.WriteString(" ")
				}
				b.WriteString("?" + v)
			}
		}
		b.WriteString("\n")
	case Ask:
		b.WriteString("ASK\n")
	case Construct:
		b.WriteString("CONSTRUCT {\n")
		for _, t := range q.Template {
			b.WriteString("  " + formatTriple(t, pm) + " .\n")
		}
		b.WriteString("}\n")
	case Describe:
		b.WriteString("DESCRIBE")
		for _, t := range q.DescribeTerms {
			b.WriteString(" " + formatTerm(t, pm))
		}
		b.WriteString("\n")
	}
	if q.Form != Describe || q.Where != nil {
		b.WriteString("WHERE ")
		formatGroup(&b, q.Where, pm, 0)
		b.WriteString("\n")
	}
	if len(q.OrderBy) > 0 {
		b.WriteString("ORDER BY")
		for _, oc := range q.OrderBy {
			if oc.Desc {
				b.WriteString(" DESC(" + FormatExpr(oc.Expr, pm) + ")")
			} else if te, ok := oc.Expr.(*TermExpr); ok && te.Term.IsVar() {
				b.WriteString(" ?" + te.Term.Value)
			} else {
				b.WriteString(" ASC(" + FormatExpr(oc.Expr, pm) + ")")
			}
		}
		b.WriteString("\n")
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, "LIMIT %d\n", q.Limit)
	}
	if q.Offset >= 0 {
		fmt.Fprintf(&b, "OFFSET %d\n", q.Offset)
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
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

func usedNamespaces(q *Query, pm *rdf.PrefixMap) map[string]bool {
	used := map[string]bool{}
	note := func(t rdf.Term) {
		switch t.Kind {
		case rdf.KindIRI:
			noteIRI(t.Value, pm, used)
		case rdf.KindLiteral:
			if t.Datatype != "" && t.Datatype != rdf.XSDString {
				noteIRI(t.Datatype, pm, used)
			}
		}
	}
	for _, t := range q.Template {
		note(t.S)
		note(t.P)
		note(t.O)
	}
	for _, t := range q.DescribeTerms {
		note(t)
	}
	Walk(q.Where, func(el GroupElement) {
		switch e := el.(type) {
		case *BGP:
			for _, t := range e.Patterns {
				note(t.S)
				note(t.P)
				note(t.O)
			}
		case *Filter:
			for _, t := range ExprTerms(e.Expr) {
				note(t)
			}
		case *InlineData:
			for _, row := range e.Rows {
				for _, t := range row {
					note(t)
				}
			}
		}
	})
	for _, oc := range q.OrderBy {
		for _, t := range ExprTerms(oc.Expr) {
			note(t)
		}
	}
	return used
}

func noteIRI(iri string, pm *rdf.PrefixMap, used map[string]bool) {
	if q, ok := pm.Shrink(iri); ok {
		ns, _ := pm.Namespace(q[:strings.Index(q, ":")])
		used[ns] = true
	}
}

func indent(n int) string { return strings.Repeat("  ", n) }

func formatGroup(b *strings.Builder, g *GroupGraphPattern, pm *rdf.PrefixMap, depth int) {
	b.WriteString("{\n")
	inner := depth + 1
	if g != nil {
		for _, el := range g.Elements {
			switch e := el.(type) {
			case *BGP:
				for _, t := range e.Patterns {
					b.WriteString(indent(inner) + formatTriple(t, pm) + " .\n")
				}
			case *Filter:
				b.WriteString(indent(inner) + "FILTER (" + FormatExpr(e.Expr, pm) + ")\n")
			case *Optional:
				b.WriteString(indent(inner) + "OPTIONAL ")
				formatGroup(b, e.Group, pm, inner)
				b.WriteString("\n")
			case *SubGroup:
				b.WriteString(indent(inner))
				formatGroup(b, e.Group, pm, inner)
				b.WriteString("\n")
			case *Union:
				b.WriteString(indent(inner))
				for i, alt := range e.Alternatives {
					if i > 0 {
						b.WriteString(" UNION ")
					}
					formatGroup(b, alt, pm, inner)
				}
				b.WriteString("\n")
			case *InlineData:
				formatInlineData(b, e, pm, inner)
			}
		}
	}
	b.WriteString(indent(depth) + "}")
}

// formatInlineData writes a VALUES block in the full (parenthesised) row
// form, which is valid for any arity and re-parses to an identical tree.
func formatInlineData(b *strings.Builder, d *InlineData, pm *rdf.PrefixMap, depth int) {
	b.WriteString(indent(depth) + "VALUES (")
	for i, v := range d.Vars {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("?" + v)
	}
	b.WriteString(") {\n")
	for _, row := range d.Rows {
		b.WriteString(indent(depth+1) + "(")
		for i, t := range row {
			if i > 0 {
				b.WriteString(" ")
			}
			if t.Kind == rdf.KindAny {
				b.WriteString("UNDEF")
			} else {
				b.WriteString(formatTerm(t, pm))
			}
		}
		b.WriteString(")\n")
	}
	b.WriteString(indent(depth) + "}\n")
}

func formatTriple(t rdf.Triple, pm *rdf.PrefixMap) string {
	return formatTerm(t.S, pm) + " " + formatVerbTerm(t.P, pm) + " " + formatTerm(t.O, pm)
}

// FormatTriplePattern serialises one triple pattern in query syntax
// (QName-shrunk through pm when possible), for diagnostics and explain
// output.
func FormatTriplePattern(t rdf.Triple, pm *rdf.PrefixMap) string {
	return formatTriple(t, pm)
}

func formatVerbTerm(t rdf.Term, pm *rdf.PrefixMap) string {
	if t.Kind == rdf.KindIRI && t.Value == rdf.RDFType {
		return "a"
	}
	return formatTerm(t, pm)
}

func formatTerm(t rdf.Term, pm *rdf.PrefixMap) string {
	if pm == nil {
		return t.String()
	}
	switch t.Kind {
	case rdf.KindIRI:
		if q, ok := pm.Shrink(t.Value); ok {
			return q
		}
	case rdf.KindLiteral:
		if t.Lang == "" && t.Datatype != "" && t.Datatype != rdf.XSDString {
			if q, ok := pm.Shrink(t.Datatype); ok {
				return rdf.NewLiteral(t.Value).String() + "^^" + q
			}
		}
	}
	return t.String()
}

// FormatExpr serialises an expression with explicit grouping parentheses so
// the output re-parses to an identical tree regardless of precedence.
func FormatExpr(e Expression, pm *rdf.PrefixMap) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *TermExpr:
		return formatTerm(x.Term, pm)
	case *Unary:
		return x.Op + "(" + FormatExpr(x.X, pm) + ")"
	case *Binary:
		return "(" + FormatExpr(x.L, pm) + " " + x.Op + " " + FormatExpr(x.R, pm) + ")"
	case *Call:
		var args []string
		for _, a := range x.Args {
			args = append(args, FormatExpr(a, pm))
		}
		name := x.Name
		if x.IRIFunc {
			if pm != nil {
				if q, ok := pm.Shrink(name); ok {
					return q + "(" + strings.Join(args, ", ") + ")"
				}
			}
			return rdf.NewIRI(name).String() + "(" + strings.Join(args, ", ") + ")"
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	default:
		return fmt.Sprintf("!unknown-expr(%T)", e)
	}
}
