package sparql

import (
	"strconv"
	"strings"

	"sparqlrw/internal/rdf"
)

// A query's shape is the query with its instance terms taken out: every
// ground IRI at a lifted position — a WHERE triple pattern's subject, its
// object unless the predicate is rdf:type, a FILTER constant, a VALUES
// cell, a DESCRIBE resource — replaced by a numbered slot, equal IRIs
// sharing one. Predicates, classes and everything else stay, so queries
// that differ only in the instances they ask about share a shape, and a
// rewrite of the shape serves each of them once their own terms are put
// back (internal/core's Template).

// Slot returns the term that stands for slot i: the variable "$i", which
// formats as "?$i". No parsed query holds it, since a variable name is
// made of letters, digits and '_', so a slot cannot be confused with a
// user's variable, and a shape's text with no query's own.
func Slot(i int) rdf.Term { return rdf.NewVar("$" + strconv.Itoa(i)) }

// SlotIndex reports which slot t stands for.
func SlotIndex(t rdf.Term) (int, bool) {
	if t.Kind != rdf.KindVar || len(t.Value) < 2 || t.Value[0] != '$' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(t.Value); i++ {
		c := t.Value[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func appendSlotToken(dst []byte, i int) []byte {
	return strconv.AppendInt(append(dst, "?$"...), int64(i), 10)
}

// A Template is a query's text with holes where its slots stand: Execute
// fills each hole with a term, formatted as Format would format the query
// holding that term. The prologue is made at Execute, since the terms
// decide which prefixes it declares.
type Template struct {
	// key is the text with every hole's slot token in place, under a
	// prologue that declares every prefix binding; the body starts at
	// key[body:], and holes index key.
	key      string
	body     int
	pm       *rdf.PrefixMap
	prefixes []string
	used     []bool // the prefixes the text outside the holes uses
	holes    []hole
}

// Key returns the template's text with its slot tokens in place and every
// prefix binding declared, used or not: two queries with the same Key
// format alike once their slots are filled alike, so the rewrite-plan
// cache keys shapes on it.
func (t *Template) Key() string { return t.key }

func (f *formatter) template() *Template {
	key := f.text(true)
	body := len(key) - len(f.body) - 1
	for i := range f.holes {
		f.holes[i].at += body
		f.holes[i].end += body
	}
	return &Template{key: key, body: body, pm: f.pm, prefixes: f.prefixes, used: f.used, holes: f.holes}
}

// Lift formats q's shape: it returns the shape's template and the slot
// values, slots[i] being the IRI slot i took the place of, so that
// tmpl.Execute(slots) == Format(q). q is not modified.
func Lift(q *Query) (tmpl *Template, slots []rdf.Term) {
	f := newFormatter(q.Prefixes, lifter(&slots, false))
	f.query(q)
	return f.template(), slots
}

// EachLifted calls fn with a pointer to every IRI at a lifted position of
// q, in the order Lift gives them slots (an IRI appearing twice is visited
// twice); fn may replace the term. It allocates nothing, so a caller can
// test q's instances before deciding to copy it.
func EachLifted(q *Query, fn func(t *rdf.Term)) {
	visit := func(t *rdf.Term) {
		if t.Kind == rdf.KindIRI {
			fn(t)
		}
	}
	if q.Form == Describe {
		for i := range q.DescribeTerms {
			visit(&q.DescribeTerms[i])
		}
	}
	eachLiftedGroup(q.Where, visit)
}

func eachLiftedGroup(g *GroupGraphPattern, visit func(*rdf.Term)) {
	if g == nil {
		return
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case *BGP:
			for i := range e.Patterns {
				tp := &e.Patterns[i]
				visit(&tp.S)
				if !(tp.P.Kind == rdf.KindIRI && tp.P.Value == rdf.RDFType) {
					visit(&tp.O)
				}
			}
		case *Filter:
			eachLiftedExpr(e.Expr, visit)
		case *Optional:
			eachLiftedGroup(e.Group, visit)
		case *SubGroup:
			eachLiftedGroup(e.Group, visit)
		case *Union:
			for _, alt := range e.Alternatives {
				eachLiftedGroup(alt, visit)
			}
		case *InlineData:
			for _, row := range e.Rows {
				for i := range row {
					visit(&row[i])
				}
			}
		}
	}
}

func eachLiftedExpr(e Expression, visit func(*rdf.Term)) {
	switch x := e.(type) {
	case *TermExpr:
		visit(&x.Term)
	case *Binary:
		eachLiftedExpr(x.L, visit)
		eachLiftedExpr(x.R, visit)
	case *Unary:
		eachLiftedExpr(x.X, visit)
	case *Call:
		for _, a := range x.Args {
			eachLiftedExpr(a, visit)
		}
	}
}

// LiftQuery returns the shape Lift formats as a query: a copy of q with
// its slots in place.
func LiftQuery(q *Query) *Query {
	c := q.Clone()
	var slots []rdf.Term
	newFormatter(c.Prefixes, lifter(&slots, true)).query(c)
	return c
}

// lifter is the formatter's slot function for Lift: it gives each
// distinct IRI at a lifted position a slot, in order of appearance, and
// with replace writes the slot into the query.
func lifter(slots *[]rdf.Term, replace bool) func(*rdf.Term, bool) (int, bool) {
	return func(t *rdf.Term, liftable bool) (int, bool) {
		if !liftable || t.Kind != rdf.KindIRI {
			return 0, false
		}
		i := 0
		for i < len(*slots) && (*slots)[i] != *t {
			i++
		}
		if i == len(*slots) {
			*slots = append(*slots, *t)
		}
		if replace {
			*t = Slot(i)
		}
		return i, true
	}
}

// FormatTemplate formats a query that holds slots (a rewritten shape) into
// a template with a hole at each slot, wherever it stands.
func FormatTemplate(q *Query) *Template {
	f := newFormatter(q.Prefixes, func(t *rdf.Term, _ bool) (int, bool) { return SlotIndex(*t) })
	f.query(q)
	return f.template()
}

// Execute returns the template's query text with each hole filled by the
// value of its slot: Format of the query with values[i] in place of slot
// i.
func (t *Template) Execute(values []rdf.Term) string {
	var small [64]bool
	used := small[:0]
	if len(t.prefixes) > len(small) {
		used = make([]bool, 0, len(t.prefixes))
	}
	used = append(used, t.used...)
	size := len(t.key)
	for _, h := range t.holes {
		v := values[h.slot]
		if p, ok := termPrefix(t.pm, v); ok {
			markUsed(used, t.pm, t.prefixes, p)
		}
		size += len(v.Value) + len(v.Datatype) + len(v.Lang) + 8
	}
	var b strings.Builder
	b.Grow(size)
	writePrologue(&b, t.pm, t.prefixes, func(i int) bool { return used[i] })
	var term [128]byte // most terms render without an allocation
	at := t.body
	for _, h := range t.holes {
		b.WriteString(t.key[at:h.at])
		b.Write(appendTerm(term[:0], t.pm, values[h.slot], h.verb))
		at = h.end
	}
	b.WriteString(t.key[at:])
	return b.String()
}
