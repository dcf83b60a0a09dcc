package eval

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// errExpr marks SPARQL expression evaluation errors; per the SPARQL
// three-valued logic an error is neither true nor false and FILTER treats
// it as a failed constraint.
var errExpr = errors.New("sparql expression error")

func exprErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errExpr, fmt.Sprintf(format, args...))
}

// FuncResolver resolves an extension function IRI to an implementation; nil
// or a miss makes calls to that IRI evaluate to an error (SPARQL's
// behaviour for unknown functions).
type FuncResolver func(iri string) (func(args []rdf.Term) (rdf.Term, error), bool)

// Bindings is what expressions (and CONSTRUCT templates) read variables
// through: a Solution at the package boundary, a frame over the current
// row inside the evaluator, a RowBindings over a mediator row. The key is
// a binding key (see bindingKey).
type Bindings interface {
	lookup(key string) (rdf.Term, bool)
}

// RowBindings reads a positional row by variable name, Row[i] binding
// Vars[i]: the view the templates of the mediator's CONSTRUCT streams and
// of the view builds take of their rows. Slot tables there are a handful
// of names, so the lookup is a scan.
type RowBindings struct {
	Vars []string
	Row  Row
}

func (b *RowBindings) lookup(key string) (rdf.Term, bool) {
	for i, v := range b.Vars {
		if v == key {
			return b.Row[i], b.Row[i].Kind != rdf.KindAny
		}
	}
	return rdf.Term{}, false
}

// evalExpr evaluates an expression under a set of bindings, returning an
// RDF term or an error (errors encode SPARQL's "type error" outcomes).
func evalExpr(e sparql.Expression, sol Bindings, funcs FuncResolver) (rdf.Term, error) {
	switch x := e.(type) {
	case *sparql.TermExpr:
		t := x.Term
		if key, bindable := bindingKey(t); bindable {
			if v, ok := sol.lookup(key); ok {
				return v, nil
			}
			return rdf.Term{}, exprErrf("unbound variable ?%s", key)
		}
		return t, nil
	case *sparql.Unary:
		return evalUnary(x, sol, funcs)
	case *sparql.Binary:
		return evalBinary(x, sol, funcs)
	case *sparql.Call:
		return evalCall(x, sol, funcs)
	default:
		return rdf.Term{}, exprErrf("unknown expression node %T", e)
	}
}

// EBV computes the SPARQL effective boolean value of a term.
func EBV(t rdf.Term) (bool, error) {
	if t.Kind != rdf.KindLiteral {
		return false, exprErrf("EBV of non-literal %s", t)
	}
	if t.Datatype == rdf.XSDBoolean {
		b, ok := t.Bool()
		if !ok {
			return false, exprErrf("malformed boolean %q", t.Value)
		}
		return b, nil
	}
	if t.IsNumericLiteral() {
		f, ok := t.Float()
		if !ok {
			return false, exprErrf("malformed numeric %q", t.Value)
		}
		return f != 0, nil
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString {
		return t.Value != "", nil
	}
	return false, exprErrf("EBV undefined for datatype %s", t.Datatype)
}

// evalBool evaluates an expression to its effective boolean value.
func evalBool(e sparql.Expression, sol Bindings, funcs FuncResolver) (bool, error) {
	t, err := evalExpr(e, sol, funcs)
	if err != nil {
		return false, err
	}
	return EBV(t)
}

func evalUnary(x *sparql.Unary, sol Bindings, funcs FuncResolver) (rdf.Term, error) {
	switch x.Op {
	case "!":
		b, err := evalBool(x.X, sol, funcs)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!b), nil
	case "-", "+":
		v, err := evalExpr(x.X, sol, funcs)
		if err != nil {
			return rdf.Term{}, err
		}
		f, ok := v.Float()
		if !ok {
			return rdf.Term{}, exprErrf("unary %s on non-numeric %s", x.Op, v)
		}
		if x.Op == "-" {
			f = -f
		}
		return numericResult(f, v, v), nil
	default:
		return rdf.Term{}, exprErrf("unknown unary operator %q", x.Op)
	}
}

func evalBinary(x *sparql.Binary, sol Bindings, funcs FuncResolver) (rdf.Term, error) {
	switch x.Op {
	case "||":
		lb, lerr := evalBool(x.L, sol, funcs)
		rb, rerr := evalBool(x.R, sol, funcs)
		// SPARQL 3-valued OR: true wins over error.
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lb || rb), nil
		case lerr == nil && lb:
			return rdf.NewBoolean(true), nil
		case rerr == nil && rb:
			return rdf.NewBoolean(true), nil
		case lerr != nil:
			return rdf.Term{}, lerr
		default:
			return rdf.Term{}, rerr
		}
	case "&&":
		lb, lerr := evalBool(x.L, sol, funcs)
		rb, rerr := evalBool(x.R, sol, funcs)
		// SPARQL 3-valued AND: false wins over error.
		switch {
		case lerr == nil && rerr == nil:
			return rdf.NewBoolean(lb && rb), nil
		case lerr == nil && !lb:
			return rdf.NewBoolean(false), nil
		case rerr == nil && !rb:
			return rdf.NewBoolean(false), nil
		case lerr != nil:
			return rdf.Term{}, lerr
		default:
			return rdf.Term{}, rerr
		}
	}
	l, err := evalExpr(x.L, sol, funcs)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := evalExpr(x.R, sol, funcs)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return rdf.NewBoolean(eq), nil
	case "<", ">", "<=", ">=":
		c, err := compareOrdered(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		var b bool
		switch x.Op {
		case "<":
			b = c < 0
		case ">":
			b = c > 0
		case "<=":
			b = c <= 0
		case ">=":
			b = c >= 0
		}
		return rdf.NewBoolean(b), nil
	case "+", "-", "*", "/":
		lf, lok := l.Float()
		rf, rok := r.Float()
		if !lok || !rok {
			return rdf.Term{}, exprErrf("arithmetic on non-numeric operands %s, %s", l, r)
		}
		var f float64
		switch x.Op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, exprErrf("division by zero")
			}
			f = lf / rf
		}
		if x.Op == "/" {
			// xsd:integer / xsd:integer yields xsd:decimal per SPARQL.
			if _, li := l.Int(); li {
				if _, ri := r.Int(); ri {
					return rdf.NewDecimal(f), nil
				}
			}
		}
		return numericResult(f, l, r), nil
	default:
		return rdf.Term{}, exprErrf("unknown operator %q", x.Op)
	}
}

// numericResult picks a result datatype by numeric promotion: integer op
// integer stays integer (when the value is integral), anything involving
// double stays double, otherwise decimal.
func numericResult(f float64, l, r rdf.Term) rdf.Term {
	if l.Datatype == rdf.XSDDouble || r.Datatype == rdf.XSDDouble ||
		l.Datatype == rdf.XSDFloat || r.Datatype == rdf.XSDFloat {
		return rdf.NewDouble(f)
	}
	_, li := l.Int()
	_, ri := r.Int()
	if li && ri && f == float64(int64(f)) {
		return rdf.NewInteger(int64(f))
	}
	return rdf.NewDecimal(f)
}

// termsEqual implements SPARQL "=": numeric comparison for numerics,
// simple-literal/string comparison, boolean comparison, and term identity
// for IRIs and blank nodes. Comparing literals of unknown datatypes with
// different lexical forms is an error per the spec; we compare by term
// identity and error only on incompatible datatype pairs.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l.IsNumericLiteral() && r.IsNumericLiteral() {
		lf, _ := l.Float()
		rf, _ := r.Float()
		return lf == rf, nil
	}
	if l == r {
		return true, nil
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		lb, lok := l.Bool()
		rb, rok := r.Bool()
		if lok && rok {
			return lb == rb, nil
		}
		lPlain := l.Lang == "" && (l.Datatype == "" || l.Datatype == rdf.XSDString)
		rPlain := r.Lang == "" && (r.Datatype == "" || r.Datatype == rdf.XSDString)
		if lPlain && rPlain {
			return l.Value == r.Value, nil
		}
		// distinct datatypes with distinct lexical forms: unknown
		if l.Datatype != r.Datatype {
			return false, exprErrf("incomparable literals %s and %s", l, r)
		}
		return false, nil
	}
	return false, nil
}

// compareOrdered implements <, >, <=, >= for numerics, strings, booleans
// and (by codepoint order) IRIs — the latter being an implementation
// extension that keeps ORDER BY total.
func compareOrdered(l, r rdf.Term) (int, error) {
	if l.IsNumericLiteral() && r.IsNumericLiteral() {
		lf, _ := l.Float()
		rf, _ := r.Float()
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if l.Kind == rdf.KindLiteral && r.Kind == rdf.KindLiteral {
		lb, lok := l.Bool()
		rb, rok := r.Bool()
		if lok && rok {
			switch {
			case lb == rb:
				return 0, nil
			case !lb:
				return -1, nil
			default:
				return 1, nil
			}
		}
		lStr := l.Lang == "" && (l.Datatype == "" || l.Datatype == rdf.XSDString)
		rStr := r.Lang == "" && (r.Datatype == "" || r.Datatype == rdf.XSDString)
		if lStr && rStr {
			return strings.Compare(l.Value, r.Value), nil
		}
		if l.Datatype == r.Datatype && l.Lang == r.Lang {
			// dateTime and friends order correctly lexicographically in
			// the common same-timezone case; good enough for our data.
			return strings.Compare(l.Value, r.Value), nil
		}
		return 0, exprErrf("incomparable literals %s and %s", l, r)
	}
	return 0, exprErrf("ordering undefined between %s and %s", l, r)
}

func evalCall(x *sparql.Call, sol Bindings, funcs FuncResolver) (rdf.Term, error) {
	if x.IRIFunc {
		if funcs != nil {
			if fn, ok := funcs(x.Name); ok {
				args := make([]rdf.Term, len(x.Args))
				for i, a := range x.Args {
					v, err := evalExpr(a, sol, funcs)
					if err != nil {
						return rdf.Term{}, err
					}
					args[i] = v
				}
				return fn(args)
			}
		}
		return rdf.Term{}, exprErrf("unknown extension function <%s>", x.Name)
	}
	switch x.Name {
	case "BOUND":
		te, ok := x.Args[0].(*sparql.TermExpr)
		if !ok || !te.Term.IsVar() {
			return rdf.Term{}, exprErrf("BOUND requires a variable argument")
		}
		_, bound := sol.lookup(te.Term.Value)
		return rdf.NewBoolean(bound), nil
	}
	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(a, sol, funcs)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "STR":
		switch args[0].Kind {
		case rdf.KindIRI:
			return rdf.NewLiteral(args[0].Value), nil
		case rdf.KindLiteral:
			return rdf.NewLiteral(args[0].Value), nil
		default:
			return rdf.Term{}, exprErrf("STR of %s", args[0])
		}
	case "LANG":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, exprErrf("LANG of non-literal")
		}
		return rdf.NewLiteral(args[0].Lang), nil
	case "LANGMATCHES":
		tag := strings.ToLower(args[0].Value)
		rng := strings.ToLower(args[1].Value)
		if rng == "*" {
			return rdf.NewBoolean(tag != ""), nil
		}
		return rdf.NewBoolean(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "DATATYPE":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, exprErrf("DATATYPE of non-literal")
		}
		if args[0].Lang != "" {
			return rdf.Term{}, exprErrf("DATATYPE of language-tagged literal")
		}
		dt := args[0].Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "SAMETERM":
		return rdf.NewBoolean(args[0] == args[1]), nil
	case "ISIRI", "ISURI":
		return rdf.NewBoolean(args[0].Kind == rdf.KindIRI), nil
	case "ISBLANK":
		return rdf.NewBoolean(args[0].Kind == rdf.KindBlank), nil
	case "ISLITERAL":
		return rdf.NewBoolean(args[0].Kind == rdf.KindLiteral), nil
	case "REGEX":
		if args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, exprErrf("REGEX subject must be a literal")
		}
		pattern := args[1].Value
		if len(args) == 3 {
			flags := args[2].Value
			var goFlags strings.Builder
			for _, f := range flags {
				switch f {
				case 'i':
					goFlags.WriteString("i")
				case 's':
					goFlags.WriteString("s")
				case 'm':
					goFlags.WriteString("m")
				}
			}
			if goFlags.Len() > 0 {
				pattern = "(?" + goFlags.String() + ")" + pattern
			}
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return rdf.Term{}, exprErrf("bad REGEX pattern %q: %v", pattern, err)
		}
		return rdf.NewBoolean(re.MatchString(args[0].Value)), nil
	default:
		return rdf.Term{}, exprErrf("unknown builtin %q", x.Name)
	}
}
