// Package funcs implements the data-manipulation functions of the paper's
// functional dependencies (§3.2.2/§3.3): a registry keyed by function IRI
// — "the adoption of name spaces allows the unique identification of
// functions across organizations" — the sameas co-reference function, and
// a set of further transformation functions (URI prefix swaps, unit and
// string conversions) exercising the paper's discussion of heterogeneous
// value representations.
package funcs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"sparqlrw/internal/rdf"
)

// Func is one registered data-manipulation function. Functions run at
// rewrite time (the paper's "safe assumption": the site executing the
// rewritten query need not know any of them).
type Func struct {
	// IRI identifies the function globally (e.g. map:sameas).
	IRI string
	// Doc describes the function for tooling.
	Doc string
	// Call applies the function to ground arguments.
	Call func(args []rdf.Term) (rdf.Term, error)
}

// Registry maps function IRIs to implementations. It is safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	funcs    map[string]*Func
	resolver func(iri string) (func([]rdf.Term) (rdf.Term, error), bool)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{funcs: map[string]*Func{}}
	r.resolver = func(iri string) (func([]rdf.Term) (rdf.Term, error), bool) {
		f, ok := r.Lookup(iri)
		if !ok {
			return nil, false
		}
		return f.Call, true
	}
	return r
}

// Register adds or replaces a function.
func (r *Registry) Register(f *Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[f.IRI] = f
}

// Lookup finds a function by IRI.
func (r *Registry) Lookup(iri string) (*Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[iri]
	return f, ok
}

// Call invokes the function registered under iri.
func (r *Registry) Call(iri string, args []rdf.Term) (rdf.Term, error) {
	f, ok := r.Lookup(iri)
	if !ok {
		return rdf.Term{}, fmt.Errorf("funcs: unknown function <%s>", iri)
	}
	return f.Call(args)
}

// Resolver adapts the registry to the evaluator's FuncResolver signature:
// one function per registry, built with it, which reads the registry at
// each call.
func (r *Registry) Resolver() func(iri string) (func([]rdf.Term) (rdf.Term, error), bool) {
	return r.resolver
}

// CorefSource supplies owl:sameAs equivalence classes; coref.Store,
// coref.Client and the mediator's cache over either (federate.RepCache)
// satisfy it. A returned class may be shared: callers must not modify it.
type CorefSource interface {
	Equivalents(uri string) []string
}

// regexCache avoids recompiling the URI-space patterns that appear in
// every functional dependency application.
var regexCache sync.Map // string -> *regexp.Regexp

func compileCached(pattern string) (*regexp.Regexp, error) {
	if re, ok := regexCache.Load(pattern); ok {
		return re.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	regexCache.Store(pattern, re)
	return re, nil
}

// ErrNoEquivalent reports that sameas found no equivalence-class member
// matching the requested URI-space pattern. The rewriter's FD-failure
// policy decides what happens next.
type ErrNoEquivalent struct {
	URI     string
	Pattern string
}

func (e *ErrNoEquivalent) Error() string {
	return fmt.Sprintf("funcs: no equivalent of <%s> matches %q", e.URI, e.Pattern)
}

// NewSameAs builds the paper's sameas function over a co-reference source:
//
//	sameas(x, pattern) = x                      if x is unbound (a variable)
//	                   = z ∈ [x] with z ~ pattern   otherwise
//
// where [x] is the owl:sameAs equivalence class of x. An unbound first
// argument passes through unchanged — the paper's "simple default
// mechanism". A bound argument with no matching equivalent yields
// *ErrNoEquivalent.
func NewSameAs(src CorefSource) *Func {
	return &Func{
		IRI: rdf.MapSameAs,
		Doc: "sameas(x, uriSpacePattern): co-reference translation into a target URI space (§3.3)",
		Call: func(args []rdf.Term) (rdf.Term, error) {
			if len(args) != 2 {
				return rdf.Term{}, fmt.Errorf("funcs: sameas takes 2 arguments, got %d", len(args))
			}
			x, pat := args[0], args[1]
			// Unbound (variable or blank) first argument: identity.
			if x.IsVar() || x.IsBlank() {
				return x, nil
			}
			if !x.IsIRI() {
				return rdf.Term{}, fmt.Errorf("funcs: sameas over non-IRI %s", x)
			}
			if !pat.IsLiteral() {
				return rdf.Term{}, fmt.Errorf("funcs: sameas pattern must be a literal, got %s", pat)
			}
			re, err := compileCached(pat.Value)
			if err != nil {
				return rdf.Term{}, fmt.Errorf("funcs: bad sameas pattern %q: %w", pat.Value, err)
			}
			for _, cand := range src.Equivalents(x.Value) {
				if re.MatchString(cand) {
					return rdf.NewIRI(cand), nil
				}
			}
			return rdf.Term{}, &ErrNoEquivalent{URI: x.Value, Pattern: pat.Value}
		},
	}
}

// NewPrefixSwap builds prefixSwap(x, fromPrefix, toPrefix): a purely
// syntactic URI-space translation for data sets whose identifiers differ
// only by namespace (common in RKB mirrors).
func NewPrefixSwap() *Func {
	return &Func{
		IRI: rdf.MapNS + "prefixSwap",
		Doc: "prefixSwap(uri, from, to): rewrites the URI prefix syntactically",
		Call: func(args []rdf.Term) (rdf.Term, error) {
			if len(args) != 3 {
				return rdf.Term{}, fmt.Errorf("funcs: prefixSwap takes 3 arguments, got %d", len(args))
			}
			x := args[0]
			if x.IsVar() || x.IsBlank() {
				return x, nil
			}
			if !x.IsIRI() || !args[1].IsLiteral() || !args[2].IsLiteral() {
				return rdf.Term{}, fmt.Errorf("funcs: prefixSwap argument types invalid")
			}
			if !strings.HasPrefix(x.Value, args[1].Value) {
				return rdf.Term{}, fmt.Errorf("funcs: <%s> does not start with %q", x.Value, args[1].Value)
			}
			return rdf.NewIRI(args[2].Value + strings.TrimPrefix(x.Value, args[1].Value)), nil
		},
	}
}

// numeric1 wraps a float64 transformation as a unary literal function with
// an identity pass-through for unbound arguments. Results are rounded to
// six decimal places: rewritten queries match data by term identity, so
// the lexical form must be stable, not carry float noise.
func numeric1(iri, doc string, fn func(float64) float64) *Func {
	return &Func{
		IRI: iri,
		Doc: doc,
		Call: func(args []rdf.Term) (rdf.Term, error) {
			if len(args) != 1 {
				return rdf.Term{}, fmt.Errorf("funcs: <%s> takes 1 argument, got %d", iri, len(args))
			}
			x := args[0]
			if x.IsVar() || x.IsBlank() {
				return x, nil
			}
			f, ok := x.Float()
			if !ok {
				// plain literals holding numbers are accepted too
				if x.IsLiteral() {
					if v, err := strconv.ParseFloat(x.Value, 64); err == nil {
						return roundedDecimal(fn(v)), nil
					}
				}
				return rdf.Term{}, fmt.Errorf("funcs: <%s> over non-numeric %s", iri, x)
			}
			return roundedDecimal(fn(f)), nil
		},
	}
}

// roundedDecimal renders f as an xsd:decimal with at most six decimal
// places, trimming trailing zeros.
func roundedDecimal(f float64) rdf.Term {
	s := strconv.FormatFloat(f, 'f', 6, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	return rdf.NewTypedLiteral(s, rdf.XSDDecimal)
}

// string1 wraps a string transformation as a unary literal function.
func string1(iri, doc string, fn func(string) string) *Func {
	return &Func{
		IRI: iri,
		Doc: doc,
		Call: func(args []rdf.Term) (rdf.Term, error) {
			if len(args) != 1 {
				return rdf.Term{}, fmt.Errorf("funcs: <%s> takes 1 argument, got %d", iri, len(args))
			}
			x := args[0]
			if x.IsVar() || x.IsBlank() {
				return x, nil
			}
			if !x.IsLiteral() {
				return rdf.Term{}, fmt.Errorf("funcs: <%s> over non-literal %s", iri, x)
			}
			out := x
			out.Value = fn(x.Value)
			return out, nil
		},
	}
}

// NewConcat builds concat(args...): string concatenation of literal
// lexical forms, for schemas that merge address-style fields (§4's
// structural-conflict discussion).
func NewConcat() *Func {
	return &Func{
		IRI: rdf.MapNS + "concat",
		Doc: "concat(literals...): concatenates lexical forms with single spaces",
		Call: func(args []rdf.Term) (rdf.Term, error) {
			parts := make([]string, 0, len(args))
			for _, a := range args {
				if a.IsVar() || a.IsBlank() {
					return a, nil // any unbound argument defers the whole concat
				}
				if !a.IsLiteral() {
					return rdf.Term{}, fmt.Errorf("funcs: concat over non-literal %s", a)
				}
				parts = append(parts, a.Value)
			}
			return rdf.NewLiteral(strings.Join(parts, " ")), nil
		},
	}
}

// StandardRegistry returns a registry with every built-in transformation
// function registered, with sameas backed by src.
func StandardRegistry(src CorefSource) *Registry {
	r := NewRegistry()
	r.Register(NewSameAs(src))
	r.Register(NewPrefixSwap())
	r.Register(NewConcat())
	r.Register(numeric1(rdf.MapNS+"kmToMiles", "kilometres to miles", func(f float64) float64 { return f * 0.621371 }))
	r.Register(numeric1(rdf.MapNS+"milesToKm", "miles to kilometres", func(f float64) float64 { return f / 0.621371 }))
	r.Register(numeric1(rdf.MapNS+"celsiusToFahrenheit", "Celsius to Fahrenheit", func(f float64) float64 { return f*9/5 + 32 }))
	r.Register(numeric1(rdf.MapNS+"fahrenheitToCelsius", "Fahrenheit to Celsius", func(f float64) float64 { return (f - 32) * 5 / 9 }))
	r.Register(string1(rdf.MapNS+"toUpper", "upper-cases a literal", strings.ToUpper))
	r.Register(string1(rdf.MapNS+"toLower", "lower-cases a literal", strings.ToLower))
	r.Register(string1(rdf.MapNS+"trim", "trims surrounding whitespace", strings.TrimSpace))
	return r
}
