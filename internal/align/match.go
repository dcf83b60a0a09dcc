package align

import (
	"sort"
	"strings"

	"sparqlrw/internal/rdf"
)

// Binding is a substitution from alignment (LHS/RHS) variable names to the
// query terms they matched — ground terms, query variables, or query blank
// nodes (which the paper treats as existential variables).
type Binding map[string]rdf.Term

// Clone copies the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// String renders the binding deterministically, in the paper's
// [?p1/?paper, ?a1/id:person-02686] style.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = "?" + k + "/" + b[k].String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// MatchTerm implements the paper's node matcher (§3.3.1):
//
//	match(l, r) = [l/r]  if l ∈ Vars
//	            = true   if l ∉ Vars ∧ l = r
//	            = false  otherwise
//
// where l is the LHS node and r the query node. Alignment blank nodes are
// treated as variables (the paper's RDF encoding uses them as such). The
// binding accumulates substitutions; an inconsistent rebinding fails.
func MatchTerm(l, r rdf.Term, binding Binding) bool {
	if l.IsVar() || l.IsBlank() {
		name := l.Value
		if prev, ok := binding[name]; ok {
			return prev == r
		}
		binding[name] = r
		return true
	}
	return l == r
}

// MatchTriple matches an alignment LHS pattern against one query triple
// pattern, extending binding on success. Matching is positional over
// subject, predicate, object, per the paper ("match over triples just
// extends this algorithm to subject, predicate and object").
func MatchTriple(lhs, query rdf.Triple, binding Binding) bool {
	if !MatchTerm(lhs.S, query.S, binding) {
		return false
	}
	if !MatchTerm(lhs.P, query.P, binding) {
		return false
	}
	return MatchTerm(lhs.O, query.O, binding)
}

// Match is the paper's align.match(t): it tries the alignment's LHS
// against the query triple and returns the resulting binding, or ok=false.
func (ea *EntityAlignment) Match(query rdf.Triple) (Binding, bool) {
	b := Binding{}
	if MatchTriple(ea.LHS, query, b) {
		return b, true
	}
	return nil, false
}

// FirstMatch returns the first alignment in eas whose LHS matches the
// query triple, with its binding. This reproduces the paper's single-match
// semantics (Algorithm 1 line 4); AllMatches exists for the ablation mode.
func FirstMatch(eas []*EntityAlignment, query rdf.Triple) (*EntityAlignment, Binding, bool) {
	for _, ea := range eas {
		if b, ok := ea.Match(query); ok {
			return ea, b, true
		}
	}
	return nil, nil, false
}

// AllMatches returns every alignment matching the query triple with its
// binding, in order.
func AllMatches(eas []*EntityAlignment, query rdf.Triple) []MatchResult {
	var out []MatchResult
	for _, ea := range eas {
		if b, ok := ea.Match(query); ok {
			out = append(out, MatchResult{Alignment: ea, Binding: b})
		}
	}
	return out
}

// MatchResult pairs a matched alignment with its binding.
type MatchResult struct {
	Alignment *EntityAlignment
	Binding   Binding
}
