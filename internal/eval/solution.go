// Package eval interprets the SPARQL algebra over an indexed triple store.
// Each query is compiled once into a plan that gives every variable a
// slot, and every operator — backtracking BGP matching under a
// selectivity-based join order, joins, OPTIONAL, UNION, FILTER with the
// SPARQL 1.0 three-valued error semantics, DISTINCT, ORDER BY, slicing —
// runs over positional rows of that width (see plan.go). Solution maps
// are the form the SELECT / ASK / CONSTRUCT / DESCRIBE entry points hand
// to callers, and are built only there. A plan's leaves may also be
// remote (remote.go): rows a federated sub-request supplies through the
// Remote interface the mediator implements, so the mediator's joins,
// FILTERs and solution modifiers above its endpoints run here too (Open).
package eval

import (
	"slices"
	"sort"
	"strings"

	"sparqlrw/internal/rdf"
)

// Solution is a solution mapping from variable names to RDF terms. Blank
// nodes appearing in triple patterns behave as variables scoped to the
// query; their keys are prefixed with "_:" so they can never collide with
// (or be projected as) real variables.
type Solution map[string]rdf.Term

// bindingKey returns the Solution key under which a pattern term binds, and
// whether the term is bindable (variable or blank node).
func bindingKey(t rdf.Term) (string, bool) {
	switch t.Kind {
	case rdf.KindVar:
		return t.Value, true
	case rdf.KindBlank:
		return "_:" + t.Value, true
	default:
		return "", false
	}
}

// Clone copies the solution.
func (s Solution) Clone() Solution {
	c := make(Solution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Bound reports whether the variable is bound.
func (s Solution) Bound(name string) bool {
	_, ok := s[name]
	return ok
}

func (s Solution) lookup(key string) (rdf.Term, bool) {
	t, ok := s[key]
	return t, ok
}

// Project returns a solution restricted to the given variables (dropping
// blank-node bindings, which are never projectable).
func (s Solution) Project(vars []string) Solution {
	out := make(Solution, len(vars))
	for _, v := range vars {
		if t, ok := s[v]; ok {
			out[v] = t
		}
	}
	return out
}

// Key returns a canonical string form of the solution, used for DISTINCT
// and for hash-join buckets. Variables are emitted in sorted order.
func (s Solution) Key() string {
	var buf [256]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to dst.
func (s Solution) AppendKey(dst []byte) []byte {
	var stack [16]string
	names := stack[:0]
	for k := range s {
		names = append(names, k)
	}
	return s.appendSorted(dst, names)
}

// appendSorted sorts names (distinct, all bound in s) in place and appends
// one "name=term\x00" group per name.
func (s Solution) appendSorted(dst []byte, names []string) []byte {
	slices.Sort(names)
	for _, n := range names {
		dst = append(dst, n...)
		dst = append(dst, '=')
		dst = s[n].AppendString(dst)
		dst = append(dst, 0)
	}
	return dst
}

// KeySet is the set of the keys of the rows added to it: the state of a
// streaming DISTINCT. Each key is rendered into one reused buffer and
// looked up from there, and the keys the set retains are cut from a
// chunked arena, so neither a duplicate nor a new row costs an allocation
// of its own. The zero value is empty.
type KeySet struct {
	seen  map[string]struct{}
	key   []byte
	arena rdf.Arena
}

// AddRow adds a positional row's key — its terms in slot order, so no
// names and no sorting — and reports whether it was new.
func (k *KeySet) AddRow(r Row) bool {
	k.key = AppendRowKey(k.key[:0], r)
	if _, dup := k.seen[string(k.key)]; dup {
		return false
	}
	if k.seen == nil {
		k.seen = make(map[string]struct{})
	}
	k.seen[k.arena.Bytes(k.key)] = struct{}{}
	return true
}

// Has reports whether a positional row's key was added.
func (k *KeySet) Has(r Row) bool {
	k.key = AppendRowKey(k.key[:0], r)
	_, ok := k.seen[string(k.key)]
	return ok
}

// AppendRowKey appends the key of a row's terms, in order: what hash
// joins bucket under (over the join slots' terms) and DISTINCT compares.
func AppendRowKey(dst []byte, r Row) []byte {
	for _, t := range r {
		dst = append(t.AppendString(dst), 0)
	}
	return dst
}

// Vars returns the bound variable names (excluding blank-node pseudo-vars)
// in sorted order.
func (s Solution) Vars() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		if !strings.HasPrefix(k, "_:") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// SortSolutions orders solutions deterministically by their canonical key;
// used by tests and by deterministic result dumps.
func SortSolutions(sols []Solution) {
	sort.Slice(sols, func(i, j int) bool { return sols[i].Key() < sols[j].Key() })
}
