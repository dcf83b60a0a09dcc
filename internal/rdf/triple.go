package rdf

import (
	"sort"
	"strings"
)

// Triple is an RDF triple or triple pattern. In ground data S is an IRI or
// blank node, P an IRI, and O any ground term; patterns additionally allow
// variables (and the zero wildcard term in store match calls).
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its three components.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples-like syntax without the final dot.
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// IsGround reports whether all three positions are ground terms.
func (t Triple) IsGround() bool {
	return t.S.IsGround() && t.P.IsGround() && t.O.IsGround()
}

// Vars returns the distinct variable names appearing in the triple, in
// subject, predicate, object position order.
func (t Triple) Vars() []string {
	var vs []string
	seen := map[string]bool{}
	for _, x := range []Term{t.S, t.P, t.O} {
		if x.IsVar() && !seen[x.Value] {
			seen[x.Value] = true
			vs = append(vs, x.Value)
		}
	}
	return vs
}

// Terms returns the three terms in S, P, O order.
func (t Triple) Terms() [3]Term { return [3]Term{t.S, t.P, t.O} }

// Compare orders triples deterministically (S, then P, then O).
func (t Triple) Compare(o Triple) int {
	if c := t.S.Compare(o.S); c != 0 {
		return c
	}
	if c := t.P.Compare(o.P); c != 0 {
		return c
	}
	return t.O.Compare(o.O)
}

// Graph is a simple ordered collection of triples used as an exchange type
// between parsers, stores and serialisers. It is not indexed; use
// internal/store for querying.
type Graph []Triple

// Add appends a triple.
func (g *Graph) Add(t Triple) { *g = append(*g, t) }

// AddTriple appends a triple built from terms.
func (g *Graph) AddTriple(s, p, o Term) { *g = append(*g, Triple{s, p, o}) }

// Len returns the number of triples.
func (g Graph) Len() int { return len(g) }

// Sort orders the graph deterministically in place and returns it.
func (g Graph) Sort() Graph {
	sort.Slice(g, func(i, j int) bool { return g[i].Compare(g[j]) < 0 })
	return g
}

// Dedup returns a copy of the graph with exact duplicate triples removed,
// preserving first-occurrence order.
func (g Graph) Dedup() Graph {
	seen := make(map[Triple]struct{}, len(g))
	out := make(Graph, 0, len(g))
	for _, t := range g {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// String renders the graph one triple per line with trailing dots.
func (g Graph) String() string {
	var b strings.Builder
	for _, t := range g {
		b.WriteString(t.String())
		b.WriteString(" .\n")
	}
	return b.String()
}
