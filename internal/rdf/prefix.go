package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// PrefixMap maintains prefix → namespace bindings for parsing and
// serialising Turtle and SPARQL. Lookup of the longest matching namespace
// for an IRI (used when shrinking to QNames) is linear in the number of
// bindings, which is fine at the scale of a query prologue.
type PrefixMap struct {
	toNS   map[string]string // prefix -> namespace IRI
	byLen  []string          // prefixes ordered for deterministic output
	base   string
	frozen bool
}

// NewPrefixMap returns an empty prefix map.
func NewPrefixMap() *PrefixMap {
	return &PrefixMap{toNS: make(map[string]string)}
}

// Clone returns an independent copy of the map.
func (pm *PrefixMap) Clone() *PrefixMap {
	c := NewPrefixMap()
	c.base = pm.base
	for p, ns := range pm.toNS {
		c.Bind(p, ns)
	}
	return c
}

// Bind associates prefix with namespace, replacing any previous binding.
func (pm *PrefixMap) Bind(prefix, ns string) {
	if _, exists := pm.toNS[prefix]; !exists {
		pm.byLen = append(pm.byLen, prefix)
	}
	pm.toNS[prefix] = ns
}

// SetBase sets the base IRI used to resolve relative IRI references.
func (pm *PrefixMap) SetBase(base string) { pm.base = base }

// Namespace returns the namespace bound to prefix.
func (pm *PrefixMap) Namespace(prefix string) (string, bool) {
	ns, ok := pm.toNS[prefix]
	return ns, ok
}

// Expand resolves a QName "prefix:local" to a full IRI. It returns an error
// for unbound prefixes. The IRI never shares qname's memory, so a parser
// may pass a slice of its source.
func (pm *PrefixMap) Expand(qname string) (string, error) {
	i := strings.Index(qname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a QName", qname)
	}
	ns, ok := pm.toNS[qname[:i]]
	if !ok {
		return "", fmt.Errorf("rdf: unbound prefix %q", qname[:i])
	}
	if ns == "" {
		// ns + local would be local itself.
		return strings.Clone(qname[i+1:]), nil
	}
	return ns + qname[i+1:], nil
}

// ResolveIRI resolves a (possibly relative) IRI reference against the base.
// Absolute IRIs (containing a scheme) pass through unchanged.
func (pm *PrefixMap) ResolveIRI(ref string) string {
	if isAbsoluteIRI(ref) || pm.base == "" {
		return ref
	}
	if strings.HasPrefix(ref, "#") {
		return strings.TrimSuffix(pm.base, "#") + ref
	}
	base := pm.base
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		return base[:i+1] + ref
	}
	return base + ref
}

func isAbsoluteIRI(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ':' {
			return i > 0
		}
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			(i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'))) {
			return false
		}
	}
	return false
}

// Shrink returns "prefix:local" for an IRI if some bound namespace is a
// prefix of it and the remainder is a valid local name, else ok=false.
// When several namespaces leave a valid local name, the longest wins, and
// of two prefixes bound to it the smaller one, so the same map always
// shrinks alike, whichever prefixes a shorter namespace sits beside.
func (pm *PrefixMap) Shrink(iri string) (string, bool) {
	prefix, local, ok := pm.Split(iri)
	if !ok {
		return "", false
	}
	return prefix + ":" + local, true
}

// Split is Shrink without building the name: the prefix and the local
// part "prefix:local" is made of.
func (pm *PrefixMap) Split(iri string) (prefix, local string, ok bool) {
	bestPrefix, bestNS := "", ""
	for p, ns := range pm.toNS {
		if ns == "" || !strings.HasPrefix(iri, ns) || !validLocalName(iri[len(ns):]) {
			continue
		}
		if len(ns) > len(bestNS) || (len(ns) == len(bestNS) && p < bestPrefix) {
			bestNS, bestPrefix = ns, p
		}
	}
	if bestNS == "" {
		return "", "", false
	}
	return bestPrefix, iri[len(bestNS):], true
}

// validLocalName accepts the conservative subset of PN_LOCAL that both our
// Turtle and SPARQL serialisers can emit without escaping.
func validLocalName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			// digits allowed anywhere in our conservative subset
		case r == '-' || r == '.':
			if i == 0 || i == len(s)-1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Prefixes returns the bound prefixes in sorted order.
func (pm *PrefixMap) Prefixes() []string {
	out := make([]string, 0, len(pm.toNS))
	for p := range pm.toNS {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of bindings.
func (pm *PrefixMap) Len() int { return len(pm.toNS) }
