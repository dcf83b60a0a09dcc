// Package coref implements the co-reference (owl:sameAs) service the
// paper's sameas function depends on (§3.3): an equivalence store over
// URIs with regex-filtered selection, plus an HTTP REST service and client
// that stand in for the sameas.org API the paper wraps.
package coref

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/rdf"
)

// Store maintains owl:sameAs equivalence classes over URIs using a
// union–find structure with path compression and union by size; each root
// also carries its member list so equivalence-class retrieval costs
// O(class size), not O(store size). All methods are safe for concurrent
// use.
type Store struct {
	mu      sync.RWMutex
	parent  map[string]string
	members map[string][]string // root -> class members (unsorted)
	pairs   int
	epoch   atomic.Uint64 // moved by every Add
}

// NewStore returns an empty equivalence store.
func NewStore() *Store {
	return &Store{parent: map[string]string{}, members: map[string][]string{}}
}

func (s *Store) find(x string) string {
	root := x
	for {
		p, ok := s.parent[root]
		if !ok || p == root {
			break
		}
		root = p
	}
	// Path compression.
	for x != root {
		next := s.parent[x]
		s.parent[x] = root
		x = next
	}
	return root
}

func (s *Store) ensure(x string) {
	if _, ok := s.parent[x]; !ok {
		s.parent[x] = x
		s.members[x] = []string{x}
	}
}

// Add records that a and b identify the same resource (owl:sameAs).
func (s *Store) Add(a, b string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1)
	s.pairs++
	s.ensure(a)
	s.ensure(b)
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	// Union by size: merge the smaller member list into the larger.
	if len(s.members[ra]) < len(s.members[rb]) {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.members[ra] = append(s.members[ra], s.members[rb]...)
	delete(s.members, rb)
}

// Epoch returns a count that every Add moves: a cache of the store's
// classes filled under one epoch is stale once it reads another.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Equivalents returns the full equivalence class of uri (including uri
// itself), sorted. Unknown URIs yield a singleton class.
func (s *Store) Equivalents(uri string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parent[uri]; !ok {
		return []string{uri}
	}
	cls := s.members[s.find(uri)]
	out := append([]string(nil), cls...)
	sort.Strings(out)
	return out
}

// Canonical returns a deterministic representative of uri's class (the
// lexicographically smallest member). Used to smush URIs when merging
// federated results.
func (s *Store) Canonical(uri string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parent[uri]; !ok {
		return uri
	}
	cls := s.members[s.find(uri)]
	best := uri
	for _, x := range cls {
		if x < best {
			best = x
		}
	}
	return best
}

// FirstMatching returns the first member of uri's equivalence class that
// matches the compiled pattern, in sorted order, and whether one exists.
// This is the lookup behind the paper's sameas(x, regex) function.
func (s *Store) FirstMatching(uri string, re *regexp.Regexp) (string, bool) {
	for _, cand := range s.Equivalents(uri) {
		if re.MatchString(cand) {
			return cand, true
		}
	}
	return "", false
}

// Classes returns the number of equivalence classes (including
// singletons created by Add).
func (s *Store) Classes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.members)
}

// Members returns the number of URIs known to the store.
func (s *Store) Members() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parent)
}

// Pairs returns the number of Add calls (sameAs assertions ingested).
func (s *Store) Pairs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pairs
}

// LoadGraph ingests every owl:sameAs triple of g, returning the number of
// assertions added.
func (s *Store) LoadGraph(g rdf.Graph) int {
	n := 0
	for _, t := range g {
		if t.P.Value == rdf.OWLSameAs && t.S.IsIRI() && t.O.IsIRI() {
			s.Add(t.S.Value, t.O.Value)
			n++
		}
	}
	return n
}

// LoadNTriples ingests owl:sameAs triples from N-Triples text.
func (s *Store) LoadNTriples(src string) (int, error) {
	g, err := ntriples.ParseString(src)
	if err != nil {
		return 0, fmt.Errorf("coref: %w", err)
	}
	return s.LoadGraph(g), nil
}
