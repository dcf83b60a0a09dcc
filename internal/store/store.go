// Package store implements the repo's one in-memory RDF triple store. It
// is dictionary-encoded: terms are interned to dense uint32 ids through a
// Dict, and the three indexes (SPO, POS, OSP) are nested maps over those
// ids, so a stored triple costs three words per index entry, equality
// during matching is integer comparison, and any pattern with at least
// one bound position is answered by index lookup rather than a scan.
//
// Reads follow one contract, snapshot then callback: the ids of the
// matching triples are collected under the store's read lock, and terms
// are decoded and handed to the caller outside it. A Match callback may
// therefore Add to and Remove from the store it iterates; it sees exactly
// the triples present when Match was called.
//
// Ids never shrink: Remove and Clear drop triples but leave the
// dictionary alone, so an id obtained once stays valid.
//
// The store is the substrate behind the SPARQL evaluator, the SPARQL
// protocol endpoints, the materialized views and the materialisation
// baseline.
package store

import (
	"iter"
	"sync"

	"sparqlrw/internal/rdf"
)

// index is a three-level index over dictionary ids; the per-level maps
// are keyed by uint32 instead of full rdf.Term structs, so lookups hash a
// machine word rather than a multi-field string struct.
type index map[uint32]map[uint32]map[uint32]struct{}

func (ix index) add(a, b, c uint32) bool {
	m1, ok := ix[a]
	if !ok {
		m1 = make(map[uint32]map[uint32]struct{})
		ix[a] = m1
	}
	m2, ok := m1[b]
	if !ok {
		m2 = make(map[uint32]struct{})
		m1[b] = m2
	}
	if _, exists := m2[c]; exists {
		return false
	}
	m2[c] = struct{}{}
	return true
}

func (ix index) remove(a, b, c uint32) bool {
	m1 := ix[a]
	m2 := m1[b]
	if _, exists := m2[c]; !exists {
		return false
	}
	delete(m2, c)
	if len(m2) == 0 {
		delete(m1, b)
		if len(m1) == 0 {
			delete(ix, a)
		}
	}
	return true
}

// Store is an in-memory triple store. The zero value is not usable; create
// stores with New or NewWith.
type Store struct {
	mu   sync.RWMutex
	dict *Dict
	spo  index
	pos  index
	osp  index
	size int
	// predCount tracks triples per predicate for selectivity estimation
	// (used by the evaluator's join-order heuristic, cf. Stocker et al.,
	// which the paper cites for BGP optimisation).
	predCount map[uint32]int
}

// New returns an empty store with its own private dictionary.
func New() *Store { return NewWith(NewDict()) }

// NewWith returns an empty store interning through the given (possibly
// shared) dictionary.
func NewWith(d *Dict) *Store {
	return &Store{
		dict:      d,
		spo:       make(index),
		pos:       make(index),
		osp:       make(index),
		predCount: make(map[uint32]int),
	}
}

// Dict returns the store's term dictionary so cooperating components can
// intern through the same id space.
func (s *Store) Dict() *Dict { return s.dict }

// Add inserts a triple; it reports whether the triple was not already
// present. Triples containing variables or wildcards are rejected.
func (s *Store) Add(t rdf.Triple) bool {
	if !validData(t) {
		return false
	}
	sid, pid, oid := s.dict.Intern(t.S), s.dict.Intern(t.P), s.dict.Intern(t.O)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spo.add(sid, pid, oid) {
		return false
	}
	s.pos.add(pid, oid, sid)
	s.osp.add(oid, sid, pid)
	s.size++
	s.predCount[pid]++
	return true
}

// AddGraph inserts every triple of g and returns the number added.
func (s *Store) AddGraph(g rdf.Graph) int {
	n := 0
	for _, t := range g {
		if s.Add(t) {
			n++
		}
	}
	return n
}

// Remove deletes a triple; it reports whether the triple was present.
func (s *Store) Remove(t rdf.Triple) bool {
	sid, pid, oid, ok := s.encode(t)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spo.remove(sid, pid, oid) {
		return false
	}
	s.pos.remove(pid, oid, sid)
	s.osp.remove(oid, sid, pid)
	s.size--
	// A counter is deleted at zero, so the statistics never list a
	// predicate with no triples.
	if s.predCount[pid] <= 1 {
		delete(s.predCount, pid)
	} else {
		s.predCount[pid]--
	}
	return true
}

// Has reports whether the exact ground triple is present.
func (s *Store) Has(t rdf.Triple) bool {
	sid, pid, oid, ok := s.encode(t)
	if !ok {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok = s.spo[sid][pid][oid]
	return ok
}

// Size returns the number of triples.
func (s *Store) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// PredicateCount returns the number of triples with predicate p, used for
// selectivity-based join ordering.
func (s *Store) PredicateCount(p rdf.Term) int {
	id, ok := s.dict.Lookup(p)
	if !ok {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.predCount[id]
}

// validData accepts only ground terms and blank nodes (data-level
// existentials); variables and wildcards cannot be stored.
func validData(t rdf.Triple) bool {
	for _, x := range [3]rdf.Term{t.S, t.P, t.O} {
		if x.Kind != rdf.KindIRI && x.Kind != rdf.KindLiteral && x.Kind != rdf.KindBlank {
			return false
		}
	}
	return true
}

// wildcardID encodes a pattern position that is a variable or the zero
// Term: unbound, so it constrains nothing.
const wildcardID = ^uint32(0)

// encode translates a pattern's bound positions to ids. ok is false when
// some bound position names a term the dictionary has never seen — then
// nothing can match.
func (s *Store) encode(pattern rdf.Triple) (sid, pid, oid uint32, ok bool) {
	enc := func(t rdf.Term) (uint32, bool) {
		if t.Kind == rdf.KindAny || t.Kind == rdf.KindVar {
			return wildcardID, true
		}
		return s.dict.Lookup(t)
	}
	if sid, ok = enc(pattern.S); !ok {
		return
	}
	if pid, ok = enc(pattern.P); !ok {
		return
	}
	oid, ok = enc(pattern.O)
	return
}

// snapshot appends the id triples matching the pattern to out under the
// read lock, picking the index whose prefix the bound positions form.
// Every read path goes through it; callers that expect few matches pass
// a stack-backed out so the common case never touches the heap.
func (s *Store) snapshot(pattern rdf.Triple, out [][3]uint32) [][3]uint32 {
	sid, pid, oid, ok := s.encode(pattern)
	if !ok {
		return out
	}
	sb, pb, ob := sid != wildcardID, pid != wildcardID, oid != wildcardID
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case sb && pb && ob:
		if _, ok := s.spo[sid][pid][oid]; ok {
			out = append(out, [3]uint32{sid, pid, oid})
		}
	case sb && pb:
		for o := range s.spo[sid][pid] {
			out = append(out, [3]uint32{sid, pid, o})
		}
	case sb && ob:
		for p := range s.osp[oid][sid] {
			out = append(out, [3]uint32{sid, p, oid})
		}
	case pb && ob:
		for sv := range s.pos[pid][oid] {
			out = append(out, [3]uint32{sv, pid, oid})
		}
	case sb:
		for p, m2 := range s.spo[sid] {
			for o := range m2 {
				out = append(out, [3]uint32{sid, p, o})
			}
		}
	case pb:
		for o, m2 := range s.pos[pid] {
			for sv := range m2 {
				out = append(out, [3]uint32{sv, pid, o})
			}
		}
	case ob:
		for sv, m2 := range s.osp[oid] {
			for p := range m2 {
				out = append(out, [3]uint32{sv, p, oid})
			}
		}
	default:
		for sv, m1 := range s.spo {
			for p, m2 := range m1 {
				for o := range m2 {
					out = append(out, [3]uint32{sv, p, o})
				}
			}
		}
	}
	return out
}

// Match invokes fn for every stored triple matching the pattern; pattern
// positions that are variables or the zero Term act as wildcards. fn
// returning false stops the iteration early.
//
// The snapshot of matching triples is collected under the read lock and fn
// runs outside it, so fn may safely call back into the store (including
// Add/Remove — mutations do not affect the already-collected snapshot).
func (s *Store) Match(pattern rdf.Triple, fn func(rdf.Triple) bool) {
	var buf [8][3]uint32
	for _, ids := range s.snapshot(pattern, buf[:0]) {
		if !fn(s.dict.triple(ids)) {
			return
		}
	}
}

// Scan returns a lazy (index, triple) sequence over the triples matching
// the pattern. The id snapshot is taken eagerly; terms are decoded one
// triple at a time as the consumer pulls, so an early break never pays
// for decoding the whole result.
func (s *Store) Scan(pattern rdf.Triple) iter.Seq2[int, rdf.Triple] {
	packed := s.snapshot(pattern, nil)
	return func(yield func(int, rdf.Triple) bool) {
		for i, ids := range packed {
			if !yield(i, s.dict.triple(ids)) {
				return
			}
		}
	}
}

// MatchAll returns all stored triples matching the pattern. See Match for
// the wildcard convention.
func (s *Store) MatchAll(pattern rdf.Triple) []rdf.Triple {
	var buf [8][3]uint32
	packed := s.snapshot(pattern, buf[:0])
	if len(packed) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(packed))
	for i, ids := range packed {
		out[i] = s.dict.triple(ids)
	}
	return out
}

// Triples returns all triples as a graph in deterministic sorted order.
func (s *Store) Triples() rdf.Graph {
	return rdf.Graph(s.MatchAll(rdf.Triple{})).Sort()
}

// Clear removes every triple while keeping the dictionary, so refilling
// (a view refresh) re-uses the already-interned ids.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.spo)
	clear(s.pos)
	clear(s.osp)
	s.size = 0
	clear(s.predCount)
}

// distinct returns the distinct terms pick selects from the triples
// matching the pattern.
func (s *Store) distinct(pattern rdf.Triple, pick func(rdf.Triple) rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	var out []rdf.Term
	s.Match(pattern, func(t rdf.Triple) bool {
		x := pick(t)
		if _, ok := seen[x]; !ok {
			seen[x] = struct{}{}
			out = append(out, x)
		}
		return true
	})
	return out
}

// Subjects returns the distinct subjects of triples matching (any, p, o).
func (s *Store) Subjects(p, o rdf.Term) []rdf.Term {
	return s.distinct(rdf.Triple{P: p, O: o}, func(t rdf.Triple) rdf.Term { return t.S })
}

// Objects returns the distinct objects of triples matching (s, p, any).
func (s *Store) Objects(subj, p rdf.Term) []rdf.Term {
	return s.distinct(rdf.Triple{S: subj, P: p}, func(t rdf.Triple) rdf.Term { return t.O })
}

// FirstObject returns some object of (s, p, ?) and whether one exists.
func (s *Store) FirstObject(subj, p rdf.Term) (rdf.Term, bool) {
	var res rdf.Term
	found := false
	s.Match(rdf.Triple{S: subj, P: p}, func(t rdf.Triple) bool {
		res, found = t.O, true
		return false
	})
	return res, found
}
