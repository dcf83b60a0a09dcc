package store

import (
	"sync"

	"sparqlrw/internal/rdf"
)

// Dict is a concurrency-safe term dictionary interning rdf.Term values to
// dense uint32 ids. Ids are assigned in first-seen order and are never
// reused or reassigned, so an id obtained once stays valid for the life of
// the dictionary. The id space is shared by every component holding the
// same *Dict, which is what lets the encoded store, the view manager and
// the federated merge path compare terms by integer equality instead of
// hashing full term structs.
type Dict struct {
	mu    sync.RWMutex
	ids   map[rdf.Term]uint32
	terms []rdf.Term
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[rdf.Term]uint32)}
}

// Intern returns the id for t, assigning the next free id when t has not
// been seen before.
func (d *Dict) Intern(t rdf.Term) uint32 {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	id = uint32(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id
}

// Lookup returns the id for t without interning; ok is false when t has
// never been seen.
func (d *Dict) Lookup(t rdf.Term) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[t]
	return id, ok
}

// Term decodes an id back to its term. Unknown ids return the zero Term.
func (d *Dict) Term(id uint32) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.terms) {
		return rdf.Term{}
	}
	return d.terms[id]
}

// triple decodes a packed (s, p, o) id triple under one read lock.
func (d *Dict) triple(ids [3]uint32) rdf.Triple {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return rdf.Triple{S: d.terms[ids[0]], P: d.terms[ids[1]], O: d.terms[ids[2]]}
}

// Len returns the number of distinct interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}
