package align

import (
	"slices"
	"sync"
)

// KB is the Alignment KB of the paper's architecture (Figure 5): a
// queryable collection of ontology alignments. "Querying the alignment
// server we can retrieve all the relevant ontology alignments for
// integrating two given data sets. The union of the entity alignments
// belonging to the relevant ontology alignments can then be used in order
// to rewrite queries between the data sets." (§3.2.1)
type KB struct {
	mu        sync.RWMutex
	oas       []*OntologyAlignment
	listeners map[int]func()
	nextSub   int
}

// NewKB returns an empty knowledge base.
func NewKB() *KB { return &KB{} }

// Subscribe registers fn to be called whenever an alignment is added. The
// federation layer uses this to flush cached rewrite plans, which embed
// the alignment set they were produced under. The returned cancel
// function removes the subscription; callers that outlive the KB must
// call it or they stay reachable through it.
func (kb *KB) Subscribe(fn func()) (cancel func()) {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	if kb.listeners == nil {
		kb.listeners = map[int]func(){}
	}
	id := kb.nextSub
	kb.nextSub++
	kb.listeners[id] = fn
	return func() {
		kb.mu.Lock()
		defer kb.mu.Unlock()
		delete(kb.listeners, id)
	}
}

// Add validates and stores an ontology alignment, notifying subscribers.
// An alignment whose (non-empty) URI is already stored replaces the
// stored one in place, so re-loading a document updates the KB instead
// of growing it; subscribers are notified either way.
func (kb *KB) Add(oa *OntologyAlignment) error {
	if err := oa.Validate(); err != nil {
		return err
	}
	kb.mu.Lock()
	if i := slices.IndexFunc(kb.oas, func(o *OntologyAlignment) bool { return oa.URI != "" && o.URI == oa.URI }); i >= 0 {
		kb.oas[i] = oa
	} else {
		kb.oas = append(kb.oas, oa)
	}
	listeners := make([]func(), 0, len(kb.listeners))
	for _, fn := range kb.listeners {
		listeners = append(listeners, fn)
	}
	kb.mu.Unlock()
	// Callbacks run outside the lock so they may read the KB.
	for _, fn := range listeners {
		fn()
	}
	return nil
}

// All returns every stored ontology alignment.
func (kb *KB) All() []*OntologyAlignment {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return append([]*OntologyAlignment(nil), kb.oas...)
}

// Len returns the number of ontology alignments.
func (kb *KB) Len() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.oas)
}

// EntityAlignmentCount returns the total number of entity alignments, the
// statistic the paper reports for its deployed KBs (42 + 24, §3.4).
func (kb *KB) EntityAlignmentCount() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	n := 0
	for _, oa := range kb.oas {
		n += len(oa.Alignments)
	}
	return n
}

// Selector describes an integration request: the ontologies the query is
// written in, and the target coordinates. Empty fields act as wildcards.
type Selector struct {
	// SourceOntology is a namespace the query's vocabulary belongs to.
	SourceOntology string
	// TargetDataset is the voiD URI of the data set to rewrite for.
	TargetDataset string
	// TargetOntology is the namespace of the target vocabulary.
	TargetOntology string
}

// Select returns the union of entity alignments from every relevant
// ontology alignment. An OA is relevant when:
//
//   - its SO contains the requested source ontology (or no source is
//     requested), and
//   - its TD contains the requested target data set, or — when the OA
//     declares no TD, i.e. it is data-set-independent — its TO contains
//     the requested target ontology.
//
// Data-set-specific alignments (non-empty TD) are never reused for other
// data sets, per §3.2.1.
func (kb *KB) Select(sel Selector) []*EntityAlignment {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	var out []*EntityAlignment
	for _, oa := range kb.oas {
		if sel.SourceOntology != "" && !contains(oa.SourceOntologies, sel.SourceOntology) {
			continue
		}
		relevant := false
		if len(oa.TargetDatasets) > 0 {
			relevant = sel.TargetDataset != "" && contains(oa.TargetDatasets, sel.TargetDataset)
		} else {
			relevant = sel.TargetOntology != "" && contains(oa.TargetOntologies, sel.TargetOntology)
		}
		// A wildcard selector ({} / only source set) matches everything,
		// mirroring "retrieve all the relevant ontology alignments".
		if sel.TargetDataset == "" && sel.TargetOntology == "" {
			relevant = true
		}
		if relevant {
			out = append(out, oa.Alignments...)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
