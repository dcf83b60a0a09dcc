package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sparqlrw/internal/lru"
	"sparqlrw/internal/rdf"
)

// QErrorBuckets are the histogram bounds for sparqlrw_estimate_qerror:
// 1 is a perfect estimate, 1000 a three-orders-of-magnitude miss.
var QErrorBuckets = []float64{1, 1.25, 1.5, 2, 3, 5, 10, 25, 100, 1000}

// QError is the standard cardinality-estimation error measure:
// max(est/actual, actual/est), always >= 1. Non-positive inputs are
// clamped to 1 (an operator that produced zero rows against a zero
// estimate is a perfect estimate, not a division by zero).
func QError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// PatternShape encodes which positions of a triple pattern were ground
// (constant) at estimation time: subject then object, "g" for ground,
// "?" for variable. The predicate is part of the key term itself.
func PatternShape(subjectGround, objectGround bool) string {
	switch {
	case subjectGround && objectGround:
		return "gg"
	case subjectGround:
		return "g?"
	case objectGround:
		return "?g"
	}
	return "??"
}

// PatternStatKey maps a triple pattern onto its observed-cardinality
// cell: the class IRI for rdf:type patterns, the predicate IRI otherwise
// ("" for variable predicates), plus the ground-position shape. An
// rdf:type object counts as part of the term, not as a ground object.
// Writers (the decomposer's observations) and readers (its estimates,
// the view tier's size screen) all key through here.
func PatternStatKey(tp rdf.Triple) (term, shape string) {
	isType := tp.P.IsIRI() && tp.P.Value == rdf.RDFType
	if isType && tp.O.IsIRI() {
		term = tp.O.Value
	} else if tp.P.IsIRI() {
		term = tp.P.Value
	}
	return term, PatternShape(tp.S.IsGround(), tp.O.IsGround() && !isType)
}

// cardKey identifies one observed-cardinality cell: a dataset, the
// pattern's predicate (or rdf:type class) IRI, and the pattern shape.
type cardKey struct {
	Dataset string `json:"dataset"`
	Term    string `json:"term,omitempty"`
	Shape   string `json:"shape"`
}

// cardCell is one cell's state: an EWMA of observed result
// cardinalities and the observation count.
type cardCell struct {
	Card float64 `json:"card"`
	Obs  int64   `json:"obs"`
}

// cardLine is the JSONL persistence shape of one cell.
type cardLine struct {
	cardKey
	cardCell
}

// CardStore tuning. The EWMA alpha weights recent observations enough to
// track drift within a handful of queries without letting one outlier
// result dominate; the correction cap bounds how far an observed
// cardinality may pull a voiD estimate, so a corrupted observation can
// reorder fragments but never produce a pathological plan.
const (
	cardCapacity  = 4096
	cardAlpha     = 0.3
	correctionCap = 100.0
	cardFileName  = "cards.jsonl"
)

// CardStore is the observed-cardinality feedback store: an LRU of
// per-(dataset, predicate/class, pattern-shape) result cardinalities
// smoothed with an EWMA. Execution layers feed it actuals via Observe;
// the decomposer consults it via Correct to fix voiD estimates that
// observation has contradicted. Estimate quality is exported as the
// sparqlrw_estimate_qerror histogram per dataset regardless of whether
// corrections are enabled, so drift is visible before it hurts plans.
//
// All methods are nil-safe no-ops, so wiring the store through layers
// costs nothing when it is disabled.
type CardStore struct {
	adaptive bool
	path     string // JSONL persistence file; "" disables persistence

	qerr *HistogramVec // per-dataset q-error; nil when no registry

	mu    sync.Mutex
	cells *lru.Cache[cardKey, cardCell]
}

// CardStoreOptions tune a CardStore.
type CardStoreOptions struct {
	// Dir, when set, persists the store as cards.jsonl in this directory
	// (loaded on construction, written on Flush/Close).
	Dir string
	// Registry, when set, receives the sparqlrw_estimate_qerror histogram.
	Registry *Registry
	// Adaptive enables Correct; when false the store still records and
	// exports calibration but never alters an estimate.
	Adaptive bool
}

// NewCardStore builds a store and loads any persisted entries.
func NewCardStore(opts CardStoreOptions) *CardStore {
	c := &CardStore{adaptive: opts.Adaptive, cells: lru.New[cardKey, cardCell](cardCapacity)}
	if opts.Dir != "" {
		c.path = filepath.Join(opts.Dir, cardFileName)
		c.load()
	}
	if opts.Registry != nil {
		c.qerr = opts.Registry.HistogramVec("sparqlrw_estimate_qerror",
			"Cardinality estimation q-error (max(est/actual, actual/est)) per dataset.",
			QErrorBuckets, "dataset")
	}
	return c
}

// Epoch returns the store's invalidation epoch: snapshot it before the
// query whose actuals Observe will record.
func (c *CardStore) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells.Epoch()
}

// Observe records one (estimate, actual) pair for a pattern cell: the
// EWMA absorbs the actual and the q-error histogram absorbs the
// calibration sample. Zero or negative actuals still update the EWMA
// toward 1 (the pattern matched nothing) but never divide by zero. An
// actual from a query that began before an Invalidate or Flush — epoch
// is older than the store's — was taken against the old data: the
// histogram still counts it, the cell does not.
func (c *CardStore) Observe(dataset, term, shape string, est, actual int64, epoch uint64) {
	if c == nil || dataset == "" {
		return
	}
	if c.qerr != nil && est > 0 {
		c.qerr.With(dataset).Observe(QError(float64(est), float64(actual)))
	}
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	key := cardKey{Dataset: dataset, Term: term, Shape: shape}
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.cells.Get(key)
	if ok {
		cell.Card = (1-cardAlpha)*cell.Card + cardAlpha*a
		cell.Obs++
	} else {
		cell = cardCell{Card: a, Obs: 1}
	}
	c.cells.Put(key, cell, epoch)
}

// Correct returns the estimate corrected toward the observed
// cardinality for the cell, clamped to [est/cap, est*cap] so a bad
// observation cannot produce a pathological plan. Returns est unchanged
// when corrections are disabled or the cell has never been observed.
func (c *CardStore) Correct(dataset, term, shape string, est int64) int64 {
	if c == nil || !c.adaptive || dataset == "" {
		return est
	}
	observed, _, ok := c.Lookup(dataset, term, shape)
	if !ok {
		return est
	}
	lo, hi := float64(est)/correctionCap, float64(est)*correctionCap
	corrected := observed
	if corrected < lo {
		corrected = lo
	}
	if corrected > hi {
		corrected = hi
	}
	if corrected < 1 {
		corrected = 1
	}
	return int64(corrected)
}

// Lookup returns the EWMA-observed cardinality and observation count
// for a cell, or ok=false when it has never been observed. A found cell
// becomes the most recently used.
func (c *CardStore) Lookup(dataset, term, shape string) (card float64, obs int64, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.cells.Get(cardKey{Dataset: dataset, Term: term, Shape: shape})
	return cell.Card, cell.Obs, ok
}

// Len returns the number of stored cells.
func (c *CardStore) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells.Len()
}

// Invalidate drops every cell for one dataset — called from the voiD KB
// Subscribe hook when a dataset's statistics change, since observations
// made against the old data no longer predict the new.
func (c *CardStore) Invalidate(dataset string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells.RemoveFunc(func(k cardKey, _ cardCell) bool { return k.Dataset == dataset })
}

// Flush drops every cell — called from the alignment KB Subscribe hook:
// alignment changes rewrite which patterns reach which dataset, so all
// prior observations are suspect.
func (c *CardStore) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells.Clear()
}

// load reads persisted entries (oldest line first, so later lines win
// LRU recency). Unreadable lines are skipped.
func (c *CardStore) load() {
	f, err := os.Open(c.path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var cl cardLine
		if json.Unmarshal(line, &cl) != nil || cl.Dataset == "" || cl.Obs <= 0 {
			continue
		}
		c.cells.Put(cl.cardKey, cl.cardCell, c.cells.Epoch())
	}
}

// Persist writes the store as JSONL (least recently used first, so a
// reload preserves recency order). No-op without a persistence path.
func (c *CardStore) Persist() error {
	if c == nil || c.path == "" {
		return nil
	}
	c.mu.Lock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for k, cell := range c.cells.All() {
		enc.Encode(cardLine{k, cell})
	}
	c.mu.Unlock()
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("obs: cardstore persist: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("obs: cardstore persist: %w", err)
	}
	return nil
}

// Close persists the store. Nil-safe and idempotent.
func (c *CardStore) Close() {
	_ = c.Persist()
}
