// Package view implements the mediator's materialized-view tier: it
// mines frequent cross-vocabulary join shapes from the decomposed query
// stream, keeps their sameAs-canonicalised federated answer as rows, and
// hands those rows to a later query with a matching basic graph pattern,
// which the mediator plans as one fragment answered in process — zero
// endpoint round trips, no query text, no wire. This is the complement
// the paper's rewrite-vs-materialise experiment measures: rewriting trades
// freshness work at query time, the view trades it at refresh time.
//
// Soundness: a query is answered from a view only when its flattened BGP
// is identical to the view's covered shape modulo variable renaming,
// with ground IRIs compared after owl:sameAs canonicalisation. Two BGPs
// with one signature differ only by a renaming of their variables, so the
// view's rows are the query's BGP answer under the query's own names.
// Filters, projection, DISTINCT, ORDER BY and LIMIT run in the mediator's
// plan over those rows, so they need no containment argument. A view is
// never silently stale: voiD and alignment KB
// updates mark every view stale synchronously (before the KB update
// returns), stale views refuse to answer, and the refresh loop
// re-materializes them — discarding any result whose build raced a
// further invalidation (the epoch check).
package view

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// Options configures a Manager. The struct is comparable so callers can
// diff configurations across rebuilds.
type Options struct {
	// RefreshTTL re-materializes ready views this long after their last
	// refresh (0 = refresh only on invalidation).
	RefreshTTL time.Duration
	// MinFrequency is how often a join shape must be observed before it
	// is materialized.
	MinFrequency int
	// MaxViews caps how many views are kept.
	MaxViews int
	// Registry receives the sparqlrw_view_* metrics (nil = private).
	Registry *obs.Registry
	// Cards is the observed-cardinality store; its calibrated figures
	// refine a shape's size estimate before materialization.
	Cards *obs.CardStore
}

func (o Options) withDefaults() Options {
	if o.MinFrequency == 0 {
		o.MinFrequency = 2
	}
	if o.MaxViews == 0 {
		o.MaxViews = 8
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Runner is the view manager's window onto the federated pipeline,
// implemented by the mediator. Materialize runs the covering query the
// manager built, must bypass the view tier itself (no recursion, no
// re-mining) and report Complete=false whenever any data set failed — a
// view must never be built from a partial answer. Canonicalise maps ground
// IRIs to their owl:sameAs representatives with the same rule the
// federated merge uses: the manager matches, mines and re-keys shapes
// through it, so spelling differences do not defeat the signature match.
type Runner interface {
	Materialize(ctx context.Context, q *sparql.Query) (*MaterializeResult, error)
	Canonicalise(patterns []rdf.Triple) []rdf.Triple
}

// MaterializeResult is a drained federated SELECT: its rows over Vars,
// copied out of the stream that produced them.
type MaterializeResult struct {
	Vars []string
	Rows eval.RowBuf
	// Complete is true only when every data set answered successfully.
	Complete bool
	// Datasets are the data sets the run dispatched to.
	Datasets []string
}

// materializeTimeout bounds one view build.
const materializeTimeout = 30 * time.Second

// maxRows caps a view's size: a shape whose answer is estimated or built
// larger is disabled rather than half-stored.
const maxRows = 50000

// shape is a mined-but-not-yet-materialized join shape.
type shape struct {
	sig string
	// patternsOrig is the first-seen spelling of the BGP, used verbatim
	// for the materialization query (the rewrite/coref machinery expects
	// the user's IRIs, not their canonical representatives).
	patternsOrig []rdf.Triple
	// patternsCanon is the same BGP with ground IRIs canonicalised: the
	// view is keyed by its signature, and its rows' columns follow the
	// signature's variable order.
	patternsCanon []rdf.Triple
	// datasets are the data sets the miner saw the shape decompose over,
	// the cells refineEstimate reads.
	datasets []string
	estRows  int64
	count    int
	building bool
	disabled bool
	fails    int
}

// View is one materialized view: the covered shape plus the rows
// currently answering it and the data sets its last build dispatched to.
// All mutable fields are guarded by the owning Manager's mutex; a build's
// rows are never written after it, a refresh swaps in new ones.
type View struct {
	id        string
	def       *shape
	rows      eval.RowBuf
	datasets  []string
	stale     bool
	epoch     uint64
	created   time.Time
	refreshed time.Time
	hits      uint64
}

// ID returns the view's identifier (v1, v2, ...).
func (v *View) ID() string { return v.id }

// Manager mines shapes, owns the views and runs the refresh loop.
type Manager struct {
	runner Runner
	opts   Options

	// epoch advances on every invalidation; a build whose start epoch is
	// no longer current is discarded, so a view can never be published
	// over a KB state newer than its data.
	epoch atomic.Uint64

	mu     sync.Mutex
	closed bool // set by Close before wg.Wait; Observe must not wg.Add after it
	shapes map[string]*shape
	views  map[string]*View
	order  []string // signatures in creation order
	nextID int

	kick      chan struct{}
	baseCtx   context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup

	metrics managerMetrics
}

type managerMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	refreshes *obs.Counter
}

// NewManager returns a running manager.
func NewManager(runner Runner, opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		runner: runner,
		opts:   opts,
		shapes: map[string]*shape{},
		views:  map[string]*View{},
		kick:   make(chan struct{}, 1),
	}
	m.baseCtx, m.cancel = context.WithCancel(context.Background())
	reg := opts.Registry
	m.metrics = managerMetrics{
		hits: reg.Counter("sparqlrw_view_hits_total",
			"Queries answered from a materialized view."),
		misses: reg.Counter("sparqlrw_view_misses_total",
			"Queries checked against the view tier and not answered by it."),
		refreshes: reg.Counter("sparqlrw_view_refreshes_total",
			"View re-materializations (TTL and invalidation driven)."),
	}
	reg.GaugeFunc("sparqlrw_view_rows",
		"Rows currently materialized across all views.",
		func() float64 { return float64(m.Stats().Rows) })
	m.wg.Add(1)
	go m.loop()
	return m
}

// Close stops the refresh loop, cancels in-flight builds and drops
// every view.
func (m *Manager) Close() {
	if m == nil {
		return
	}
	m.closeOnce.Do(func() {
		// Flip closed under the same mutex Observe holds for its wg.Add:
		// once set, no new materialize goroutine can be added, so the
		// Wait below never races an Add at counter zero (WaitGroup misuse).
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		m.cancel()
		m.wg.Wait()
		m.mu.Lock()
		defer m.mu.Unlock()
		m.views = map[string]*View{}
		m.shapes = map[string]*shape{}
		m.order = nil
	})
}

// flatten extracts a SELECT query's basic graph pattern. ok is false
// for shapes the view tier does not cover: non-SELECT forms, OPTIONAL,
// UNION, sub-groups and VALUES. FILTER, projection, DISTINCT, ORDER BY
// and LIMIT are fine — the mediator's plan applies them to the view's
// rows.
func flatten(q *sparql.Query) ([]rdf.Triple, bool) {
	if q == nil || q.Form != sparql.Select || q.Where == nil {
		return nil, false
	}
	var patterns []rdf.Triple
	for _, el := range q.Where.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			patterns = append(patterns, e.Patterns...)
		case *sparql.Filter:
			// evaluated over the view's rows at answer time
		default:
			return nil, false
		}
	}
	if len(patterns) == 0 {
		return nil, false
	}
	return patterns, true
}

// signature canonicalises a BGP modulo variable renaming: patterns are
// sorted by a variable-independent key, variables renamed in first
// occurrence order, and the result serialised. Two BGPs get the same
// signature only if they are identical up to variable names (ground
// terms already canonicalised by the caller), so a signature match is a
// containment proof, not a heuristic. vars are the BGP's variables in
// renaming order: the i-th of two BGPs with one signature are the same
// variable under the renaming, so a view's rows bind a matching query's
// vars by position.
//
// Patterns that share a var-blind key are tie-broken by each variable's
// occurrence profile — the rename-invariant multiset of (var-blind key,
// position) sites where the variable appears across the whole BGP — so
// e.g. {?a p ?b . ?b p ?c} keys its patterns by join structure, not by
// input order. The tie-break is not a full graph canonicalisation:
// automorphic BGPs whose tied patterns also share occurrence profiles
// can still hash order-sensitively, costing only a missed hit
// (incompleteness), never an unsound answer.
func signature(patterns []rdf.Triple) (sig string, vars []string) {
	profiles := varProfiles(patterns)
	f := func(x rdf.Term, pos string) string {
		if x.Kind == rdf.KindVar {
			return "?" + pos + "{" + profiles[x.Value] + "}"
		}
		return x.String()
	}
	type keyed struct {
		key string
		t   rdf.Triple
	}
	sorted := make([]keyed, len(patterns))
	for i, t := range patterns {
		sorted[i] = keyed{f(t.S, "s") + " " + f(t.P, "p") + " " + f(t.O, "o"), t}
	}
	slices.SortStableFunc(sorted, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	var buf []byte
	for i, k := range sorted {
		if i > 0 {
			buf = append(buf, " . "...)
		}
		for j, x := range [3]rdf.Term{k.t.S, k.t.P, k.t.O} {
			if j > 0 {
				buf = append(buf, ' ')
			}
			if x.Kind != rdf.KindVar {
				buf = append(buf, x.String()...)
				continue
			}
			if !slices.Contains(vars, x.Value) {
				vars = append(vars, x.Value)
			}
			buf = strconv.AppendInt(append(buf, "?v"...), int64(slices.Index(vars, x.Value)), 10)
		}
	}
	return string(buf), vars
}

func varBlindKey(t rdf.Triple) string {
	f := func(x rdf.Term) string {
		if x.Kind == rdf.KindVar {
			return "?"
		}
		return x.String()
	}
	return f(t.S) + " " + f(t.P) + " " + f(t.O)
}

// varProfiles maps each variable name to its occurrence profile: the
// sorted multiset of (pattern var-blind key, position) sites where the
// variable occurs. Profiles depend only on BGP structure — never on
// variable names or pattern order — which makes them safe sort-key
// material for signature.
func varProfiles(patterns []rdf.Triple) map[string]string {
	occ := map[string][]string{}
	for _, t := range patterns {
		k := varBlindKey(t)
		for pos, x := range [3]rdf.Term{t.S, t.P, t.O} {
			if x.Kind == rdf.KindVar {
				occ[x.Value] = append(occ[x.Value], k+"#"+strconv.Itoa(pos))
			}
		}
	}
	out := make(map[string]string, len(occ))
	for v, sites := range occ {
		sort.Strings(sites)
		out[v] = strings.Join(sites, ",")
	}
	return out
}

// Hit is a ready view's answer to a query it covers: the rows of its last
// build, over Vars — the query's own variable names in the view's column
// order — and the data sets that build dispatched to.
type Hit struct {
	View     *View
	Vars     []string
	Rows     eval.RowBuf
	Datasets []string
}

// Answer returns the hit of a ready view that covers the query's BGP and
// may answer over the source set src (every data set its last build
// dispatched to is in src), its rows read under the lock that matched
// them. The caller counts the hit (CountHit) when it reads the rows, so
// explaining a query counts none; misses are counted here. Nil-manager
// safe.
func (m *Manager) Answer(q *sparql.Query, src voidkb.Sources) (Hit, bool) {
	if m == nil {
		return Hit{}, false
	}
	patterns, ok := flatten(q)
	if !ok {
		return Hit{}, false
	}
	sig, vars := signature(m.runner.Canonicalise(patterns))
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[sig]
	hit := v != nil && !v.stale
	for i := 0; hit && i < len(v.datasets); i++ {
		hit = src.Has(v.datasets[i])
	}
	if !hit {
		m.metrics.misses.Inc()
		return Hit{}, false
	}
	return Hit{View: v, Vars: vars, Rows: v.rows, Datasets: v.datasets}, true
}

// CountHit records a query actually served from v.
func (m *Manager) CountHit(v *View) {
	m.mu.Lock()
	v.hits++
	m.mu.Unlock()
	m.metrics.hits.Inc()
}

// Observe mines one decomposed (multi-source) query: its BGP shape is
// counted and, at MinFrequency, materialized asynchronously. estRows is
// the decomposer's calibrated cardinality estimate for the query; the
// observed-cardinality store may sharpen it further. Nil-manager safe.
func (m *Manager) Observe(q *sparql.Query, datasets []string, estRows int64) {
	if m == nil {
		return
	}
	patterns, ok := flatten(q)
	if !ok {
		return
	}
	pc := m.runner.Canonicalise(patterns)
	sig, _ := signature(pc)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if _, exists := m.views[sig]; exists {
		m.mu.Unlock()
		return
	}
	sh := m.shapes[sig]
	if sh == nil {
		sh = &shape{
			sig:           sig,
			patternsOrig:  append([]rdf.Triple(nil), patterns...),
			patternsCanon: pc,
			datasets:      append([]string(nil), datasets...),
			estRows:       estRows,
		}
		m.refineEstimate(sh)
		m.shapes[sig] = sh
	}
	sh.count++
	trigger := !sh.disabled && !sh.building &&
		sh.count >= m.opts.MinFrequency && len(m.views) < m.opts.MaxViews
	if trigger && sh.estRows > maxRows {
		sh.disabled = true
		trigger = false
	}
	if trigger {
		sh.building = true
		m.wg.Add(1)
	}
	m.mu.Unlock()
	if trigger {
		go func() {
			defer m.wg.Done()
			m.materialize(sh)
		}()
	}
}

// refineEstimate raises a shape's row estimate to the largest observed
// cardinality the PR-9 card store has recorded for any of its patterns
// at any of its source data sets — real actuals beat voiD guesses.
func (m *Manager) refineEstimate(sh *shape) {
	if m.opts.Cards == nil {
		return
	}
	for _, tp := range sh.patternsCanon {
		term, shp := obs.PatternStatKey(tp)
		if term == "" {
			continue
		}
		for _, ds := range sh.datasets {
			if card, _, ok := m.opts.Cards.Lookup(ds, term, shp); ok && int64(card) > sh.estRows {
				sh.estRows = int64(card)
			}
		}
	}
}

var errTooLarge = errors.New("view: materialized result exceeds the row cap")

// materializeQuery builds the shape's covering query: its variables, in
// the given (signature) order, over the original (uncanonicalised) BGP,
// filters dropped so the view covers every filtering of the shape. It
// orders the rows by those variables, so a view answers in one order
// whichever order the federation delivered them in.
func materializeQuery(sh *shape, vars []string) *sparql.Query {
	q := sparql.NewQuery(sparql.Select)
	q.SelectVars = vars
	q.Where = &sparql.GroupGraphPattern{Elements: []sparql.GroupElement{
		&sparql.BGP{Patterns: append([]rdf.Triple(nil), sh.patternsOrig...)},
	}}
	for _, v := range vars {
		q.OrderBy = append(q.OrderBy, sparql.OrderCondition{Expr: &sparql.TermExpr{Term: rdf.NewVar(v)}})
	}
	return q
}

// build runs the shape's covering query through the federated pipeline
// and returns its rows, their columns the given variables, with the data
// sets the run dispatched to. vars is an explicit parameter — not derived
// from sh — because a refresh recomputes the canonical shape, and the
// rows must follow the variable order of the signature the view will be
// keyed under, not whatever sh held when the build started.
func (m *Manager) build(sh *shape, vars []string) (eval.RowBuf, []string, error) {
	ctx, cancel := context.WithTimeout(m.baseCtx, materializeTimeout)
	defer cancel()
	res, err := m.runner.Materialize(ctx, materializeQuery(sh, vars))
	switch {
	case err != nil:
		return eval.RowBuf{}, nil, err
	case !res.Complete:
		return eval.RowBuf{}, nil, errors.New("view: partial federated answer (some data set failed)")
	case !slices.Equal(res.Vars, vars):
		return eval.RowBuf{}, nil, fmt.Errorf("view: build answered columns %v, want %v", res.Vars, vars)
	case res.Rows.N > maxRows:
		return eval.RowBuf{}, nil, errTooLarge
	}
	return res.Rows, res.Datasets, nil
}

// materialize builds a mined shape into a view and publishes it. A build
// that raced an invalidation is discarded: the data may predate the KB
// change.
func (m *Manager) materialize(sh *shape) {
	e0 := m.epoch.Load()
	_, vars := signature(sh.patternsCanon)
	rows, datasets, err := m.build(sh, vars)
	m.mu.Lock()
	defer m.mu.Unlock()
	sh.building = false
	if err != nil {
		sh.fails++
		if errors.Is(err, errTooLarge) || sh.fails >= 3 {
			sh.disabled = true
		}
		return
	}
	if m.epoch.Load() != e0 {
		sh.count = 0 // re-mine against the new KB state
		return
	}
	if len(m.views) >= m.opts.MaxViews {
		return
	}
	m.nextID++
	v := &View{
		id:        "v" + strconv.Itoa(m.nextID),
		def:       sh,
		rows:      rows,
		datasets:  datasets,
		epoch:     e0,
		created:   time.Now(),
		refreshed: time.Now(),
	}
	delete(m.shapes, sh.sig)
	m.views[sh.sig] = v
	m.order = append(m.order, sh.sig)
}

// InvalidateAll marks every view stale and drops mined-but-unbuilt
// shapes: a voiD or alignment KB change can move any answer. It runs
// synchronously inside the KBs' Subscribe hooks, so no query admitted
// after the KB update can be answered from an outdated view, and
// schedules the refreshes. Nil-manager safe.
func (m *Manager) InvalidateAll() {
	if m == nil {
		return
	}
	m.epoch.Add(1)
	m.mu.Lock()
	n := len(m.views)
	for _, v := range m.views {
		v.stale = true
	}
	m.shapes = map[string]*shape{}
	m.mu.Unlock()
	if n > 0 {
		m.kickRefresh()
	}
}

func (m *Manager) kickRefresh() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// loop is the background refresher: invalidation kicks refresh stale
// views immediately, the TTL ticker re-materializes ready views whose
// data has aged past RefreshTTL.
func (m *Manager) loop() {
	defer m.wg.Done()
	var tickC <-chan time.Time
	if m.opts.RefreshTTL > 0 {
		t := time.NewTicker(m.opts.RefreshTTL)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-m.kick:
			m.refresh(false)
		case <-tickC:
			m.refresh(true)
		}
	}
}

func (m *Manager) refresh(ttl bool) {
	m.mu.Lock()
	now := time.Now()
	var todo []*View
	for _, sig := range m.order {
		v := m.views[sig]
		if v == nil {
			continue
		}
		if v.stale || (ttl && now.Sub(v.refreshed) >= m.opts.RefreshTTL) {
			todo = append(todo, v)
		}
	}
	m.mu.Unlock()
	for _, v := range todo {
		if m.baseCtx.Err() != nil {
			return
		}
		m.refreshView(v)
	}
}

// refreshView re-materializes one view. The canonical shape (and with it
// the signature) is recomputed each refresh, since the sameAs closure
// backing canonicalisation may have moved. A build that raced a further
// invalidation is retried up to three times; a view that cannot be
// rebuilt stays stale — it refuses queries, it never lies.
func (m *Manager) refreshView(v *View) {
	for attempt := 0; attempt < 3; attempt++ {
		e0 := m.epoch.Load()
		// Recompute the canonical shape first and build in its signature's
		// variable order: the rebuilt rows must bind the variables of the
		// signature the refreshed view is published under.
		pc := m.runner.Canonicalise(v.def.patternsOrig)
		newSig, vars := signature(pc)
		rows, datasets, err := m.build(v.def, vars)
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.epoch.Load() != e0 {
			m.mu.Unlock()
			continue
		}
		if newSig != v.def.sig {
			delete(m.views, v.def.sig)
			for i, sig := range m.order {
				if sig == v.def.sig {
					m.order[i] = newSig
				}
			}
			v.def.sig = newSig
			m.views[newSig] = v
		}
		v.def.patternsCanon = pc
		v.rows, v.datasets = rows, datasets
		v.stale = false
		v.epoch = e0
		v.refreshed = time.Now()
		m.mu.Unlock()
		m.metrics.refreshes.Inc()
		return
	}
}

// Info is one view's descriptor for /api/views and the dashboard.
type Info struct {
	ID        string    `json:"id"`
	Patterns  []string  `json:"patterns"`
	Signature string    `json:"signature"`
	Datasets  []string  `json:"datasets"`
	State     string    `json:"state"` // ready | stale
	Rows      int       `json:"rows"`
	Hits      uint64    `json:"hits"`
	Epoch     uint64    `json:"epoch"`
	Created   time.Time `json:"created"`
	Refreshed time.Time `json:"refreshed"`
}

// Stats is the view tier's observability snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Refreshes uint64 `json:"refreshes"`
	Rows      int    `json:"rows"`
	// MinedShapes counts shapes observed but not (yet) materialized.
	MinedShapes int    `json:"minedShapes"`
	Views       []Info `json:"views"`
}

// Stats returns a snapshot of the manager's counters and views.
// Nil-manager safe (returns the zero snapshot).
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{Views: []Info{}}
	}
	st := Stats{
		Hits:      uint64(m.metrics.hits.Value()),
		Misses:    uint64(m.metrics.misses.Value()),
		Refreshes: uint64(m.metrics.refreshes.Value()),
		Views:     []Info{},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sig := range m.order {
		v := m.views[sig]
		if v == nil {
			continue
		}
		state := "ready"
		if v.stale {
			state = "stale"
		}
		patterns := make([]string, len(v.def.patternsCanon))
		for i, t := range v.def.patternsCanon {
			patterns[i] = sparql.FormatTriplePattern(t, nil)
		}
		st.Rows += v.rows.N
		st.Views = append(st.Views, Info{
			ID:        v.id,
			Patterns:  patterns,
			Signature: v.def.sig,
			Datasets:  append([]string(nil), v.datasets...),
			State:     state,
			Rows:      v.rows.N,
			Hits:      v.hits,
			Epoch:     v.epoch,
			Created:   v.created,
			Refreshed: v.refreshed,
		})
	}
	st.MinedShapes = len(m.shapes)
	return st
}
