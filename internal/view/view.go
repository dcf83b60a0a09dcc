// Package view implements the mediator's materialized-view tier: it
// mines the frequent fragments of federated plans — the plain BGPs the
// planner sends to endpoints, a whole query's or a join group's — keeps
// their sameAs-canonicalised federated answer as rows, and answers a later
// fragment with a matching BGP from them in process: no round trip, no
// query text, no wire; as a bound join's right operand, through a hash
// index on the join columns. This is the complement the paper's
// rewrite-vs-materialise experiment measures: rewriting trades freshness
// work at query time, the view trades it at refresh time.
//
// Soundness: a fragment is answered from a view only when its BGP is
// identical to the view's covered shape modulo variable renaming (ground
// IRIs compared after owl:sameAs canonicalisation) and the view's last
// build dispatched to exactly the fragment's targets, so the view's rows
// are the fragment's merged answer under its own names. Joins, residual
// FILTERs and modifiers run in the mediator's plan over those rows, so
// they need no containment argument. A fragment with a FILTER of its own
// is never answered: an endpoint runs it over its own spelling of each
// IRI, which a view's canonical rows do not keep. A view is never
// silently stale: voiD and alignment KB updates mark every view stale
// synchronously (before the KB update returns) and schedule its rebuild.
// A fragment that meets a stale view waits for that rebuild, bounded by
// its request's context, and is answered only from a build published at
// the current KB state (the epoch check); a failed, partial or discarded
// build sends it to the endpoints. The rebuilds run concurrently, one a
// view. A view nobody hit since its last build is dropped when its
// refresh comes due, by invalidation or by TTL, freeing its slot for a
// shape that is in use.
package view

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// Options configures a Manager.
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
// manager built over the data sets the mined fragment targeted (none:
// every registered one), so no build reaches a repository the fragment's
// request could not; it must bypass the view tier itself (no recursion,
// no re-mining) and report Complete=false whenever any data set failed —
// a view must never be built from a partial answer. Canonical maps a
// ground IRI to its owl:sameAs representative with the same rule the
// federated merge uses: the manager matches, mines and re-keys shapes
// through it, so spelling differences do not defeat the signature match.
type Runner interface {
	Materialize(ctx context.Context, q *sparql.Query, datasets []string) (*MaterializeResult, error)
	Canonical(t rdf.Term) rdf.Term
}

// canonicalise appends patterns to dst with every term canonical.
func (m *Manager) canonicalise(dst, patterns []rdf.Triple) []rdf.Triple {
	for _, t := range patterns {
		dst = append(dst, rdf.Triple{S: m.runner.Canonical(t.S), P: m.runner.Canonical(t.P), O: m.runner.Canonical(t.O)})
	}
	return dst
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

// The view tier's decision for a fragment, as Answer reports it and the
// fragment's "view.match" trace span records it.
const (
	// ReasonHit: a ready view answers the fragment.
	ReasonHit = "hit"
	// ReasonWaited: the fragment's view was stale with a rebuild pending,
	// and answers from that rebuild.
	ReasonWaited = "waited"
	// ReasonStale: the fragment's view is stale, and no build at the
	// current KB state answers it (none pending, or the wait ended
	// without one).
	ReasonStale = "stale"
	// ReasonAbsent: no view holds the fragment's shape over its targets.
	ReasonAbsent = "absent"
)

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
	// datasets are the targets of the fragment the miner saw the shape
	// in: the data sets its builds run over, and the cells refineEstimate
	// reads.
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
	rows      *eval.Indexed
	datasets  []string
	stale     bool
	epoch     uint64
	created   time.Time
	refreshed time.Time
	hits      uint64
	// builtHits is hits when the last build was published: a view whose
	// hits have not moved since is dropped when its refresh comes due.
	builtHits uint64
	// rebuilt is set with stale, and closed when the rebuild pending for
	// the view's current stale state ends — published, failed or
	// discarded by a further invalidation; nil while none is pending.
	// Fragments that meet the stale view wait on it.
	rebuilt chan struct{}
	// rebuilding is set while a refresh goroutine works on the view.
	rebuilding bool
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
	evictions *obs.Counter
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
			"Fragments answered from a materialized view."),
		misses: reg.Counter("sparqlrw_view_misses_total",
			"Fragments the endpoints answered while the view tier was on."),
		refreshes: reg.Counter("sparqlrw_view_refreshes_total",
			"View re-materializations (TTL and invalidation driven)."),
		evictions: reg.Counter("sparqlrw_view_evictions_total",
			"Views dropped when their refresh came due, having had no hit since their last build."),
	}
	reg.GaugeFunc("sparqlrw_view_rows",
		"Rows currently materialized across all views.",
		func() float64 { return float64(m.Stats().Rows) })
	m.wg.Add(1)
	go m.loop()
	return m
}

// Close stops the refresh loop, cancels in-flight builds, releases every
// fragment waiting for a rebuild (to the endpoints) and drops every view.
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

// appendSignature appends the BGP's signature to dst, canonical modulo
// variable renaming: patterns sorted by a variable-independent key,
// variables renamed in first occurrence order, the result serialised. Two
// BGPs get the same signature only if they are identical up to variable
// names (ground terms already canonicalised by the caller), so a
// signature match is a containment proof, not a heuristic. vars are the
// BGP's variables in renaming order: the i-th of two BGPs with one
// signature are the same variable under the renaming, so a view's rows
// bind a matching fragment's vars by position.
//
// A pattern's sort key is its terms in turn: a ground term before a
// variable, ground terms by value, variables by their occurrence profile
// — the rename-invariant multiset of (var-blind pattern, position) sites
// where the variable appears, hashed — so e.g. {?a p ?b . ?b p ?c} orders
// its patterns by join structure, not by input order. Automorphic BGPs
// whose tied patterns also share profiles (or profile hashes) can still
// sort order-sensitively, costing only a missed hit, never an unsound
// answer: the serialisation itself is exact.
func appendSignature(dst []byte, patterns []rdf.Triple) (sig []byte, vars []string) {
	profiles := map[string]uint64{}
	for _, t := range patterns {
		site := varBlindHash(t)
		for pos, x := range [3]rdf.Term{t.S, t.P, t.O} {
			if x.Kind == rdf.KindVar { // a sum: the sites' order does not count
				profiles[x.Value] += (site ^ uint64(pos+1)) * fnvPrime
			}
		}
	}
	compareTerms := func(x, y rdf.Term) int {
		switch xv, yv := x.Kind == rdf.KindVar, y.Kind == rdf.KindVar; {
		case xv && yv:
			return cmp.Compare(profiles[x.Value], profiles[y.Value])
		case xv: // a ground term first
			return 1
		case yv:
			return -1
		}
		return cmp.Or(cmp.Compare(x.Kind, y.Kind), strings.Compare(x.Value, y.Value),
			strings.Compare(x.Datatype, y.Datatype), strings.Compare(x.Lang, y.Lang))
	}
	var small [8]int
	order := small[:0]
	for i := range patterns {
		order = append(order, i)
	}
	vars = make([]string, 0, 3*len(patterns))
	slices.SortStableFunc(order, func(a, b int) int {
		p, q := patterns[a], patterns[b]
		return cmp.Or(compareTerms(p.S, q.S), compareTerms(p.P, q.P), compareTerms(p.O, q.O))
	})
	for n, i := range order {
		if n > 0 {
			dst = append(dst, " . "...)
		}
		for j, x := range [3]rdf.Term{patterns[i].S, patterns[i].P, patterns[i].O} {
			if j > 0 {
				dst = append(dst, ' ')
			}
			switch k := slices.Index(vars, x.Value); {
			case x.Kind == rdf.KindIRI:
				dst = rdf.AppendIRI(dst, x.Value)
			case x.Kind != rdf.KindVar:
				dst = append(dst, x.String()...)
			case k < 0:
				vars = append(vars, x.Value)
				k = len(vars) - 1
				fallthrough
			default:
				dst = strconv.AppendInt(append(dst, "?v"...), int64(k), 10)
			}
		}
	}
	return dst, vars
}

const fnvPrime = 1099511628211

// varBlindHash hashes a pattern with its variables blanked out (FNV-1a):
// the site a variable's profile counts an occurrence at.
func varBlindHash(t rdf.Triple) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range [3]rdf.Term{t.S, t.P, t.O} {
		h = (h ^ uint64(x.Kind)) * fnvPrime
		for _, s := range [3]string{x.Value, x.Datatype, x.Lang} {
			for i := 0; i < len(s) && x.Kind != rdf.KindVar; i++ {
				h = (h ^ uint64(s[i])) * fnvPrime
			}
			h = (h ^ 0xff) * fnvPrime
		}
	}
	return h
}

// Hit is a ready view's answer to a fragment it covers: the rows of its
// last build, over Vars — the fragment's own variable names in the view's
// column order. It is the fragment's plan leaf (decompose.LocalRows).
type Hit struct {
	View *View
	Vars []string
	Rows *eval.Indexed
	m    *Manager
}

// Fetch yields the hit's rows on a "view" operator span — as a join's
// right operand only those whose cells match a key of the join's seed,
// else all — and returns how many it yielded. It counts the hit, so
// explaining a query, which reads no rows, counts none.
func (h *Hit) Fetch(ctx context.Context, seed *eval.Seed, yield func(eval.Row) bool) (int, error) {
	_, span := obs.StartSpan(ctx, "view")
	span.SetString("view", h.View.id)
	h.m.mu.Lock()
	h.View.hits++
	h.m.mu.Unlock()
	h.m.metrics.hits.Inc()
	st := obs.Operator("view")
	st.RowsOut = 0
	count := func(r eval.Row) bool { st.RowsOut++; return yield(r) }
	if seed == nil || len(seed.Vars) == 0 {
		for i := 0; i < h.Rows.N && count(h.Rows.Row(i)); i++ {
		}
	} else {
		var small [4]int
		cols := small[:0]
		for _, v := range seed.Vars {
			cols = append(cols, slices.Index(h.Vars, v))
		}
		st.RowsIn = int64(seed.Left)
		h.Rows.Probe(cols, &seed.Keys, count)
	}
	span.SetOperator(st)
	span.End()
	return int(st.RowsOut), nil
}

// Answer returns the hit of a view published at the current KB state
// whose shape is the BGP patterns (nil when the fragment is none) and
// whose last build dispatched to exactly datasets, a fragment's targets
// (so inside the request's source set), its rows read under the lock that
// matched them; and the reason for its decision (Reason*), which a
// "view.match" span of ctx's trace records. A stale view with a rebuild
// pending is waited for, until the rebuild ends, ctx is done or the
// manager closes, on a "view.wait" span; then the same checks run again,
// so the fragment is answered from the new build or from the endpoints,
// never from the old rows. Reading the rows counts the hit (Fetch), and
// Observe the miss, so explaining counts neither. Nil-manager safe: it
// returns no reason and opens no span.
func (m *Manager) Answer(ctx context.Context, patterns []rdf.Triple, datasets []string) (*Hit, string) {
	if m == nil {
		return nil, ""
	}
	sctx, span := obs.StartSpan(ctx, "view.match")
	defer span.End()
	if len(patterns) == 0 {
		span.SetString("reason", ReasonAbsent)
		return nil, ReasonAbsent
	}
	var canon [8]rdf.Triple
	var buf [256]byte
	sig, vars := appendSignature(buf[:0], m.canonicalise(canon[:0], patterns))
	m.mu.Lock()
	v := m.views[string(sig)]
	waited := false
	if v != nil && v.rebuilt != nil && v.builtFrom(datasets) {
		rebuilt := v.rebuilt
		m.mu.Unlock()
		_, wait := obs.StartSpan(sctx, "view.wait")
		wait.SetString("view", v.id)
		select {
		case <-rebuilt:
		case <-ctx.Done():
		case <-m.baseCtx.Done():
		}
		wait.End()
		waited = true
		m.mu.Lock()
		v = m.views[string(sig)]
	}
	reason := ReasonHit
	switch {
	case v == nil || !v.builtFrom(datasets):
		reason = ReasonAbsent
	case v.stale || v.epoch != m.epoch.Load():
		reason = ReasonStale
	case waited:
		reason = ReasonWaited
	}
	var hit *Hit
	if reason == ReasonHit || reason == ReasonWaited {
		hit = &Hit{View: v, Vars: vars, Rows: v.rows, m: m}
	}
	m.mu.Unlock()
	if v != nil {
		span.SetString("view", v.id)
	}
	span.SetString("reason", reason)
	return hit, reason
}

// builtFrom reports whether the view's last build dispatched to exactly
// datasets. The caller holds the manager's mutex.
func (v *View) builtFrom(datasets []string) bool {
	if len(v.datasets) != len(datasets) {
		return false
	}
	for _, ds := range datasets {
		if !slices.Contains(v.datasets, ds) {
			return false
		}
	}
	return true
}

// Observe counts a view miss: a fragment the endpoints answered. Its BGP,
// patterns (nil when it is none), is mined and, at MinFrequency,
// materialized asynchronously over its targets' data sets, datasets;
// estRows is its calibrated cardinality estimate, which the
// observed-cardinality store may sharpen. Nil-manager safe.
func (m *Manager) Observe(patterns []rdf.Triple, datasets []string, estRows int64) {
	if m == nil {
		return
	}
	m.metrics.misses.Inc()
	if len(patterns) == 0 {
		return
	}
	pc := m.canonicalise(nil, patterns)
	var buf [256]byte
	sig, _ := appendSignature(buf[:0], pc)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if _, exists := m.views[string(sig)]; exists {
		m.mu.Unlock()
		return
	}
	sh := m.shapes[string(sig)]
	if sh == nil {
		sh = &shape{
			sig:           string(sig),
			patternsOrig:  append([]rdf.Triple(nil), patterns...),
			patternsCanon: pc,
			datasets:      append([]string(nil), datasets...),
			estRows:       estRows,
		}
		m.refineEstimate(sh)
		m.shapes[sh.sig] = sh
	}
	sh.count++
	trigger := !sh.disabled && !sh.building &&
		sh.count >= m.opts.MinFrequency && len(m.views) < m.opts.MaxViews
	if trigger && sh.estRows > eval.MaxHeldRows {
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

var errTooLarge = errors.New("view: materialized result exceeds the held-rows cap")

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
func (m *Manager) build(sh *shape, vars []string) (*eval.Indexed, []string, error) {
	ctx, cancel := context.WithTimeout(m.baseCtx, materializeTimeout)
	defer cancel()
	res, err := m.runner.Materialize(ctx, materializeQuery(sh, vars), sh.datasets)
	switch {
	case err != nil:
		return nil, nil, err
	case !res.Complete:
		return nil, nil, errors.New("view: partial federated answer (some data set failed)")
	case !slices.Equal(res.Vars, vars):
		return nil, nil, fmt.Errorf("view: build answered columns %v, want %v", res.Vars, vars)
	case res.Rows.N > eval.MaxHeldRows:
		return nil, nil, errTooLarge
	}
	return &eval.Indexed{RowBuf: res.Rows}, res.Datasets, nil
}

// materialize builds a mined shape into a view and publishes it. A build
// that raced an invalidation is discarded: the data may predate the KB
// change; so is one whose shape another build, mined anew after an
// invalidation dropped the shape, published first.
func (m *Manager) materialize(sh *shape) {
	e0 := m.epoch.Load()
	_, vars := appendSignature(nil, sh.patternsCanon)
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
	if len(m.views) >= m.opts.MaxViews || m.views[sh.sig] != nil {
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
// after the KB update can be answered from an outdated view. A view hit
// since its last build gets a rebuild, which fragments that meet it wait
// for (a rebuild already running is discarded, its waiters released); a
// view nobody hit is dropped. Nil-manager safe.
func (m *Manager) InvalidateAll() {
	if m == nil {
		return
	}
	m.epoch.Add(1)
	m.mu.Lock()
	pending := 0
	for _, sig := range slices.Clone(m.order) {
		v := m.views[sig]
		if v.hits == v.builtHits {
			m.drop(v)
			continue
		}
		v.stale = true
		if v.rebuilt != nil {
			close(v.rebuilt)
		}
		v.rebuilt = make(chan struct{})
		pending++
	}
	m.shapes = map[string]*shape{}
	m.mu.Unlock()
	if pending > 0 {
		m.kickRefresh()
	}
}

// drop evicts a view, releasing any fragment waiting for its rebuild; its
// shape can be mined again. The caller holds the mutex.
func (m *Manager) drop(v *View) {
	delete(m.views, v.def.sig)
	m.order = slices.DeleteFunc(m.order, func(sig string) bool { return sig == v.def.sig })
	if v.rebuilt != nil {
		close(v.rebuilt)
		v.rebuilt = nil
	}
	m.metrics.evictions.Inc()
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

// refresh starts a rebuild of every view whose refresh is due — stale, or
// under ttl aged past RefreshTTL — and not already rebuilding, each on a
// goroutine of its own, so at most MaxViews run at once; a due view
// nobody hit since its last build is dropped instead.
func (m *Manager) refresh(ttl bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	now := time.Now()
	for _, sig := range slices.Clone(m.order) {
		v := m.views[sig]
		if v.rebuilding || !v.stale && !(ttl && now.Sub(v.refreshed) >= m.opts.RefreshTTL) {
			continue
		}
		if v.hits == v.builtHits {
			m.drop(v)
			continue
		}
		v.rebuilding = true
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.refreshView(v)
		}()
	}
}

// refreshView re-materializes one view. The canonical shape (and with it
// the signature) is recomputed each refresh, since the sameAs closure
// backing canonicalisation may have moved. A build that raced a further
// invalidation is discarded and run again while the view is kept; a view
// that cannot be rebuilt stays stale — it refuses queries, it never lies.
// Either way the rebuild's end releases the fragments waiting for it.
func (m *Manager) refreshView(v *View) {
	for {
		e0 := m.epoch.Load()
		// Recompute the canonical shape first and build in its signature's
		// variable order: the rebuilt rows must bind the variables of the
		// signature the refreshed view is published under.
		pc := m.canonicalise(nil, v.def.patternsOrig)
		sig, vars := appendSignature(nil, pc)
		rows, datasets, err := m.build(v.def, vars)
		m.mu.Lock()
		held := m.views[v.def.sig] == v
		if err == nil && held && m.epoch.Load() != e0 {
			m.mu.Unlock()
			continue
		}
		if err == nil && held {
			m.publish(v, string(sig), pc, rows, datasets, e0)
		}
		v.rebuilding = false
		if v.rebuilt != nil {
			close(v.rebuilt)
			v.rebuilt = nil
		}
		m.mu.Unlock()
		return
	}
}

// publish swaps a rebuild built at epoch e0 into v, keyed under the
// signature newSig of its canonical shape pc — or drops v when another
// view already holds that signature. The caller holds the mutex.
func (m *Manager) publish(v *View, newSig string, pc []rdf.Triple, rows *eval.Indexed, datasets []string, e0 uint64) {
	if newSig != v.def.sig {
		if m.views[newSig] != nil {
			m.drop(v)
			return
		}
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
	v.builtHits = v.hits
	m.metrics.refreshes.Inc()
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
	// Evictions counts views dropped, having had no hit since their last
	// build when their refresh came due.
	Evictions uint64 `json:"evictions"`
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
		Evictions: uint64(m.metrics.evictions.Value()),
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
