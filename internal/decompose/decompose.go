// Package decompose is the mediator's one planner, between source
// selection (internal/plan) and the federation executor
// (internal/federate): every query becomes a decomposition whose fragments
// are the remote leaves of an evaluator plan (internal/eval), with the
// joins, FILTERs and solution modifiers above them.
//
// A query that some data sets answer whole (their cover) is one whole
// fragment: the query itself in any shape — OPTIONAL, UNION, VALUES and
// nested groups stay — less the modifiers that apply above the merge,
// VALUES-sharded and sent to every data set of the cover, fastest first.
//
// Any fragment that is a plain BGP, whole or a group, may instead be
// answered in process from a materialized view's rows (AnswerFrom). A
// fragment with FILTERs never is: an endpoint runs them over its own
// spelling of each IRI, a view's rows hold the owl:sameAs representative.
//
// A query no data set covers must be a plain filtered BGP, split by its
// patterns' sources into exclusive groups (FedQPL, FedX; see PAPERS.md): a
// data set's patterns that no other data set answers go out as one
// sub-query, so the endpoint joins them locally; a pattern several data
// sets answer is a shared fragment, unioned by the executor's merge. A
// pattern without a source, or any other shape, is refused.
//
// Groups are ordered cheapest-first by voiD statistics (void:triples,
// void:propertyPartition, void:classPartition — internal/voidkb) and
// joined left to right by the evaluator's hash join, whose remote right
// operand receives the left side's keys. A bound join ships them as
// VALUES shards injected into the fragment's sub-query, one block per
// target: the merge canonicalised the keys to owl:sameAs representatives,
// and each target receives every key in the spellings the planner's owner
// lookup (plan.Owners) lets it hold, each row once. Where the fragment, a
// filtered BGP, binds the key at a triple's subject, or at its object
// under a predicate other than rdf:type, those are the class members in
// the target's URI space or, unless it rewrites, in no registered one;
// anywhere else, every member. A target that holds none of the keys'
// spellings is not dispatched, and MaxBindRows bounds the rows any one
// target receives: past it the fragment is fetched unbound and
// hash-joined over sameAs-canonicalised keys. A seeded whole fragment
// takes its VALUES the same way (a DESCRIBE's description fetch is one).
// A native target's sub-query carries each instance IRI in its own
// spelling; a rewriting target's rewriting translates them. The plan
// streams, so incremental rows and disconnect cancellation work
// unchanged.
package decompose

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// Options tune decomposition and the join engine. The zero value selects
// sane defaults.
type Options struct {
	// BindBatch is the maximum VALUES rows per bound sub-query (default
	// 30, FedX's bound-join block size ballpark).
	BindBatch int
	// MaxBindRows caps how many distinct bindings a bound join ships in
	// VALUES blocks; beyond it the stage falls back to fetching the
	// fragment unbound and hash-joining at the mediator (default 1024).
	// Set to -1 to always hash-join (never bind).
	MaxBindRows int
	// ValuesBatch is the maximum VALUES rows per sub-query of a whole
	// fragment (default 50; set to -1 to disable sharding).
	ValuesBatch int
	// MaxShards caps the VALUES shards of one sub-query: a whole
	// fragment's, or a bound stage's (default 32); larger blocks get
	// proportionally bigger batches.
	MaxShards int
	// Registry receives the decomposer's and join engine's metrics. Nil
	// creates a private registry; the mediator passes its shared one so
	// /metrics and Stats() read the same counters.
	Registry *obs.Registry
	// Cards is the observed-cardinality feedback store: the join engine
	// feeds it fragment actuals, and the decomposer consults it to
	// correct voiD estimates (when the store has corrections enabled).
	// Nil disables both directions.
	Cards *obs.CardStore
}

func (o Options) withDefaults() Options {
	if o.BindBatch <= 0 {
		o.BindBatch = 30
	}
	if o.MaxBindRows == 0 {
		o.MaxBindRows = 1024
	}
	if o.ValuesBatch == 0 {
		o.ValuesBatch = 50
	}
	if o.MaxShards <= 0 {
		o.MaxShards = 32
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// unknownCard is the cardinality assumed for patterns whose data set
// publishes no usable voiD statistics: pessimistic, so fragments with
// real (smaller) figures are preferred as join seeds.
const unknownCard = int64(1) << 20

// Fragment is one ordered unit of a decomposition: the whole query, or a
// group of triple patterns evaluated together at its target endpoint(s)
// or answered in process from a materialized view.
//
// It marshals with a "leaf" naming what answers it: "endpoints", its
// Targets, or "view", the materialized view View.
type Fragment struct {
	// Exclusive marks an exclusive group: every pattern is answerable by
	// exactly one data set, so the endpoint joins the group locally.
	Exclusive bool `json:"exclusive"`
	// Targets are the endpoints the fragment dispatches to, in dispatch
	// order (plan.Order): the cover for a whole fragment, one for an
	// exclusive group, every candidate for a shared pattern. A fragment a
	// view answers dispatches to none: its targets are the data sets the
	// view was built from.
	Targets []plan.Target `json:"targets"`
	// View names the materialized view that answers the fragment (see
	// AnswerFrom), empty when the endpoints do.
	View string `json:"view,omitempty"`
	// Query is a whole fragment's sub-query: the decomposed query as the
	// endpoints run it (see wireQuery). Nil for a group, whose sub-query
	// the join engine builds from its patterns and filters.
	Query *sparql.Query `json:"query,omitempty"`
	// Shards are Query cut at its largest VALUES block, each sent to every
	// target, when the block exceeds ValuesBatch.
	Shards []*sparql.Query `json:"shards,omitempty"`
	// Filters are FILTER constraints pushed into the fragment (all their
	// variables are bound inside it).
	Filters []string `json:"filters,omitempty"`
	// EstCard is the voiD-statistics cardinality estimate that ordered
	// a group (a whole fragment has none).
	EstCard int64 `json:"estimatedCardinality,omitempty"`
	// Vars are the variables the fragment binds (its sub-query's
	// projection), in first-appearance order.
	Vars []string `json:"vars"`
	// JoinVars are the variables shared with earlier fragments — the
	// bound-join VALUES variables (empty for the first fragment, and for
	// cartesian stages).
	JoinVars []string `json:"joinVars,omitempty"`

	// patterns are a group's triple patterns, most selective first, which
	// it marshals as "patterns" in the query's prefixes.
	patterns []rdf.Triple
	filters  []sparql.Expression
	prefixes *rdf.PrefixMap

	// statTerm/statShape key the fragment's estimate in the
	// observed-cardinality store: the predicate (or rdf:type class) and
	// ground-position shape of the cheapest pattern — the pattern whose
	// voiD figure became EstCard, so observed actuals calibrate exactly
	// the cell the next estimate reads.
	statTerm  string
	statShape string
	// estByTarget is the fragment's estimate at each target's data set,
	// the figure an unbound dispatch's per-dataset actuals compare against.
	estByTarget []int64

	// local yields the view's rows in place of a dispatch (AnswerFrom).
	local LocalRows
}

// LocalRows answer a fragment in process. Fetch yields them as an
// eval.Remote does — as a join's right operand, given the join's seed —
// and returns how many it yielded.
type LocalRows interface {
	Fetch(ctx context.Context, seed *eval.Seed, yield func(eval.Row) bool) (int, error)
}

// BGP returns the fragment's triple patterns when it is a plain basic
// graph pattern, the shape a materialized view answers: a group without
// FILTERs, or a whole fragment of triple patterns alone. Nil otherwise;
// read-only.
func (f *Fragment) BGP() []rdf.Triple {
	if f.Query == nil && len(f.filters) == 0 {
		return f.patterns
	}
	if f.Query != nil && len(f.Query.Where.Elements) == 1 {
		if bgp, ok := f.Query.Where.Elements[0].(*sparql.BGP); ok {
			return bgp.Patterns
		}
	}
	return nil
}

// MarshalJSON writes the fragment with its "leaf" and a group's
// "patterns".
func (f *Fragment) MarshalJSON() ([]byte, error) {
	type fragment Fragment
	out := struct {
		Leaf string `json:"leaf"`
		*fragment
		Patterns []string `json:"patterns,omitempty"`
	}{Leaf: "endpoints", fragment: (*fragment)(f)}
	if f.View != "" {
		out.Leaf = "view"
	}
	for _, tp := range f.patterns {
		out.Patterns = append(out.Patterns, sparql.FormatTriplePattern(tp, f.prefixes))
	}
	return json.Marshal(out)
}

// AppendTargetDatasets appends the data sets of the fragment's targets,
// in dispatch order, to dst.
func (f *Fragment) AppendTargetDatasets(dst []string) []string {
	for _, t := range f.Targets {
		dst = append(dst, t.Dataset)
	}
	return dst
}

// ResidualFilter is a FILTER evaluated at the mediator: its variables span
// fragments.
type ResidualFilter struct {
	// Stage is the fragment index after which the filter's variables are
	// all bound.
	Stage  int    `json:"stage"`
	Filter string `json:"filter"`

	expr sparql.Expression
}

// Decomposition is a query's plan: what Engine.Plan makes executable,
// and the shape /api/plan explains. Query is the query that was planned,
// shared with the caller and never modified; it marshals as its text, as
// do the fragments' queries.
type Decomposition struct {
	Query *sparql.Query `json:"query"`
	// Vars is the final projection.
	Vars []string `json:"vars"`
	// Fragments in join order, cheapest first, connected where possible:
	// one whole fragment, or the query's groups.
	Fragments []*Fragment `json:"fragments"`
	// ResidualFilters are evaluated at the mediator, at the stage where
	// their variables are bound.
	ResidualFilters []ResidualFilter `json:"residualFilters,omitempty"`
	// Warnings flag plan hazards (cartesian join stages).
	Warnings []string `json:"warnings,omitempty"`
	// Decisions say, per registered data set, whether the plan reads it
	// and why: the source selection it was built from.
	Decisions []plan.Decision `json:"decisions"`

	// owners is the planner's owner lookup, which decides the spellings
	// each target receives (nil when no fragment dispatches).
	owners *plan.Owners
}

// AnswerFrom has the materialized view id answer fragment k, a plain BGP
// (see BGP): rows yields the view's rows over vars, the fragment's
// variables in the view's column order, given a join's seed as any right
// operand is.
func (d *Decomposition) AnswerFrom(k int, id string, vars []string, rows LocalRows) {
	f := d.Fragments[k]
	f.View, f.Vars, f.local = id, vars, rows
}

// Whole returns the decomposition's whole fragment, nil when it joins
// groups.
func (d *Decomposition) Whole() *Fragment {
	if len(d.Fragments) == 1 && d.Fragments[0].Query != nil {
		return d.Fragments[0]
	}
	return nil
}

// Datasets returns the distinct data set URIs the decomposition touches,
// in fragment order.
func (d *Decomposition) Datasets() []string {
	var out []string
	for _, f := range d.Fragments {
		for _, t := range f.Targets {
			if !slices.Contains(out, t.Dataset) {
				out = append(out, t.Dataset)
			}
		}
	}
	return out
}

// Stats counts decomposer activity for /api/stats.
type Stats struct {
	// Decompositions is how many decompositions into groups were built
	// (a query some data set answers whole is not counted).
	Decompositions uint64 `json:"decompositions"`
	// Rejected counts queries that could not be planned (not a SELECT,
	// unsupported shape, or a pattern with no source).
	Rejected uint64 `json:"rejected"`
	// ExclusiveGroups and SharedFragments count emitted fragments.
	ExclusiveGroups uint64 `json:"exclusiveGroups"`
	SharedFragments uint64 `json:"sharedFragments"`
}

// Decomposer plans queries into fragments using the planner's source
// selection and the voiD KB statistics.
type Decomposer struct {
	planner *plan.Planner
	opts    Options
	metrics decomposerMetrics
}

// decomposerMetrics are the decomposer's registry-backed counters;
// Stats() reads them back, and the shared registry renders them at
// /metrics.
type decomposerMetrics struct {
	decompositions  *obs.Counter
	rejected        *obs.Counter
	exclusiveGroups *obs.Counter
	sharedFragments *obs.Counter
}

// New returns a decomposer over the planner's knowledge bases.
func New(planner *plan.Planner, opts Options) *Decomposer {
	opts = opts.withDefaults()
	reg := opts.Registry
	return &Decomposer{
		planner: planner, opts: opts,
		metrics: decomposerMetrics{
			decompositions: reg.Counter("sparqlrw_decompose_decompositions_total",
				"Per-BGP decompositions into groups built."),
			rejected: reg.Counter("sparqlrw_decompose_rejected_total",
				"Queries that could not be planned (unsupported shape or unanswerable pattern)."),
			exclusiveGroups: reg.Counter("sparqlrw_decompose_exclusive_groups_total",
				"Exclusive-group fragments emitted."),
			sharedFragments: reg.Counter("sparqlrw_decompose_shared_fragments_total",
				"Shared (multi-source) fragments emitted."),
		},
	}
}

// Stats returns a snapshot of the decomposer's counters, read back from
// the metrics registry so the JSON view and /metrics cannot disagree.
func (d *Decomposer) Stats() Stats {
	return Stats{
		Decompositions:  uint64(d.metrics.decompositions.Value()),
		Rejected:        uint64(d.metrics.rejected.Value()),
		ExclusiveGroups: uint64(d.metrics.exclusiveGroups.Value()),
		SharedFragments: uint64(d.metrics.sharedFragments.Value()),
	}
}

func (d *Decomposer) reject(format string, args ...any) error {
	d.metrics.rejected.Inc()
	return fmt.Errorf("decompose: "+format, args...)
}

// Decompose is DecomposeQuery for callers that hold query text. The
// second argument is ignored: a query is rewritten from every vocabulary
// its patterns use, and the parameter is kept for the benchmark's layer
// probes, which pass one.
func (d *Decomposer) Decompose(queryText, _ string) (*Decomposition, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, d.reject("parsing query: %v", err)
	}
	return d.DecomposeQuery(context.Background(), q, nil)
}

// DecomposeQuery plans a SELECT query over the data sets of the source
// set src, profiling source selection on a "plan" span of ctx's trace and
// grouping on a "decompose" span. A query some data sets answer whole is
// one whole fragment over them. Otherwise its BGP is split into groups,
// which fails when the query is not a plain filtered BGP or some pattern
// no data set in src can answer.
func (d *Decomposer) DecomposeQuery(ctx context.Context, q *sparql.Query, src voidkb.Sources) (*Decomposition, error) {
	_, span := obs.StartSpan(ctx, "plan")
	sel, err := d.planner.Select(q, src)
	if err != nil {
		endStep(span, "", 0, 0, err)
		return nil, d.reject("%v", err)
	}
	dec := &Decomposition{Query: q, Vars: q.Projection(), Decisions: sel.Decisions,
		owners: d.planner.Owners()}
	if len(sel.Cover) > 0 {
		f := d.whole(dec, sel.Cover)
		endStep(span, "source-selection", len(sel.Decisions), len(f.Targets)*max(len(f.Shards), 1), nil)
		return dec, nil
	}
	endStep(span, "source-selection", len(sel.Decisions), 0, nil)
	_, span = obs.StartSpan(ctx, "decompose")
	err = d.group(dec, sel)
	endStep(span, "decompose", -1, len(dec.Fragments), err)
	if err != nil {
		d.metrics.rejected.Inc()
		return nil, err
	}
	return dec, nil
}

// endStep ends the span of a planning step: profiled as operator op over
// its rows in and out (-1: not counted), or with the error that ended it.
func endStep(span *obs.Span, op string, rowsIn, rowsOut int, err error) {
	if err != nil {
		span.SetString("error", err.Error())
	} else {
		st := obs.Operator(op)
		st.RowsIn, st.RowsOut = int64(rowsIn), int64(rowsOut)
		span.SetOperator(st)
	}
	span.End()
}

// group splits dec's query, which no data set answers whole, into
// exclusive groups and shared fragments by its patterns' sources,
// estimates and orders them, and places its filters.
func (d *Decomposer) group(dec *Decomposition, sel *plan.Selection) error {
	q := dec.Query
	filters, err := flatBGP(q)
	if err != nil {
		return err
	}
	if len(sel.Patterns) == 0 {
		return fmt.Errorf("decompose: query has no triple patterns")
	}

	// Exclusive patterns group per data set; shared patterns become their
	// own multi-target fragments. The fragments, their targets, estimates
	// and variables are cut from a few blocks (carve).
	n, nTargets := len(sel.Patterns), 0
	for _, sources := range sel.Sources {
		nTargets += len(sources)
	}
	block, targets := make([]Fragment, 0, n), make([]plan.Target, 0, nTargets)
	var groups []*Fragment
	fragments := make([]*Fragment, 0, n)
	for i, tp := range sel.Patterns {
		sources := sel.Sources[i]
		if len(sources) == 0 {
			return fmt.Errorf("decompose: no registered data set can answer pattern { %s }", sparql.FormatTriplePattern(tp, q.Prefixes))
		}
		if len(sources) == 1 {
			src := sources[0]
			k := slices.IndexFunc(groups, func(g *Fragment) bool { return g.Targets[0].Dataset == src.Dataset.URI })
			if k < 0 {
				k = len(groups)
				block = append(block, Fragment{Exclusive: true,
					Targets: append(carve(&targets, 1), d.planner.Target(src.Dataset, false))})
				groups = append(groups, &block[len(block)-1])
			}
			g := groups[k]
			g.patterns = append(g.patterns, tp)
			g.Targets[0].NeedsRewrite = g.Targets[0].NeedsRewrite || src.NeedsRewrite
			continue
		}
		block = append(block, Fragment{patterns: sel.Patterns[i : i+1 : i+1], Targets: carve(&targets, len(sources))})
		f := &block[len(block)-1]
		for _, src := range sources {
			f.Targets = append(f.Targets, d.planner.Target(src.Dataset, src.NeedsRewrite))
		}
		plan.Order(f.Targets)
		fragments = append(fragments, f)
	}
	fragments = append(fragments, groups...)

	// Estimate, order patterns within groups, finalise per-fragment vars.
	estimates, vars := make([]int64, 0, nTargets), make([]string, 0, 6*n)
	for _, f := range fragments {
		d.estimateFragment(f, &estimates, &vars)
	}
	orderFragments(dec, fragments, &vars)
	attachFilters(dec, filters, q.Prefixes)
	for _, f := range dec.Fragments {
		f.prefixes = q.Prefixes
	}

	d.metrics.decompositions.Inc()
	for _, f := range dec.Fragments {
		if f.Exclusive {
			d.metrics.exclusiveGroups.Inc()
		} else {
			d.metrics.sharedFragments.Inc()
		}
	}
	return nil
}

// flatBGP returns the filters of a query whose WHERE clause is a plain
// filtered BGP — whose patterns are then the selection's — rejecting
// shapes the join engine cannot decompose soundly (OPTIONAL, UNION,
// nested groups, VALUES, blank-node patterns).
func flatBGP(q *sparql.Query) ([]sparql.Expression, error) {
	var filters []sparql.Expression
	if q.Where == nil {
		return nil, fmt.Errorf("decompose: query has no WHERE clause")
	}
	for _, el := range q.Where.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			for _, tp := range e.Patterns {
				if tp.S.IsBlank() || tp.P.IsBlank() || tp.O.IsBlank() {
					return nil, fmt.Errorf("decompose: blank-node patterns are not supported")
				}
			}
		case *sparql.Filter:
			filters = append(filters, e.Expr)
		default:
			return nil, fmt.Errorf("decompose: unsupported pattern element %T (only a filtered BGP decomposes)", el)
		}
	}
	return filters, nil
}

// wireQuery is what the endpoints of a whole fragment run: q less the
// modifiers that order or count rows of the merged answer, which the plan
// applies above the merge, and projecting what ORDER BY reads. Only LIMIT
// 1 without OFFSET or ORDER BY stays: one row at any endpoint is at least
// one merged row, so that cut cannot fall short.
func wireQuery(q *sparql.Query) *sparql.Query {
	if len(q.OrderBy) == 0 && q.Offset <= 0 && (q.Limit < 0 || q.Limit == 1) {
		return q
	}
	w := q.Clone()
	w.OrderBy, w.Limit, w.Offset = nil, -1, -1
	for _, c := range q.OrderBy {
		for _, t := range sparql.ExprTerms(c.Expr) {
			if t.IsVar() && !w.SelectStar && !slices.Contains(w.SelectVars, t.Value) {
				w.SelectVars = append(w.SelectVars, t.Value)
			}
		}
	}
	return w
}

// estimateFragment orders the fragment's patterns most-selective-first
// and sets its cardinality estimate: the cheapest pattern of an exclusive
// group (the join can produce no more than its smallest operand under the
// usual independence heuristic), the across-targets sum for shared
// fragments.
func (d *Decomposer) estimateFragment(f *Fragment, estimates *[]int64, vars *[]string) {
	type ranked struct {
		tp   rdf.Triple
		card int64
	}
	var small [4]ranked
	rs := small[:0]
	for _, tp := range f.patterns {
		var card int64
		for _, t := range f.Targets {
			card += d.patternCard(tp, t.Dataset)
		}
		rs = append(rs, ranked{tp: tp, card: card})
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(a.card, b.card) })
	f.EstCard = rs[0].card
	if !f.Exclusive {
		// A shared fragment is a union across its targets: its extent is
		// the sum, not the min.
		f.EstCard = 0
		for _, r := range rs {
			f.EstCard += r.card
		}
	}
	// Key the estimate for observed-cardinality feedback: actuals from
	// unbound dispatches of this fragment calibrate the cheapest
	// pattern's cell — the figure that became EstCard.
	f.statTerm, f.statShape = obs.PatternStatKey(rs[0].tp)
	f.estByTarget = carve(estimates, len(f.Targets))
	for _, t := range f.Targets {
		est := int64(-1)
		for _, r := range rs {
			if c := d.patternCard(r.tp, t.Dataset); est < 0 || c < est {
				est = c
			}
		}
		f.estByTarget = append(f.estByTarget, est)
	}
	if len(rs) > 1 { // a shared fragment's one pattern is the selection's
		f.patterns = f.patterns[:0]
		for _, r := range rs {
			f.patterns = append(f.patterns, r.tp)
		}
	}
	f.Vars = carve(vars, 3*len(rs))
	for _, r := range rs {
		for _, x := range [3]rdf.Term{r.tp.S, r.tp.P, r.tp.O} {
			if x.IsVar() && !slices.Contains(f.Vars, x.Value) {
				f.Vars = append(f.Vars, x.Value)
			}
		}
	}
}

// carve cuts a slice of length 0 and capacity n from the spare capacity
// of *block, or allocates one when too little is left: one
// decomposition's fragments share a few backing arrays.
func carve[T any](block *[]T, n int) []T {
	b := *block
	if cap(b)-len(b) < n {
		return make([]T, 0, n)
	}
	*block = b[:len(b)+n]
	return b[len(b) : len(b) : len(b)+n]
}

// estimateAt returns the estimate at one of the fragment's targets' data
// sets, 0 for a whole fragment's, which has none.
func (f *Fragment) estimateAt(dataset string) int64 {
	if i := slices.IndexFunc(f.Targets, func(t plan.Target) bool { return t.Dataset == dataset }); i >= 0 && i < len(f.estByTarget) {
		return f.estByTarget[i]
	}
	return 0
}

// patternCard estimates one pattern's cardinality at one data set from
// its voiD statistics: the property partition for bound predicates, the
// class partition for rdf:type patterns, the data set's total triple
// count otherwise, damped for each bound instance term (voiD publishes no
// per-term figures, so a fixed selectivity stands in). When the
// observed-cardinality store holds a correction for the pattern's cell
// (same dataset, predicate/class and shape) the observed figure replaces
// the static one, within the store's correction cap.
func (d *Decomposer) patternCard(tp rdf.Triple, datasetURI string) int64 {
	ds, ok := d.planner.Dataset(datasetURI)
	if !ok {
		return unknownCard
	}
	base := int64(-1)
	isType := tp.P.IsIRI() && tp.P.Value == rdf.RDFType
	if isType && tp.O.IsIRI() {
		if n, ok := ds.ClassEntities(tp.O.Value); ok {
			base = n
		}
	} else if tp.P.IsIRI() {
		if n, ok := ds.PropertyTriples(tp.P.Value); ok {
			base = n
		}
	}
	if base < 0 {
		if ds.Triples > 0 {
			base = ds.Triples
		} else {
			base = unknownCard
		}
	}
	const boundSelectivity = 100
	if tp.S.IsGround() {
		base /= boundSelectivity
	}
	if tp.O.IsGround() && !isType {
		base /= boundSelectivity
	}
	if base < 1 {
		base = 1
	}
	term, shape := obs.PatternStatKey(tp)
	return d.opts.Cards.Correct(datasetURI, term, shape, base)
}

// orderFragments arranges fragments for left-to-right execution: the
// cheapest fragment seeds the join, then the cheapest fragment connected
// to the bound variables follows, avoiding cartesian stages whenever the
// join graph allows. Each fragment's JoinVars are the variables it shares
// with everything before it, carved from vars. It takes fragments over.
func orderFragments(dec *Decomposition, fragments []*Fragment, vars *[]string) {
	remaining := fragments
	dec.Fragments = make([]*Fragment, 0, len(fragments))
	bound := map[string]bool{}
	for len(remaining) > 0 {
		best, bestConnected := -1, false
		for i, f := range remaining {
			connected := slices.ContainsFunc(f.Vars, func(v string) bool { return bound[v] })
			switch {
			case best < 0,
				connected && !bestConnected,
				connected == bestConnected && f.EstCard < remaining[best].EstCard:
				best, bestConnected = i, connected
			}
		}
		f := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		f.JoinVars = carve(vars, len(f.Vars))
		for _, v := range f.Vars {
			if bound[v] {
				f.JoinVars = append(f.JoinVars, v)
			}
		}
		sort.Strings(f.JoinVars)
		if len(dec.Fragments) > 0 && !bestConnected {
			dec.Warnings = append(dec.Warnings, fmt.Sprintf(
				"stage %d joins without shared variables (cartesian product)", len(dec.Fragments)))
		}
		for _, v := range f.Vars {
			bound[v] = true
		}
		dec.Fragments = append(dec.Fragments, f)
	}
}

// attachFilters pushes each FILTER into the first fragment that binds
// all its variables; the rest are evaluated at the mediator once their
// variables are bound (at the last stage if some variable never binds —
// SPARQL's unbound-in-FILTER semantics then exclude every row).
func attachFilters(dec *Decomposition, filters []sparql.Expression, pm *rdf.PrefixMap) {
next:
	for _, expr := range filters {
		terms := sparql.ExprTerms(expr)
		for _, f := range dec.Fragments {
			if allBound(terms, f.Vars) {
				f.filters = append(f.filters, expr)
				f.Filters = append(f.Filters, sparql.FormatExpr(expr, pm))
				continue next
			}
		}
		stage := len(dec.Fragments) - 1
		var bound []string
		for i, f := range dec.Fragments {
			if bound = append(bound, f.Vars...); allBound(terms, bound) {
				stage = i
				break
			}
		}
		dec.ResidualFilters = append(dec.ResidualFilters, ResidualFilter{
			Stage:  stage,
			Filter: sparql.FormatExpr(expr, pm),
			expr:   expr,
		})
	}
}

// allBound reports whether every variable among terms is one of vars.
func allBound(terms []rdf.Term, vars []string) bool {
	for _, t := range terms {
		if t.IsVar() && !slices.Contains(vars, t.Value) {
			return false
		}
	}
	return true
}

// fragmentQuery returns a fragment's sub-query: a whole fragment's query,
// or a group's patterns (most selective first) and its pushed filters,
// projected onto the group's variables, in a new query. DISTINCT matches
// the executor's merge semantics (every federated result is deduplicated)
// and keeps bound-join result sets minimal.
func fragmentQuery(dec *Decomposition, f *Fragment) *sparql.Query {
	if f.Query != nil {
		return f.Query
	}
	q := sparql.NewQuery(sparql.Select)
	q.Prefixes = dec.Query.Prefixes.Clone()
	q.Distinct = true
	q.SelectVars = append([]string(nil), f.Vars...)
	group := &sparql.GroupGraphPattern{Elements: make([]sparql.GroupElement, 0, 1+len(f.filters))}
	group.Elements = append(group.Elements, &sparql.BGP{Patterns: append([]rdf.Triple(nil), f.patterns...)})
	for _, expr := range f.filters {
		group.Elements = append(group.Elements, &sparql.Filter{Expr: expr})
	}
	q.Where = group
	return q
}

// withValues returns q with a VALUES block joined in front of its WHERE
// clause. It shares the rest of q, which the executor only reads.
func withValues(q *sparql.Query, values *sparql.InlineData) *sparql.Query {
	c := *q
	c.Where = &sparql.GroupGraphPattern{Elements: append([]sparql.GroupElement{values}, q.Where.Elements...)}
	return &c
}

// respell returns q as target t receives it: unchanged for a target that
// rewrites it, whose rewriting translates its instances, and otherwise in
// t's spellings (plan.Owners.Respell).
func (dec *Decomposition) respell(q *sparql.Query, t plan.Target) *sparql.Query {
	if t.NeedsRewrite || dec.owners == nil {
		return q
	}
	return dec.owners.Respell(q, t)
}

// exact reports whether the owner lookup decides which spellings of an
// IRI the fragment can bind variable v to: the fragment is a filtered BGP
// that binds v at a triple's subject, or at its object under a predicate
// other than rdf:type, where a data set's triples hold only IRIs of its
// URI space.
func (f *Fragment) exact(v string) bool {
	if f.Query == nil {
		return bindsInstance(f.patterns, v)
	}
	found := false
	for _, el := range f.Query.Where.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			found = found || bindsInstance(e.Patterns, v)
		case *sparql.Filter:
		default:
			return false
		}
	}
	return found
}

// bindsInstance reports whether a pattern binds v at its subject, or at
// its object under a predicate other than rdf:type.
func bindsInstance(patterns []rdf.Triple, v string) bool {
	for _, tp := range patterns {
		typed := tp.P.IsIRI() && tp.P.Value == rdf.RDFType
		if tp.S.IsVar() && tp.S.Value == v || !typed && tp.O.IsVar() && tp.O.Value == v {
			return true
		}
	}
	return false
}
