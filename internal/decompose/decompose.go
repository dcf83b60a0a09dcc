// Package decompose implements per-BGP exclusive-group decomposition, the
// layer between the federation planner (internal/plan) and the federation
// executor (internal/federate) that handles queries spanning vocabularies
// served by different repositories — the case the paper's whole-query
// rewriting cannot cover, and the standard answer in federated SPARQL
// processing (FedQPL, FedX; see PAPERS.md). It selects sources, groups and
// orders fragments, places filters, and plans the result for the
// evaluator (internal/eval), whose joins, FILTERs and solution modifiers
// run above the fragments as remote leaves.
//
// # Exclusive groups
//
// Source selection runs per triple pattern (plan.Planner.PatternSources):
// a pattern answerable by exactly one registered data set is *exclusive*
// to it, and all of a data set's exclusive patterns are grouped into one
// fragment — a single sub-query shipped to that endpoint, so the endpoint
// joins them locally and only the fragment's (far smaller) result crosses
// the wire. Patterns answerable by several data sets become *shared*
// fragments, dispatched to every candidate and unioned by the executor's
// merge. The decomposition fails — and the caller falls back to the
// whole-query path or reports the query unanswerable — when a pattern has
// no source at all, or the query's pattern is not a plain filtered BGP
// (OPTIONAL and UNION stay on the single-source path). Any solution
// modifiers — ORDER BY, DISTINCT, the projection, the slice — run above
// the joins.
//
// # Cardinality-ordered bound joins
//
// Fragments are ordered cheapest-first by voiD statistics (void:triples,
// void:propertyPartition, void:classPartition — internal/voidkb), joined
// left to right: the accumulated bindings of fragments 1..k are projected
// onto the join variables, batched into a VALUES block (re-using the
// planner's VALUES sharding), and injected into fragment k+1's sub-query,
// so each endpoint only returns solutions that can actually join. When
// the bindings exceed the bound-join cap the fragment is fetched unbound
// and hash-joined at the mediator — which is also the robust path when
// fragments identify entities in different URI spaces, since both sides
// are owl:sameAs-canonicalised before the join. The joins are the
// evaluator's hash join, whose remote right operand receives the left
// side's keys; the plan streams, so the HTTP path's incremental rows and
// disconnect cancellation work unchanged.
package decompose

import (
	"fmt"
	"slices"
	"sort"

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
	// MaxShards caps the VALUES shards of one bound stage (default 32).
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

// Target is one endpoint a fragment dispatches to.
type Target struct {
	Dataset  string `json:"dataset"`
	Endpoint string `json:"endpoint"`
	// NeedsRewrite says the fragment must be translated for this data
	// set before dispatch.
	NeedsRewrite bool `json:"needsRewrite,omitempty"`
}

// Fragment is one ordered unit of a decomposition: a group of triple
// patterns evaluated together at its target endpoint(s).
type Fragment struct {
	// Exclusive marks an exclusive group: every pattern is answerable by
	// exactly one data set, so the endpoint joins the group locally.
	Exclusive bool `json:"exclusive"`
	// Targets are the endpoints the fragment dispatches to (one for an
	// exclusive group; every candidate for a shared pattern).
	Targets []Target `json:"targets"`
	// Patterns are the fragment's triple patterns, serialised for the
	// explain output.
	Patterns []string `json:"patterns"`
	// Filters are FILTER constraints pushed into the fragment (all their
	// variables are bound inside it).
	Filters []string `json:"filters,omitempty"`
	// EstCard is the voiD-statistics cardinality estimate that ordered
	// the fragment.
	EstCard int64 `json:"estimatedCardinality"`
	// Vars are the variables the fragment binds (its sub-query's
	// projection), in first-appearance order.
	Vars []string `json:"vars"`
	// JoinVars are the variables shared with earlier fragments — the
	// bound-join VALUES variables (empty for the first fragment, and for
	// cartesian stages).
	JoinVars []string `json:"joinVars,omitempty"`
	// RewriteOnt is the vocabulary namespace rewriting translates from
	// for this fragment's NeedsRewrite targets. It is the namespace of
	// the fragment's own patterns, which on a multi-vocabulary query may
	// differ from the query-level source ontology ("" = use the query's).
	RewriteOnt string `json:"rewriteSource,omitempty"`

	patterns []rdf.Triple
	filters  []sparql.Expression

	// statTerm/statShape key the fragment's estimate in the
	// observed-cardinality store: the predicate (or rdf:type class) and
	// ground-position shape of the cheapest pattern — the pattern whose
	// voiD figure became EstCard, so observed actuals calibrate exactly
	// the cell the next estimate reads.
	statTerm  string
	statShape string
	// estByDataset is the fragment's per-target-dataset estimate, the
	// figure an unbound dispatch's per-dataset actuals compare against.
	estByDataset map[string]int64
}

// ResidualFilter is a FILTER evaluated at the mediator because its
// variables span fragments.
type ResidualFilter struct {
	// Stage is the fragment index after which the filter's variables are
	// all bound.
	Stage  int    `json:"stage"`
	Filter string `json:"filter"`

	expr sparql.Expression
}

// Decomposition is an ordered per-BGP decomposition: what Engine.Plan
// makes executable, and the shape /api/plan explains. Query is the query
// that was decomposed, shared with the caller and never modified; it
// marshals as its text.
type Decomposition struct {
	Query     *sparql.Query `json:"query"`
	SourceOnt string        `json:"source"`
	// Vars is the final projection.
	Vars []string `json:"vars"`
	// MultiSource reports that the fragments span more than one data set
	// (the case the whole-query path cannot answer).
	MultiSource bool `json:"multiSource"`
	// Fragments in join order, cheapest first, connected where possible.
	Fragments []*Fragment `json:"fragments"`
	// ResidualFilters are evaluated at the mediator, at the stage where
	// their variables are bound.
	ResidualFilters []ResidualFilter `json:"residualFilters,omitempty"`
	// Warnings flag plan hazards (cartesian join stages).
	Warnings []string `json:"warnings,omitempty"`
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
	// Decompositions is how many decompositions were built.
	Decompositions uint64 `json:"decompositions"`
	// Rejected counts queries that could not be decomposed (unsupported
	// shape, or a pattern with no source).
	Rejected uint64 `json:"rejected"`
	// ExclusiveGroups and SharedFragments count emitted fragments.
	ExclusiveGroups uint64 `json:"exclusiveGroups"`
	SharedFragments uint64 `json:"sharedFragments"`
}

// Decomposer partitions a query's BGP into per-endpoint fragments using
// the planner's per-pattern source selection and the voiD KB statistics.
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
				"Per-BGP decompositions built."),
			rejected: reg.Counter("sparqlrw_decompose_rejected_total",
				"Queries that could not be decomposed (unsupported shape or unanswerable pattern)."),
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

// Decompose is DecomposeQuery for callers that hold query text.
func (d *Decomposer) Decompose(queryText, sourceOnt string) (*Decomposition, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, d.reject("parsing query: %v", err)
	}
	return d.DecomposeQuery(q, sourceOnt, nil)
}

// DecomposeQuery builds the fragment plan for a SELECT query written
// against sourceOnt, over the data sets of the source set src. It fails
// when the query's pattern is unsupported (anything beyond a filtered BGP)
// or when some pattern no data set in src can answer.
func (d *Decomposer) DecomposeQuery(q *sparql.Query, sourceOnt string, src voidkb.Sources) (*Decomposition, error) {
	if q.Form != sparql.Select {
		return nil, d.reject("only SELECT queries decompose, got %s", q.Form)
	}
	patterns, filters, err := flatBGP(q)
	if err != nil {
		d.metrics.rejected.Inc()
		return nil, err
	}
	if len(patterns) == 0 {
		return nil, d.reject("query has no triple patterns")
	}

	// Per-pattern source selection: exclusive patterns group per data
	// set; shared patterns become their own multi-target fragments.
	groups := map[string]*Fragment{} // dataset URI -> exclusive group
	var groupOrder []string
	var fragments []*Fragment
	for _, tp := range patterns {
		sources := d.planner.PatternSources(tp, src)
		if len(sources) == 0 {
			return nil, d.reject("no registered data set can answer pattern { %s }", sparql.FormatTriplePattern(tp, q.Prefixes))
		}
		if len(sources) == 1 {
			src := sources[0]
			g, ok := groups[src.Dataset.URI]
			if !ok {
				g = &Fragment{Exclusive: true, Targets: []Target{{
					Dataset:  src.Dataset.URI,
					Endpoint: src.Dataset.SPARQLEndpoint,
				}}}
				groups[src.Dataset.URI] = g
				groupOrder = append(groupOrder, src.Dataset.URI)
			}
			g.patterns = append(g.patterns, tp)
			if src.NeedsRewrite {
				g.Targets[0].NeedsRewrite = true
				// Rewriting translates from the pattern's own vocabulary;
				// with sourceOnt as the default, only record a divergence.
				if ns := plan.PatternVocabulary(tp); ns != "" && ns != sourceOnt && g.RewriteOnt == "" {
					g.RewriteOnt = ns
				}
			}
			continue
		}
		f := &Fragment{patterns: []rdf.Triple{tp}}
		needsRewrite := false
		for _, src := range sources {
			f.Targets = append(f.Targets, Target{
				Dataset:      src.Dataset.URI,
				Endpoint:     src.Dataset.SPARQLEndpoint,
				NeedsRewrite: src.NeedsRewrite,
			})
			needsRewrite = needsRewrite || src.NeedsRewrite
		}
		if needsRewrite {
			if ns := plan.PatternVocabulary(tp); ns != "" && ns != sourceOnt {
				f.RewriteOnt = ns
			}
		}
		fragments = append(fragments, f)
	}
	for _, uri := range groupOrder {
		fragments = append(fragments, groups[uri])
	}

	// Estimate, order patterns within groups, finalise per-fragment vars.
	for _, f := range fragments {
		d.estimateFragment(f)
	}
	dec := &Decomposition{Query: q, SourceOnt: sourceOnt, Vars: q.Projection()}
	orderFragments(dec, fragments)
	attachFilters(dec, filters, q.Prefixes)
	for _, f := range dec.Fragments {
		for _, tp := range f.patterns {
			f.Patterns = append(f.Patterns, sparql.FormatTriplePattern(tp, q.Prefixes))
		}
	}
	dec.MultiSource = len(dec.Datasets()) > 1

	d.metrics.decompositions.Inc()
	for _, f := range dec.Fragments {
		if f.Exclusive {
			d.metrics.exclusiveGroups.Inc()
		} else {
			d.metrics.sharedFragments.Inc()
		}
	}
	return dec, nil
}

// flatBGP extracts the triple patterns and filters of a query whose WHERE
// clause is a plain filtered BGP, rejecting shapes the join engine cannot
// decompose soundly (OPTIONAL, UNION, nested groups, VALUES, blank-node
// patterns).
func flatBGP(q *sparql.Query) ([]rdf.Triple, []sparql.Expression, error) {
	var patterns []rdf.Triple
	var filters []sparql.Expression
	if q.Where == nil {
		return nil, nil, fmt.Errorf("decompose: query has no WHERE clause")
	}
	for _, el := range q.Where.Elements {
		switch e := el.(type) {
		case *sparql.BGP:
			for _, tp := range e.Patterns {
				if tp.S.IsBlank() || tp.P.IsBlank() || tp.O.IsBlank() {
					return nil, nil, fmt.Errorf("decompose: blank-node patterns are not supported")
				}
			}
			patterns = append(patterns, e.Patterns...)
		case *sparql.Filter:
			filters = append(filters, e.Expr)
		default:
			return nil, nil, fmt.Errorf("decompose: unsupported pattern element %T (only a filtered BGP decomposes)", el)
		}
	}
	return patterns, filters, nil
}

// estimateFragment orders the fragment's patterns most-selective-first
// and sets its cardinality estimate: the cheapest pattern of an exclusive
// group (the join can produce no more than its smallest operand under the
// usual independence heuristic), the across-targets sum for shared
// fragments.
func (d *Decomposer) estimateFragment(f *Fragment) {
	type ranked struct {
		tp   rdf.Triple
		card int64
	}
	rs := make([]ranked, len(f.patterns))
	for i, tp := range f.patterns {
		var card int64
		for _, t := range f.Targets {
			card += d.patternCard(tp, t.Dataset)
		}
		rs[i] = ranked{tp: tp, card: card}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].card < rs[j].card })
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
	f.estByDataset = make(map[string]int64, len(f.Targets))
	for _, t := range f.Targets {
		est := int64(-1)
		for _, r := range rs {
			if c := d.patternCard(r.tp, t.Dataset); est < 0 || c < est {
				est = c
			}
		}
		f.estByDataset[t.Dataset] = est
	}
	f.patterns = f.patterns[:0]
	seen := map[string]bool{}
	for _, r := range rs {
		f.patterns = append(f.patterns, r.tp)
		for _, v := range r.tp.Vars() {
			if !seen[v] {
				seen[v] = true
				f.Vars = append(f.Vars, v)
			}
		}
	}
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
// with everything before it.
func orderFragments(dec *Decomposition, fragments []*Fragment) {
	remaining := append([]*Fragment(nil), fragments...)
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

// fragmentQuery builds the fragment's sub-query: an optional VALUES block
// of bound-join bindings, the fragment's patterns (most selective first)
// and its pushed filters, projected onto the fragment's variables.
// DISTINCT matches the executor's merge semantics (every federated result
// is deduplicated) and keeps bound-join result sets minimal.
func fragmentQuery(dec *Decomposition, f *Fragment, values *sparql.InlineData) *sparql.Query {
	q := sparql.NewQuery(sparql.Select)
	q.Prefixes = dec.Query.Prefixes.Clone()
	q.Distinct = true
	q.SelectVars = append([]string(nil), f.Vars...)
	group := &sparql.GroupGraphPattern{}
	if values != nil {
		group.Elements = append(group.Elements, values)
	}
	group.Elements = append(group.Elements, &sparql.BGP{Patterns: append([]rdf.Triple(nil), f.patterns...)})
	for _, expr := range f.filters {
		group.Elements = append(group.Elements, &sparql.Filter{Expr: expr})
	}
	q.Where = group
	return q
}
