// Package plan implements the mediator's source selection: the voiD- and
// alignment-KB-driven choice of repositories the paper's architecture
// (§3.4, Figure 5) places between query rewriting and federated execution.
// One rule decides relevance, per triple pattern (PatternSources); Select
// runs it over a whole query, and the decomposer (internal/decompose)
// plans every query from the result. Every target is ordered fastest
// endpoint first by the executor's smoothed median latency, open circuits
// last, with deadlines proportional to that latency (cf. Yannakis et al.'s
// heuristics-based reordering, PAPERS.md), and ShardQuery cuts a large
// VALUES block into endpoint-sized batches. The package does not import
// internal/federate: it reads the executor's endpoint table through the
// Endpoints interface.
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// Options tune the planner.
type Options struct {
	// Registry receives the planner's metrics (plan and source-selection
	// counters). Nil creates a private registry; the mediator passes its
	// shared one so /metrics and Stats() read the same counters.
	Registry *obs.Registry
}

// The adaptive deadline: slowFactor times an endpoint's observed median
// latency, floored at minDeadline; without history, the executor default.
// It is never looser than that default: the executor clamps from above.
const (
	slowFactor  = 8
	minDeadline = 250 * time.Millisecond
)

// Endpoints is what the planner reads of the executor's endpoint table.
type Endpoints interface {
	// Observed reports an endpoint's smoothed median attempt latency (0
	// when nothing has been observed) and whether its circuit is open.
	Observed(endpoint string) (p50 time.Duration, open bool)
}

// Planner selects sources from the voiD and alignment KBs.
type Planner struct {
	datasets   *voidkb.KB
	alignments *align.KB
	owners     Owners
	endpoints  Endpoints
	metrics    plannerMetrics
}

// plannerMetrics are the planner's registry-backed counters; Stats()
// reads them back, and the shared registry renders them at /metrics.
type plannerMetrics struct {
	plans      *obs.Counter
	considered *obs.Counter
	pruned     *obs.Counter
}

// New returns a planner over the given knowledge bases and co-reference
// source, the owner lookup's inputs. coref may be nil (every IRI its own
// class); endpoints may be nil (no history: data set order, default
// deadlines).
func New(datasets *voidkb.KB, alignments *align.KB, coref funcs.CorefSource, endpoints Endpoints, opts Options) *Planner {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Planner{
		datasets: datasets, alignments: alignments, endpoints: endpoints,
		owners: Owners{datasets: datasets, coref: coref},
		metrics: plannerMetrics{
			plans: reg.Counter("sparqlrw_plan_plans_total",
				"Federation plans built."),
			considered: reg.Counter("sparqlrw_plan_datasets_considered_total",
				"Data set relevance decisions taken during source selection."),
			pruned: reg.Counter("sparqlrw_plan_datasets_pruned_total",
				"Data sets pruned by source selection."),
		},
	}
}

// Dataset returns the voiD description registered under uri, so layers
// built on the planner (the decomposer's cardinality estimator) can read
// data set statistics without holding the KB separately.
func (p *Planner) Dataset(uri string) (*voidkb.Dataset, bool) { return p.datasets.Get(uri) }

// Owners returns the planner's owner lookup.
func (p *Planner) Owners() *Owners { return &p.owners }

// Stats counts planner activity for the /api/stats endpoint.
type Stats struct {
	// Plans is how many plans were built.
	Plans uint64 `json:"plans"`
	// DatasetsConsidered counts dataset relevance decisions taken.
	DatasetsConsidered uint64 `json:"datasetsConsidered"`
	// DatasetsPruned counts decisions that excluded a dataset.
	DatasetsPruned uint64 `json:"datasetsPruned"`
}

// Stats returns a snapshot of the planner's counters, read back from the
// metrics registry so the JSON view and /metrics cannot disagree.
func (p *Planner) Stats() Stats {
	return Stats{
		Plans:              uint64(p.metrics.plans.Value()),
		DatasetsConsidered: uint64(p.metrics.considered.Value()),
		DatasetsPruned:     uint64(p.metrics.pruned.Value()),
	}
}

// Decision records why one data set was kept or pruned; the /api/plan
// explain endpoint surfaces these.
type Decision struct {
	Dataset      string   `json:"dataset"`
	Endpoint     string   `json:"endpoint"`
	Relevant     bool     `json:"relevant"`
	NeedsRewrite bool     `json:"needsRewrite,omitempty"`
	Reasons      []string `json:"reasons"`
	// LatencyMS is the endpoint's smoothed median latency (0 = no data).
	LatencyMS float64 `json:"latencyMs,omitempty"`
	// DeadlineMS is the adaptive per-attempt deadline (0 = executor default).
	DeadlineMS float64 `json:"deadlineMs,omitempty"`
}

// Target is one data set a plan dispatches to, with what its place in
// the dispatch order and its deadline come from.
type Target struct {
	Dataset  string `json:"dataset"`
	Endpoint string `json:"endpoint"`
	// Replicas are alternate endpoints for the same data set, candidates
	// for the executor's hedged dispatch.
	Replicas []string `json:"replicas,omitempty"`
	// NeedsRewrite says the sub-query must be translated for this data
	// set before dispatch.
	NeedsRewrite bool `json:"needsRewrite,omitempty"`
	// Timeout tightens the executor's per-attempt deadline (0 = default).
	Timeout   time.Duration `json:"-"`
	TimeoutMS float64       `json:"timeoutMs,omitempty"`

	latency time.Duration
	open    bool
	ds      *voidkb.Dataset // the description the owner lookup reads (nil: holds anything)
}

// Target returns the dispatch target of a data set: its endpoints, and
// the deadline the endpoint's observed latency earns it.
func (p *Planner) Target(ds *voidkb.Dataset, needsRewrite bool) Target {
	t := Target{Dataset: ds.URI, Endpoint: ds.SPARQLEndpoint, Replicas: ds.Replicas, NeedsRewrite: needsRewrite, ds: ds}
	if p.endpoints != nil {
		t.latency, t.open = p.endpoints.Observed(ds.SPARQLEndpoint)
	}
	if t.latency > 0 {
		t.Timeout = max(t.latency*slowFactor, minDeadline)
	}
	t.TimeoutMS = millis(t.Timeout)
	return t
}

// Order sorts targets into dispatch order: endpoints with open circuits
// last, then the fastest observed first; endpoints without history keep
// their place at latency 0. The executor's in-order pool admission
// preserves the order.
func Order(ts []Target) {
	slices.SortStableFunc(ts, func(a, b Target) int {
		if a.open != b.open {
			if a.open {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.latency, b.latency)
	})
}

// Selection is source selection over one query: the sources of each of
// its triple patterns, and whether each data set answers it whole.
type Selection struct {
	// Patterns are the query's triple patterns across every group, in
	// sparql.Walk order, and Sources[i] the data sets of the source set
	// that answer Patterns[i] (PatternSources).
	Patterns []rdf.Triple
	Sources  [][]PatternSource
	// Cover are the data sets that answer the whole query, in dispatch
	// order (Order); empty when none does.
	Cover []Target
	// Decisions say, per registered data set in URI order, whether the
	// plan reads it and why.
	Decisions []Decision
}

// Select runs source selection for a SELECT query over every data set
// registered in the voiD KB; those outside the request's source set src
// are not relevant. A data set in src covers the query when it answers
// every triple pattern, natively or through the alignments into it from
// the pattern's vocabulary, and no ground IRI of a VALUES row or FILTER
// lies in another data set's URI space with no owl:sameAs alias in its own
// (unless the data set rewrites, which translates the IRI through
// owl:sameAs). With no cover, a data set is kept when it answers some
// pattern.
func (p *Planner) Select(q *sparql.Query, src voidkb.Sources) (*Selection, error) {
	if q.Form != sparql.Select {
		return nil, fmt.Errorf("plan: source selection takes a SELECT query, got %s", q.Form)
	}
	all := p.datasets.All()
	sel := &Selection{Decisions: make([]Decision, len(all))}
	var terms []rdf.Term // of VALUES rows and FILTERs
	sparql.Walk(q.Where, func(el sparql.GroupElement) {
		switch e := el.(type) {
		case *sparql.BGP:
			sel.Patterns = append(sel.Patterns, e.Patterns...)
		case *sparql.InlineData:
			for _, row := range e.Rows {
				terms = append(terms, row...)
			}
		case *sparql.Filter:
			terms = append(terms, sparql.ExprTerms(e.Expr)...)
		}
	})
	sel.Sources = make([][]PatternSource, len(sel.Patterns))
	block := make([]PatternSource, len(sel.Patterns)*len(all)) // every pattern's sources, one allocation
	for i := range sel.Sources {
		sel.Sources[i] = block[i*len(all) : i*len(all) : (i+1)*len(all)]
	}

	// Per data set: the patterns it answers, whether any through
	// rewriting, and the first thing that keeps it from the cover.
	type verdict struct {
		answered int
		why      miss
		target   Target
		coref    string // how co-reference admitted a ground term, if it did
	}
	verdicts := make([]verdict, len(all))
	for j, ds := range all {
		dec, v := &sel.Decisions[j], &verdicts[j]
		*dec = Decision{Dataset: ds.URI, Endpoint: ds.SPARQLEndpoint}
		if !src.Has(ds.URI) {
			v.why.outside = true
			continue
		}
		for i, tp := range sel.Patterns {
			ps, m, coref := p.patternSource(ds, tp)
			if m == (miss{}) {
				v.coref = cmp.Or(v.coref, coref)
				sel.Sources[i] = append(sel.Sources[i], ps)
				v.answered++
				dec.NeedsRewrite = dec.NeedsRewrite || ps.NeedsRewrite
			}
			if v.why == (miss{}) {
				v.why = m
			}
		}
		for _, t := range terms {
			if v.why == (miss{}) {
				var coref string
				v.why, coref = p.reaches(ds, dec.NeedsRewrite, t)
				v.coref = cmp.Or(v.coref, coref)
			}
		}
		v.target = p.Target(ds, dec.NeedsRewrite)
		dec.LatencyMS = millis(v.target.latency)
		if v.why == (miss{}) {
			sel.Cover = append(sel.Cover, v.target)
		}
	}
	Order(sel.Cover)

	// The cover reads the whole query; without one, every data set that
	// answers part of it joins its fragments at the mediator.
	var pruned int
	reasons := make([]string, 3*len(all)) // each decision's, at most three
	for j, v := range verdicts {
		dec := &sel.Decisions[j]
		dec.Relevant = v.why == (miss{}) || len(sel.Cover) == 0 && v.answered > 0
		dec.Reasons = reasons[3*j : 3*j+1 : 3*j+3]
		switch {
		case !dec.Relevant:
			pruned++
			dec.Reasons[0] = v.why.String()
			continue
		case len(sel.Cover) == 0:
			dec.Reasons[0] = fmt.Sprintf("answers %d of the query's %d triple patterns; its fragments join at the mediator",
				v.answered, len(sel.Patterns))
		case dec.NeedsRewrite:
			dec.Reasons[0] = "answers every triple pattern, some translated through alignments"
		default:
			dec.Reasons[0] = "answers every triple pattern in a vocabulary it declares"
		}
		if v.coref != "" {
			dec.Reasons = append(dec.Reasons, v.coref)
		}
		dec.DeadlineMS = v.target.TimeoutMS
		if v.target.open {
			dec.Reasons = append(dec.Reasons, "endpoint circuit is open; dispatched last")
		}
	}
	p.metrics.plans.Inc()
	p.metrics.considered.Add(float64(len(sel.Decisions)))
	p.metrics.pruned.Add(float64(pruned))
	return sel, nil
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// infrastructureNS are namespaces every endpoint is assumed to know.
var infrastructureNS = map[string]bool{
	rdf.RDFNS:  true,
	rdf.RDFSNS: true,
	rdf.OWLNS:  true,
	rdf.XSDNS:  true,
}

// namespaceOf splits an IRI at its last '#' or '/', keeping the separator.
func namespaceOf(iri string) string {
	if i := strings.LastIndex(iri, "#"); i >= 0 {
		return iri[:i+1]
	}
	if i := strings.LastIndex(iri, "/"); i >= 0 {
		return iri[:i+1]
	}
	return iri
}
