// Package plan implements the mediator's federation query planner: the
// voiD-knowledge-base-driven source selection the paper's architecture
// (§3.4, Figure 5) describes, sitting between query rewriting and
// federated execution.
//
// Given a parsed query and its source ontology, the planner
//
//  1. selects sources — each registered data set is kept or pruned by
//     matching the query's vocabulary namespaces and bound subject/object
//     terms against the data set's voiD profile (void:vocabulary,
//     void:uriSpace) and the alignment KB's coverage, so a federated
//     query fans out only to repositories that can contribute answers;
//  2. decomposes — a large VALUES block is sharded into batches, so one
//     big seeded query federates as many small sub-queries whose results
//     recombine under the executor's owl:sameAs merge;
//  3. orders and budgets — sub-requests are dispatched fastest-endpoint
//     first using the executor's smoothed per-endpoint median latency,
//     open circuits last, and slow endpoints get deadlines proportional
//     to their observed latency instead of the full default budget (cf.
//     Yannakis et al.'s heuristics-based reordering, PAPERS.md).
//
// A plan holds the query the mediator parsed and clones of it, never text:
// the executor formats a sub-query when it dispatches it, and a plan renders
// its queries when it is marshalled (/api/plan, explain trailers, audit log).
//
// The package deliberately does not import internal/federate: the
// executor consumes a *Plan, and the executor's endpoint table is read
// through the Endpoints interface.
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/voidkb"
)

// Options tune the planner. The zero value selects sane defaults.
type Options struct {
	// ValuesBatch is the maximum VALUES rows per sharded sub-query
	// (default 50; set to -1 to disable sharding).
	ValuesBatch int
	// MaxShards caps how many shards one data set receives (default 32);
	// larger VALUES blocks get proportionally bigger batches.
	MaxShards int
	// Registry receives the planner's metrics (plan / source-selection /
	// shard counters). Nil creates a private registry; the mediator passes
	// its shared one so /metrics and Stats() read the same counters.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.ValuesBatch == 0 {
		o.ValuesBatch = 50
	}
	if o.MaxShards <= 0 {
		o.MaxShards = 32
	}
	return o
}

// The adaptive deadline: slowFactor times an endpoint's observed median
// latency, floored at minDeadline.
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

// Planner builds federation plans from the voiD and alignment KBs.
type Planner struct {
	datasets   *voidkb.KB
	alignments *align.KB
	endpoints  Endpoints
	opts       Options
	metrics    plannerMetrics
}

// plannerMetrics are the planner's registry-backed counters; Stats()
// reads them back, and the shared registry renders them at /metrics.
type plannerMetrics struct {
	plans        *obs.Counter
	considered   *obs.Counter
	pruned       *obs.Counter
	subQueries   *obs.Counter
	valuesShards *obs.Counter
}

// New returns a planner over the given knowledge bases. endpoints may be
// nil (no history: data set order, default deadlines).
func New(datasets *voidkb.KB, alignments *align.KB, endpoints Endpoints, opts Options) *Planner {
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		opts.Registry = reg
	}
	return &Planner{
		datasets: datasets, alignments: alignments, endpoints: endpoints, opts: opts,
		metrics: plannerMetrics{
			plans: reg.Counter("sparqlrw_plan_plans_total",
				"Federation plans built."),
			considered: reg.Counter("sparqlrw_plan_datasets_considered_total",
				"Data set relevance decisions taken during source selection."),
			pruned: reg.Counter("sparqlrw_plan_datasets_pruned_total",
				"Data sets pruned by source selection."),
			subQueries: reg.Counter("sparqlrw_plan_subqueries_total",
				"Sub-queries emitted by built plans."),
			valuesShards: reg.Counter("sparqlrw_plan_values_shards_total",
				"Sub-queries produced by VALUES sharding."),
		},
	}
}

// Options returns the planner's effective (defaulted) options.
func (p *Planner) Options() Options { return p.opts }

// Dataset returns the voiD description registered under uri, so layers
// built on the planner (the decomposer's cardinality estimator) can read
// data set statistics without holding the KB separately.
func (p *Planner) Dataset(uri string) (*voidkb.Dataset, bool) { return p.datasets.Get(uri) }

// Stats counts planner activity for the /api/stats endpoint.
type Stats struct {
	// Plans is how many plans were built.
	Plans uint64 `json:"plans"`
	// DatasetsConsidered counts dataset relevance decisions taken.
	DatasetsConsidered uint64 `json:"datasetsConsidered"`
	// DatasetsPruned counts decisions that excluded a dataset.
	DatasetsPruned uint64 `json:"datasetsPruned"`
	// SubQueries counts emitted sub-requests.
	SubQueries uint64 `json:"subQueries"`
	// ValuesShards counts sub-requests produced by VALUES sharding.
	ValuesShards uint64 `json:"valuesShards"`
}

// Stats returns a snapshot of the planner's counters, read back from the
// metrics registry so the JSON view and /metrics cannot disagree.
func (p *Planner) Stats() Stats {
	return Stats{
		Plans:              uint64(p.metrics.plans.Value()),
		DatasetsConsidered: uint64(p.metrics.considered.Value()),
		DatasetsPruned:     uint64(p.metrics.pruned.Value()),
		SubQueries:         uint64(p.metrics.subQueries.Value()),
		ValuesShards:       uint64(p.metrics.valuesShards.Value()),
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
	// Shards is how many sub-queries the data set receives (0 if pruned).
	Shards int `json:"shards,omitempty"`
	// LatencyMS is the endpoint's smoothed median latency (0 = no data).
	LatencyMS float64 `json:"latencyMs,omitempty"`
	// DeadlineMS is the adaptive per-attempt deadline (0 = executor default).
	DeadlineMS float64 `json:"deadlineMs,omitempty"`
}

// SubRequest is one ordered, sharded sub-query of a plan.
type SubRequest struct {
	Dataset  string `json:"dataset"`
	Endpoint string `json:"endpoint"`
	// Replicas are alternate endpoints for the same data set, candidates
	// for the executor's hedged dispatch.
	Replicas []string `json:"replicas,omitempty"`
	// Query is the sub-query: the plan's query, or its clone for this shard.
	Query *sparql.Query `json:"query"`
	// NeedsRewrite says the executor must translate Query for this data
	// set before dispatch.
	NeedsRewrite bool `json:"needsRewrite,omitempty"`
	// Shard/Shards number this sub-query among its data set's VALUES
	// shards (1-based; 1/1 when unsharded).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Timeout tightens the executor's per-attempt deadline (0 = default).
	Timeout   time.Duration `json:"-"`
	TimeoutMS float64       `json:"timeoutMs,omitempty"`
}

// Plan is an ordered set of sub-requests plus the decisions behind it.
// Its queries are shared with the caller, never modified, and marshal as
// their text.
type Plan struct {
	Query     *sparql.Query `json:"query"`
	SourceOnt string        `json:"source"`
	Vars      []string      `json:"vars"`
	// ShardVar names the VALUES variable(s) the plan sharded on ("" when
	// the query was not sharded).
	ShardVar  string       `json:"shardVar,omitempty"`
	Subs      []SubRequest `json:"subRequests"`
	Decisions []Decision   `json:"decisions"`
}

// Datasets returns the distinct relevant data set URIs in dispatch order.
func (pl *Plan) Datasets() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range pl.Subs {
		if !seen[s.Dataset] {
			seen[s.Dataset] = true
			out = append(out, s.Dataset)
		}
	}
	return out
}

// Plan builds a federation plan for a SELECT query written against
// sourceOnt, considering every data set registered in the voiD KB. Those
// outside the request's source set src are not relevant.
func (p *Planner) Plan(q *sparql.Query, sourceOnt string, src voidkb.Sources) (*Plan, error) {
	if q.Form != sparql.Select {
		return nil, fmt.Errorf("plan: federated planning supports SELECT only, got %s", q.Form)
	}
	prof := profileQuery(q)
	subs, shardVar := ShardQuery(q, p.opts.ValuesBatch, p.opts.MaxShards)

	pl := &Plan{Query: q, SourceOnt: sourceOnt, Vars: q.Projection(), ShardVar: shardVar}
	// kept holds each relevant data set with what its place in the
	// dispatch order and its deadline come from.
	type candidate struct {
		ds                 *voidkb.Dataset
		needsRewrite, open bool
		latency, timeout   time.Duration
	}
	all := p.datasets.All()
	kept := make([]candidate, 0, len(all))
	var pruned uint64
	for _, ds := range all {
		if !src.Has(ds.URI) {
			pruned++
			pl.Decisions = append(pl.Decisions, Decision{Dataset: ds.URI, Endpoint: ds.SPARQLEndpoint,
				Reasons: []string{"outside the request's source set (dataset allowlist or named targets)"}})
			continue
		}
		dec := p.decide(ds, prof, sourceOnt)
		latency, open := p.observed(ds.SPARQLEndpoint)
		dec.LatencyMS = millis(latency)
		if !dec.Relevant {
			pruned++
			pl.Decisions = append(pl.Decisions, dec)
			continue
		}
		if open {
			dec.Reasons = append(dec.Reasons, "endpoint circuit is open; dispatched last")
		}
		timeout := deadline(latency)
		dec.DeadlineMS = millis(timeout)
		dec.Shards = len(subs)
		kept = append(kept, candidate{ds, dec.NeedsRewrite, open, latency, timeout})
		pl.Decisions = append(pl.Decisions, dec)
	}
	// Dispatch order: endpoints with open circuits last, then the fastest
	// observed first; endpoints without history keep their (deterministic,
	// URI-sorted) place at latency 0.
	slices.SortStableFunc(kept, func(a, b candidate) int {
		if a.open != b.open {
			if a.open {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.latency, b.latency)
	})
	for _, c := range kept {
		for i, sub := range subs {
			pl.Subs = append(pl.Subs, SubRequest{
				Dataset:      c.ds.URI,
				Endpoint:     c.ds.SPARQLEndpoint,
				Replicas:     c.ds.Replicas,
				Query:        sub,
				NeedsRewrite: c.needsRewrite,
				Shard:        i + 1,
				Shards:       len(subs),
				Timeout:      c.timeout,
				TimeoutMS:    millis(c.timeout),
			})
		}
	}
	var sharded uint64
	if shardVar != "" {
		sharded = uint64(len(pl.Subs))
	}

	p.metrics.plans.Inc()
	p.metrics.considered.Add(float64(len(pl.Decisions)))
	p.metrics.pruned.Add(float64(pruned))
	p.metrics.subQueries.Add(float64(len(pl.Subs)))
	p.metrics.valuesShards.Add(float64(sharded))
	return pl, nil
}

// decide runs the source-selection rules for one data set.
func (p *Planner) decide(ds *voidkb.Dataset, prof *profile, sourceOnt string) Decision {
	dec := Decision{Dataset: ds.URI, Endpoint: ds.SPARQLEndpoint, Relevant: true,
		NeedsRewrite: !ds.UsesVocabulary(sourceOnt)}
	if dec.NeedsRewrite {
		// The data set speaks another vocabulary: it can only contribute
		// through rewriting, which requires alignments from the source.
		eas := p.alignments.Select(align.Selector{
			SourceOntology: sourceOnt,
			TargetDataset:  ds.URI,
			TargetOntology: firstOrEmpty(ds.Vocabularies),
		})
		if len(eas) == 0 {
			dec.Relevant = false
			dec.Reasons = append(dec.Reasons, fmt.Sprintf(
				"does not declare source vocabulary <%s> and no alignment reaches it", sourceOnt))
			return dec
		}
		// A rewrite target must still cover every vocabulary the query
		// touches — declared outright, or reachable through alignments.
		// Shipping the whole pattern to a repository that cannot answer
		// part of it would silently return nothing; pruning it here lets
		// the per-BGP decomposer take over instead.
		for _, ns := range prof.namespaces {
			if ds.UsesVocabulary(ns) {
				continue
			}
			if len(p.alignments.Select(align.Selector{
				SourceOntology: ns,
				TargetDataset:  ds.URI,
				TargetOntology: firstOrEmpty(ds.Vocabularies),
			})) == 0 {
				dec.Relevant = false
				dec.Reasons = append(dec.Reasons, fmt.Sprintf(
					"query uses vocabulary <%s> the data set neither declares nor translates", ns))
				return dec
			}
		}
		dec.Reasons = append(dec.Reasons, fmt.Sprintf(
			"translates from <%s> via %d entity alignments", sourceOnt, len(eas)))
	} else {
		dec.Reasons = append(dec.Reasons, fmt.Sprintf("declares source vocabulary <%s>", sourceOnt))
		// A native data set must still cover every vocabulary the query
		// touches; voiD says it does not know the others.
		for _, ns := range prof.namespaces {
			if !ds.UsesVocabulary(ns) {
				dec.Relevant = false
				dec.Reasons = append(dec.Reasons, fmt.Sprintf(
					"query uses vocabulary <%s> the data set does not declare", ns))
				return dec
			}
		}
	}
	// Bound subject/object terms must be reachable: inside the data set's
	// URI space, translated through owl:sameAs when rewriting, or in no
	// registered space at all (benefit of the doubt).
	translated := false
	for _, uri := range prof.boundIRIs {
		if ds.Matches(uri) {
			continue
		}
		if dec.NeedsRewrite {
			if !translated {
				translated = true
				dec.Reasons = append(dec.Reasons, "bound terms translated through owl:sameAs")
			}
			continue
		}
		if other, ok := p.datasets.DatasetFor(uri); ok && other.URI != ds.URI {
			dec.Relevant = false
			dec.Reasons = append(dec.Reasons, fmt.Sprintf(
				"bound term <%s> lies in %s's URI space", uri, other.URI))
			return dec
		}
	}
	return dec
}

// observed reads the endpoint table; a planner without one sees no history.
func (p *Planner) observed(endpoint string) (p50 time.Duration, open bool) {
	if p.endpoints == nil {
		return 0, false
	}
	return p.endpoints.Observed(endpoint)
}

// deadline derives an endpoint's adaptive per-attempt deadline from its
// observed median latency: proportional to history, floored, 0 (the
// executor default) without history, and never looser than the executor
// default (the executor clamps from above).
func deadline(latency time.Duration) time.Duration {
	if latency <= 0 {
		return 0
	}
	return max(latency*slowFactor, minDeadline)
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// profile summarises the query features source selection matches against.
type profile struct {
	// namespaces are the vocabulary namespaces of bound predicates and
	// rdf:type classes, infrastructure namespaces excluded, sorted.
	namespaces []string
	// boundIRIs are ground IRIs in subject/object positions, VALUES rows
	// and FILTER constants — the terms URI-space matching applies to.
	boundIRIs []string
}

// infrastructureNS are namespaces every endpoint is assumed to know.
var infrastructureNS = map[string]bool{
	rdf.RDFNS:  true,
	rdf.RDFSNS: true,
	rdf.OWLNS:  true,
	rdf.XSDNS:  true,
}

func profileQuery(q *sparql.Query) *profile {
	nsSet := map[string]bool{}
	iriSet := map[string]bool{}
	noteVocab := func(iri string) {
		ns := namespaceOf(iri)
		if !infrastructureNS[ns] {
			nsSet[ns] = true
		}
	}
	noteInstance := func(t rdf.Term) {
		if t.IsIRI() {
			iriSet[t.Value] = true
		}
	}
	sparql.Walk(q.Where, func(el sparql.GroupElement) {
		switch e := el.(type) {
		case *sparql.BGP:
			for _, tp := range e.Patterns {
				if tp.P.IsIRI() {
					if tp.P.Value == rdf.RDFType {
						if tp.O.IsIRI() {
							noteVocab(tp.O.Value)
						}
					} else {
						noteVocab(tp.P.Value)
						noteInstance(tp.O)
					}
				} else {
					noteInstance(tp.O)
				}
				noteInstance(tp.S)
			}
		case *sparql.InlineData:
			for _, row := range e.Rows {
				for _, t := range row {
					noteInstance(t)
				}
			}
		case *sparql.Filter:
			for _, t := range sparql.ExprTerms(e.Expr) {
				noteInstance(t)
			}
		}
	})
	p := &profile{}
	for ns := range nsSet {
		p.namespaces = append(p.namespaces, ns)
	}
	sort.Strings(p.namespaces)
	for iri := range iriSet {
		p.boundIRIs = append(p.boundIRIs, iri)
	}
	sort.Strings(p.boundIRIs)
	return p
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

func firstOrEmpty(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}
