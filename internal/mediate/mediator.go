// Package mediate implements the paper's deployed system (§3.4, Figures 4
// and 5): a three-tier mediator exposing query rewriting and federated
// execution over a voiD data set KB, an alignment KB and a co-reference
// service, with remote execution over the SPARQL protocol and a minimal
// web UI standing in for the paper's GWT front end.
package mediate

import (
	"context"
	"fmt"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
)

// Mediator wires the knowledge bases and services together.
type Mediator struct {
	Datasets   *voidkb.KB
	Alignments *align.KB
	Funcs      *funcs.Registry
	// Coref is the mediator's one co-reference cache over the source New
	// was given: the sameas function, the planner's owner lookup, the
	// executor and the join engine all read it.
	Coref  *federate.RepCache
	Client *endpoint.Client
	// Exec owns federated execution: concurrent fan-out, retries, the
	// rewrite-plan cache and the endpoint table (breakers, in-flight
	// bounds, health, per-endpoint counts).
	Exec *federate.Executor
	// Planner performs voiD-driven source selection and adaptive ordering
	// for every federated query, over its source set. Decomposer plans the
	// query from it — one whole fragment over the data sets that answer it
	// whole, per-endpoint exclusive groups when none does — and JoinEngine
	// executes the fragments, groups as cardinality-ordered streaming
	// bound joins.
	Planner    *plan.Planner
	Decomposer *decompose.Decomposer
	JoinEngine *decompose.Engine
	// Serve is the production serving tier: multi-tenant admission, the
	// federated result cache and policy-by-rewriting; nil when the tier
	// is disabled (no WithServing).
	Serve *serve.Tier
	// Obs bundles the mediator's observability surfaces: the metrics
	// registry every layer registers into (rendered at /metrics, read back
	// by Stats), the finished-trace ring behind /api/trace, the structured
	// logger and the slow-query threshold.
	Obs *obs.Observer
	// Views is the materialized-view tier: it mines the fragments the
	// endpoints answer, keeps the frequent ones' answers as rows and
	// answers later fragments of the same pattern from them in process.
	// Nil when the tier is disabled (no WithViews).
	Views *view.Manager

	// rewriteFilters enables the §4 FILTER extension for every rewrite.
	rewriteFilters bool
	metrics        *mediatorMetrics
	start          time.Time
	// stopProbes ends the background health prober, when one is running
	// (see StartHealthProbes).
	stopProbes func()

	// unsubscribe detaches the KB cache-invalidation hooks (see Close).
	unsubscribe []func()
}

// New builds a mediator over the knowledge bases, configured by the given
// options (zero options select the defaults: federation, planning and
// decomposition all enabled with their package defaults). corefSrc may be
// a local coref.Store or a coref.Client pointing at a remote service; New
// wraps it in the one cache every layer reads (federate.RepCache).
func New(datasets *voidkb.KB, alignments *align.KB, corefSrc funcs.CorefSource, opts ...Option) *Mediator {
	reps := federate.NewRepCache(corefSrc)
	m := &Mediator{
		Datasets:   datasets,
		Alignments: alignments,
		Funcs:      funcs.StandardRegistry(reps),
		Coref:      reps,
		Client:     endpoint.NewClient(),
		start:      time.Now(),
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	m.build(o)
	// Cache invalidation hooks: a changed voiD entry drops that data
	// set's cached rewrite plans and observed cardinalities (both keyed by
	// target data set), a changed alignment KB flushes both. Either change
	// drops every cached federated result and marks every view stale: a
	// data set newly registered or newly relevant can add to any answer.
	// Each invalidation moves its cache's epoch (internal/lru), so a
	// rewrite, answer or observation in flight across it is discarded,
	// never stored. The views are marked synchronously, so by the time
	// the KB update returns no query can be answered from a view built
	// against the old state.
	m.unsubscribe = []func(){
		datasets.Subscribe(func(uri string) {
			m.Exec.InvalidateDataset(uri)
			m.Obs.Cards.Invalidate(uri)
			if m.Serve != nil {
				m.Serve.Flush()
			}
			m.Views.InvalidateAll()
			if ds, ok := m.Datasets.Get(uri); ok {
				m.Exec.Endpoints().Ensure(ds.SPARQLEndpoint)
			}
		}),
		alignments.Subscribe(func() {
			m.Exec.FlushPlans()
			if m.Serve != nil {
				m.Serve.Flush()
			}
			m.Obs.Cards.Flush()
			m.Views.InvalidateAll()
		}),
	}
	return m
}

// Close detaches the mediator's KB subscriptions, stops the background
// health probes and closes the observer (flushing any pending OTLP spans
// and the flight recorder). Call it when the mediator is discarded but
// the knowledge bases live on (e.g. a config reload rebuilding the
// mediator over shared KBs); otherwise the KBs keep the mediator —
// executor, caches and all — reachable forever.
func (m *Mediator) Close() {
	for _, cancel := range m.unsubscribe {
		cancel()
	}
	m.unsubscribe = nil
	if m.stopProbes != nil {
		m.stopProbes()
		m.stopProbes = nil
	}
	m.Views.Close()
	m.Obs.Close()
}

// StartHealthProbes begins background liveness probing: every interval,
// an `ASK { ?s ?p ?o }` is issued to each registered data set endpoint
// and its outcome recorded in the executor's endpoint table, so
// /api/health scores and the planner's latencies stay current for
// endpoints receiving no query traffic. The returned
// stop function (also invoked by Close) ends probing; starting again
// replaces the previous prober.
func (m *Mediator) StartHealthProbes(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	if m.stopProbes != nil {
		m.stopProbes()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			m.probeEndpoints(ctx)
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
		}
	}()
	m.stopProbes = func() {
		cancel()
		<-done
	}
	return m.stopProbes
}

// healthProbeTimeout bounds one liveness ASK.
const healthProbeTimeout = 5 * time.Second

// probeEndpoints issues one liveness ASK to every distinct registered
// endpoint, recording latency and outcome as probe samples.
func (m *Mediator) probeEndpoints(ctx context.Context) {
	seen := map[string]bool{}
	for _, ds := range m.Datasets.All() {
		url := ds.SPARQLEndpoint
		if url == "" || seen[url] {
			continue
		}
		seen[url] = true
		pctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
		start := time.Now()
		_, err := m.Client.AskContext(pctx, url, "ASK { ?s ?p ?o }")
		cancel()
		if ctx.Err() != nil {
			return
		}
		m.Exec.Endpoints().RecordProbe(url, time.Since(start), err)
	}
}

// DecomposeStats bundles the decomposer's and join engine's counters.
type DecomposeStats struct {
	decompose.Stats
	Engine decompose.EngineStats `json:"engine"`
}

// FormStats counts executed queries by form.
type FormStats struct {
	Select    uint64 `json:"select"`
	Ask       uint64 `json:"ask"`
	Construct uint64 `json:"construct"`
	Describe  uint64 `json:"describe"`
}

// Stats is the mediator's one introspection document: /api/stats serves
// it whole, /api/health its endpoint rows, /api/views its view tier, and
// the debug dashboard renders it. It carries the executor's endpoint table
// (one row per endpoint: counts, latency, health, breaker) and cache
// counters, the planner's pruning/sharding counters, the decompose-layer
// counters and per-form query counts.
type Stats struct {
	Federation federate.Stats  `json:"federation"`
	Planner    *plan.Stats     `json:"planner,omitempty"`
	Decompose  *DecomposeStats `json:"decompose,omitempty"`
	Queries    FormStats       `json:"queries"`
	// InFlight is how many accepted queries have not closed their result.
	InFlight int `json:"inFlight"`
	// SolutionsStreamed counts solutions and triples delivered to
	// consumers across all queries.
	SolutionsStreamed uint64 `json:"solutionsStreamed"`
	// Serving reports the serving tier's per-tenant admission state and
	// result-cache counters (nil when the tier is disabled).
	Serving *serve.Stats `json:"serving,omitempty"`
	// Views reports the materialized-view tier's hit/miss/refresh
	// counters and per-view descriptors (nil when the tier is disabled).
	Views *view.Stats `json:"views,omitempty"`
	// Build identifies the running binary; UptimeSeconds is time since the
	// mediator was constructed.
	Build         BuildInfo `json:"build"`
	UptimeSeconds float64   `json:"uptimeSeconds"`
}

// Stats returns a snapshot of every layer's state. Each part is read
// once from where it lives — counters from the shared metrics registry,
// per-endpoint rows from the endpoint table — the same sources GET
// /metrics renders, so the document and the exposition cannot drift.
func (m *Mediator) Stats() Stats {
	ps := m.Planner.Stats()
	st := Stats{
		Federation: m.Exec.Stats(),
		Planner:    &ps,
		Decompose:  &DecomposeStats{Stats: m.Decomposer.Stats(), Engine: m.JoinEngine.Stats()},
	}
	m.metrics.queries.Each(func(lvs []string, v float64) {
		switch lvs[0] {
		case "select":
			st.Queries.Select = uint64(v)
		case "ask":
			st.Queries.Ask = uint64(v)
		case "construct":
			st.Queries.Construct = uint64(v)
		case "describe":
			st.Queries.Describe = uint64(v)
		}
	})
	st.InFlight = int(m.metrics.inflight.Value())
	st.SolutionsStreamed = uint64(m.metrics.streamed.Value())
	if m.Serve != nil {
		ss := m.Serve.Stats()
		st.Serving = &ss
	}
	if m.Views != nil {
		vs := m.Views.Stats()
		st.Views = &vs
	}
	st.Build = buildInfo()
	st.UptimeSeconds = time.Since(m.start).Seconds()
	return st
}

// PlanQuery explains how a federated query would run for the anonymous
// tenant: the route the query path takes, with its per-data-set decisions,
// its fragments and their sub-queries as the endpoints receive them (a
// rewritten target translates its own). The second argument is ignored:
// the query path rewrites from every vocabulary a query uses, and the
// parameter is kept for the benchmark's layer probes, which pass one.
func (m *Mediator) PlanQuery(queryText, _ string) (*decompose.Decomposition, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, fmt.Errorf("mediate: parsing query: %w", err)
	}
	return m.route(context.TODO(), q, QueryRequest{})
}

// RewriteResult is the outcome of a single rewrite.
type RewriteResult struct {
	// Query is the rewritten query text.
	Query string
	// Target is the data set the query was rewritten for.
	Target string
	// AlignmentsUsed is how many entity alignments were selected.
	AlignmentsUsed int
	// Report carries the rewriter diagnostics.
	Report *core.Report
}

// Rewrite translates a query for the given target data set, per the
// paper's inputs: "the query, the source ontology used to formulate the
// query ... and the target ontology (or data set)". A sourceOnt only
// narrows the alignments to those from that ontology; "" uses every
// alignment into the target, as the query path does.
func (m *Mediator) Rewrite(queryText, sourceOnt, targetDataset string) (*RewriteResult, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, fmt.Errorf("mediate: parsing query: %w", err)
	}
	return m.rewriteResult(q, sourceOnt, targetDataset)
}

// rewriteResult is Rewrite past its parse, the entry of /api/rewrite: the
// rewriting as text, for a person to read.
func (m *Mediator) rewriteResult(q *sparql.Query, sourceOnt, targetDataset string) (*RewriteResult, error) {
	out, rr, err := m.rewriteQuery(q, sourceOnt, targetDataset)
	if err != nil {
		return nil, err
	}
	rr.Query = sparql.Format(out)
	return rr, nil
}

// rewriteQuery is Rewrite without the text at either end: q is only read,
// the result's Query left empty.
func (m *Mediator) rewriteQuery(q *sparql.Query, sourceOnt, targetDataset string) (*sparql.Query, *RewriteResult, error) {
	rw, err := m.rewriter(sourceOnt, targetDataset)
	if err != nil {
		return nil, nil, err
	}
	out, report, err := rw.RewriteQuery(q)
	if err != nil {
		return nil, nil, fmt.Errorf("mediate: rewriting for %s: %w", targetDataset, err)
	}
	return out, &RewriteResult{Target: targetDataset, AlignmentsUsed: len(rw.Alignments), Report: report}, nil
}

// rewriteShape is the executor's RewriteFunc: the template of a query
// shape with lifted slots (a query itself with none) for the target data
// set.
func (m *Mediator) rewriteShape(q *sparql.Query, lifted int, targetDataset string) (*core.Template, error) {
	rw, err := m.rewriter("", targetDataset)
	if err != nil {
		return nil, err
	}
	tmpl, err := rw.RewriteShape(q, lifted)
	if err != nil {
		return nil, fmt.Errorf("mediate: rewriting for %s: %w", targetDataset, err)
	}
	return tmpl, nil
}

// rewriter returns the rewriter into the target data set: every alignment
// into the data set or its vocabulary (only those from sourceOnt when it
// is not ""), the data set's URI space, the mediator's functions and
// FILTER policy. Each triple rewrites through the alignment its own IRIs
// match. The executor's RewriteFunc rewrites shapes with it, Rewrite
// queries.
func (m *Mediator) rewriter(sourceOnt, targetDataset string) (*core.Rewriter, error) {
	ds, ok := m.Datasets.Get(targetDataset)
	if !ok {
		return nil, fmt.Errorf("mediate: unknown target data set %s", targetDataset)
	}
	eas := m.Alignments.Select(align.Selector{
		SourceOntology: sourceOnt,
		TargetDataset:  targetDataset,
		TargetOntology: ds.Vocabulary(),
	})
	rw := core.New(eas, m.Funcs)
	rw.Opts.RewriteFilters = m.rewriteFilters
	rw.Opts.TargetURISpace = ds.URISpace
	return rw, nil
}

// DatasetAnswer is one data set's contribution to a federated query.
type DatasetAnswer = federate.DatasetAnswer

// FederatedResult merges the answers of all targeted data sets.
type FederatedResult = federate.Result

// DatasetInfo summarises one data set for the REST API.
type DatasetInfo struct {
	URI          string   `json:"uri"`
	Title        string   `json:"title"`
	Endpoint     string   `json:"endpoint"`
	URISpace     string   `json:"uriSpace"`
	Vocabularies []string `json:"vocabularies"`
}

// DatasetInfos lists the registered data sets.
func (m *Mediator) DatasetInfos() []DatasetInfo {
	var out []DatasetInfo
	for _, d := range m.Datasets.All() {
		out = append(out, DatasetInfo{
			URI: d.URI, Title: d.Title, Endpoint: d.SPARQLEndpoint,
			URISpace: d.URISpace, Vocabularies: d.Vocabularies,
		})
	}
	return out
}
