// Package sparqlrw is the public API of this repository: a Go
// implementation of "SPARQL Query Rewriting for Implementing Data
// Integration over Linked Data" (Correndo, Salvadores, Millard, Glaser,
// Shadbolt — EDBT 2010).
//
// The library rewrites SPARQL queries written against a source ontology /
// data set so they run against a target ontology / data set, using entity
// alignments EA = ⟨LHS, RHS, FD⟩ whose functional dependencies execute at
// rewrite time (co-reference resolution via owl:sameAs among them), and it
// ships every substrate that system needs: an RDF data model, Turtle and
// N-Triples parsers, an indexed triple store, a SPARQL 1.0 parser /
// algebra / evaluator, a sameas.org-style co-reference service, SPARQL
// protocol endpoints, a three-tier mediator with federated execution, and
// a forward-chaining materialisation baseline.
//
// # Form-polymorphic streaming query API
//
// The mediator's one federated entry point accepts every query form and
// returns a tagged union: a lazy solution stream for SELECT, a boolean
// for ASK, a lazy triple stream for CONSTRUCT and DESCRIBE. Results are
// streaming-first: the evaluator and the mediator's own lane move
// positional rows (no map per row between the two wire codecs), the wire
// format encodes and decodes incrementally, endpoints serve chunked
// responses, and the first solution arrives before the slowest endpoint
// answers. Solution maps are built at this boundary, one per row a caller
// asks for (Solutions, Collect):
//
//	m := sparqlrw.NewMediator(datasets, alignments, corefSrc,
//	    sparqlrw.WithMediatorRewriteFilters(true))
//	res, err := m.Query(ctx, sparqlrw.MediatorQueryRequest{
//	    Query: `SELECT ?a WHERE { ... }`, // or ASK / CONSTRUCT / DESCRIBE
//	    // any vocabulary the alignments translate; Targets nil auto-plans.
//	})
//	if err != nil { ... }
//	defer res.Close()
//	switch res.Form() {
//	case sparqlrw.QueryFormSelect:
//	    for sol, err := range res.Bindings().Solutions() { ... }
//	case sparqlrw.QueryFormAsk:
//	    fmt.Println(res.Bool())
//	default: // CONSTRUCT / DESCRIBE
//	    for t, err := range res.Graph().Triples() { ... }
//	}
//	summary, err := res.Summary() // per-dataset outcomes
//
// Over HTTP the same surface is a W3C SPARQL 1.1 Protocol endpoint
// (GET|POST /sparql) with content negotiation: results JSON, NDJSON and
// Server-Sent Events for bindings and booleans, streamed N-Triples and
// Turtle for graphs.
//
// Quick start:
//
//	cs := sparqlrw.NewCorefStore()
//	cs.Add("http://southampton.rkbexplorer.com/id/person-02686",
//	       "http://kisti.rkbexplorer.com/id/PER_00000000105047")
//	rw := sparqlrw.NewRewriter(
//	    []*sparqlrw.EntityAlignment{ /* ... */ },
//	    sparqlrw.NewFunctionRegistry(cs))
//	q, _ := sparqlrw.ParseQuery(`SELECT ?a WHERE { ... }`)
//	out, report, _ := rw.RewriteQuery(q)
//	fmt.Println(sparqlrw.FormatQuery(out))
//
// See examples/ for runnable programs and README.md for the module map.
package sparqlrw

import (
	"io"

	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/reason"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
	"sparqlrw/internal/voidkb"
)

// RDF data model.
type (
	// Term is an RDF term or SPARQL variable.
	Term = rdf.Term
	// Triple is an RDF triple or triple pattern.
	Triple = rdf.Triple
	// Graph is an ordered collection of triples.
	Graph = rdf.Graph
	// PrefixMap maps prefixes to namespaces.
	PrefixMap = rdf.PrefixMap
)

// Term constructors, re-exported from the data model.
var (
	NewIRI          = rdf.NewIRI
	NewLiteral      = rdf.NewLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewBlank        = rdf.NewBlank
	NewVar          = rdf.NewVar
	NewTriple       = rdf.NewTriple
)

// Query machinery.
type (
	// Query is a parsed SPARQL query.
	Query = sparql.Query
	// QueryResult is a SELECT evaluation outcome.
	QueryResult = eval.Result
	// Solution is one solution mapping.
	Solution = eval.Solution
	// SolutionSeq is a lazy solution sequence (iter.Seq2[Solution,
	// error]): the streaming shape of results at this boundary, each
	// map built for, and owned by, the consumer.
	SolutionSeq = eval.SolutionSeq
	// SolutionStream is a pull-based stream of solution maps (an
	// endpoint response read through EndpointClient).
	SolutionStream = eval.SolutionStream
	// RowResult is a SELECT evaluation outcome whose solutions are
	// produced lazily as positional rows (Engine.SelectRows).
	RowResult = eval.RowResult
	// Engine evaluates queries over a Store.
	Engine = eval.Engine
	// Store is the indexed in-memory triple store.
	Store = store.Store
)

// CollectSolutions drains a lazy solution sequence into a slice.
func CollectSolutions(seq SolutionSeq) ([]Solution, error) { return eval.Collect(seq) }

// ParseQuery parses a SPARQL 1.0 query (SELECT, ASK, CONSTRUCT or
// DESCRIBE).
func ParseQuery(src string) (*Query, error) { return sparql.Parse(src) }

// FormatQuery serialises a query back to SPARQL text.
func FormatQuery(q *Query) string { return sparql.Format(q) }

// NewStore returns an empty indexed triple store.
func NewStore() *Store { return store.New() }

// NewEngine returns a query engine over a store.
func NewEngine(st *Store) *Engine { return eval.New(st) }

// ParseTurtle parses a Turtle document.
func ParseTurtle(src string) (Graph, *PrefixMap, error) { return turtle.Parse(src) }

// FormatTurtle serialises a graph as Turtle.
func FormatTurtle(g Graph, prefixes *PrefixMap) string { return turtle.Format(g, prefixes) }

// ParseNTriples parses an N-Triples document.
func ParseNTriples(r io.Reader) (Graph, error) { return ntriples.Parse(r) }

// FormatNTriples serialises a graph as N-Triples.
func FormatNTriples(g Graph) string { return ntriples.Format(g) }

// Alignment model (§3.2 of the paper).
type (
	// EntityAlignment is EA = ⟨LHS, RHS, FD⟩.
	EntityAlignment = align.EntityAlignment
	// OntologyAlignment is OA = ⟨SO, TO, TD, EA⟩.
	OntologyAlignment = align.OntologyAlignment
	// FD is a functional dependency var = f(args...).
	FD = align.FD
	// AlignmentKB stores ontology alignments with context selection.
	AlignmentKB = align.KB
	// AlignmentSelector describes an integration request.
	AlignmentSelector = align.Selector
)

// Alignment constructors and codecs.
var (
	// NewClassAlignment builds a level-0 class correspondence.
	NewClassAlignment = align.ClassAlignment
	// NewPropertyAlignment builds a level-0 property correspondence.
	NewPropertyAlignment = align.PropertyAlignment
	// ParseAlignments loads alignments from the paper's reified Turtle.
	ParseAlignments = align.ParseTurtle
	// FormatAlignments serialises ontology alignments to Turtle.
	FormatAlignments = align.FormatTurtle
)

// NewAlignmentKB returns an empty alignment knowledge base.
func NewAlignmentKB() *AlignmentKB { return align.NewKB() }

// Co-reference and functions (§3.3).
type (
	// CorefStore is the owl:sameAs equivalence store.
	CorefStore = coref.Store
	// CorefClient queries a remote co-reference REST service.
	CorefClient = coref.Client
	// FunctionRegistry holds data-manipulation functions keyed by IRI.
	FunctionRegistry = funcs.Registry
)

// NewCorefStore returns an empty owl:sameAs equivalence store.
func NewCorefStore() *CorefStore { return coref.NewStore() }

// NewCorefClient returns a client for a co-reference REST service.
func NewCorefClient(baseURL string) *CorefClient { return coref.NewClient(baseURL) }

// CorefHandler serves the co-reference REST API over a store.
var CorefHandler = coref.Handler

// NewFunctionRegistry returns the standard function registry (sameas,
// prefixSwap, unit conversions, string helpers) over a co-reference
// source.
func NewFunctionRegistry(src funcs.CorefSource) *FunctionRegistry {
	return funcs.StandardRegistry(src)
}

// The rewriter (§3.3, the paper's contribution).
type (
	// Rewriter applies entity alignments to queries.
	Rewriter = core.Rewriter
	// RewriteReport carries rewrite diagnostics.
	RewriteReport = core.Report
	// RewriteOptions configure matching, FD failure and FILTER handling.
	RewriteOptions = core.Options
)

// FD failure policies and match modes.
const (
	KeepOriginal  = core.KeepOriginal
	SkipAlignment = core.SkipAlignment
	FailRewrite   = core.Fail
	FirstMatch    = core.FirstMatch
	AllMatches    = core.AllMatches
	// UnionMatches expands multiply-matched triples into SPARQL UNION
	// branches (closing the paper's §3.2.2 owl:unionOf gap).
	UnionMatches = core.UnionMatches
)

// NewRewriter returns a rewriter over the given alignments and functions.
func NewRewriter(alignments []*EntityAlignment, registry *FunctionRegistry) *Rewriter {
	return core.New(alignments, registry)
}

// ChainStage is one hop of a peer-to-peer rewriting chain (§3 of the
// paper: queries "can be rewritten multiple times, depending on where the
// query will be executed").
type ChainStage = core.Stage

// ChainReport collects per-hop rewrite reports.
type ChainReport = core.ChainReport

// RewriteChain composes rewriters A→B→…→Z over a query.
func RewriteChain(q *Query, stages []ChainStage) (*Query, *ChainReport, error) {
	return core.RewriteChain(q, stages)
}

// ConstructQuery compiles an entity alignment into a data-translating
// CONSTRUCT query (the §2 Euzenat-style path); see core.ConstructQuery
// for the functional-dependency caveat.
func ConstructQuery(ea *EntityAlignment, allowFDLoss bool) (*Query, error) {
	return core.ConstructQuery(ea, allowFDLoss)
}

// TranslateData materialises target-vocabulary data into the source
// vocabulary by running compiled CONSTRUCT queries.
func TranslateData(data *Store, eas []*EntityAlignment, allowFDLoss bool) (Graph, []string, error) {
	return core.TranslateData(data, eas, allowFDLoss)
}

// Federation (Figure 5).
type (
	// Dataset is a voiD data set description.
	Dataset = voidkb.Dataset
	// DatasetKB is the voiD knowledge base.
	DatasetKB = voidkb.KB
	// Mediator is the three-tier integration service.
	Mediator = mediate.Mediator
	// EndpointServer serves a store over the SPARQL protocol.
	EndpointServer = endpoint.Server
	// EndpointClient queries remote SPARQL endpoints.
	EndpointClient = endpoint.Client
	// FederationOptions tune the concurrent federation executor
	// (worker-pool bound, per-endpoint deadline, retries, circuit
	// breaker, rewrite-plan cache, partial-result policy).
	FederationOptions = federate.Options
	// FederationExecutor dispatches federated queries concurrently.
	FederationExecutor = federate.Executor
	// FederationStats snapshots per-endpoint latency, retries, breaker
	// state and the rewrite-cache hit rate.
	FederationStats = federate.Stats
	// FederatedResult is a merged federated answer.
	FederatedResult = mediate.FederatedResult
	// MediatorQueryRequest is the options struct for Mediator.Query:
	// query text (any form, any aligned vocabulary), explicit targets
	// (nil = planner-selected) and an optional stream limit.
	MediatorQueryRequest = mediate.QueryRequest
	// MediatorResult is Mediator.Query's form-polymorphic outcome: a
	// tagged union of a lazy solution stream (SELECT), a boolean (ASK)
	// and a lazy triple stream (CONSTRUCT/DESCRIBE).
	MediatorResult = mediate.Result
	// MediatorQueryStream is an in-flight federated SELECT: merged
	// solutions stream as endpoints deliver them, with the plan and the
	// per-dataset summary available on the stream.
	MediatorQueryStream = mediate.QueryStream
	// MediatorGraphStream is an in-flight federated CONSTRUCT/DESCRIBE:
	// a lazy, owl:sameAs-deduplicated triple stream.
	MediatorGraphStream = mediate.GraphStream
	// MediatorConfig is the mediator's consolidated configuration,
	// built with the MediatorOption functional options.
	MediatorConfig = mediate.Config
	// MediatorOption mutates a MediatorConfig (NewMediator, Configure).
	MediatorOption = mediate.Option
	// MediatorStats is the mediator's unified observability snapshot:
	// federation, planner and decompose counters plus per-form query
	// counts.
	MediatorStats = mediate.Stats
)

// Query forms, for dispatching on MediatorResult.Form (and on parsed
// Query.Form).
const (
	QueryFormSelect    = sparql.Select
	QueryFormAsk       = sparql.Ask
	QueryFormConstruct = sparql.Construct
	QueryFormDescribe  = sparql.Describe
)

// Mediator configuration options, re-exported from mediate.
var (
	// WithMediatorFederation replaces the federation executor options.
	WithMediatorFederation = mediate.WithFederation
	// WithMediatorDecomposer replaces the decompose options
	// (DecomposerOptions).
	WithMediatorDecomposer = mediate.WithDecomposer
	// WithMediatorRewriteFilters toggles the §4 FILTER extension.
	WithMediatorRewriteFilters = mediate.WithRewriteFilters
	// WithMediatorObservability replaces the observability options
	// (metrics registry, logger, slow-query threshold, trace-ring size).
	WithMediatorObservability = mediate.WithObservability
	// WithMediatorServing enables the production serving tier:
	// multi-tenant admission, the federated result cache and
	// policy-by-rewriting.
	WithMediatorServing = mediate.WithServing
)

// Serving tier: multi-tenant admission control, the sameAs-canonicalised
// federated result cache and per-tenant policy-by-rewriting in front of
// Mediator.Query (see internal/serve).
type (
	// ServingOptions tune the serving tier (tenant registry, result-cache
	// capacity and TTL).
	ServingOptions = serve.Options
	// ServingTier is the live tier, exposed on Mediator.Serve when
	// enabled; nil otherwise.
	ServingTier = serve.Tier
	// Tenant is one admitted principal: identification keys, rate and
	// concurrency limits, and an optional query policy.
	Tenant = serve.Tenant
	// TenantsConfig is the parsed -tenants JSON document.
	TenantsConfig = serve.TenantsConfig
	// TenantPolicy restricts a tenant's queries by rewriting: a dataset
	// allowlist, subject URI spaces and denied predicates.
	TenantPolicy = serve.Policy
	// AdmissionRejection is a load-shed decision: HTTP status (429/503),
	// retry-after hint, tenant and reason.
	AdmissionRejection = serve.Rejection
)

// ErrPolicyDenied is reported when a tenant's policy statically refuses a
// query (ground term outside the tenant's URI spaces, denied predicate,
// a named target outside the dataset allowlist, or an allowlist that
// answers nothing). The protocol endpoint maps it to 403.
var ErrPolicyDenied = serve.ErrDenied

// ParseTenants parses a tenant configuration JSON document; LoadTenants
// reads one from disk (the -tenants flag's format).
var (
	ParseTenants = serve.ParseTenants
	LoadTenants  = serve.LoadTenants
)

// RestrictQuery applies a tenant policy to a parsed query, returning the
// (possibly rewritten) query, whether anything changed, and ErrPolicyDenied
// if the policy statically refuses it.
func RestrictQuery(q *Query, p *TenantPolicy) (*Query, bool, error) {
	return serve.Restrict(q, p)
}

// Observability: every mediator layer registers its counters, gauges and
// latency histograms in one shared registry (Prometheus text exposition
// at GET /metrics), and each query grows a span tree annotated by the
// rewrite, plan, decompose and federate stages (explain=trace on /sparql,
// GET /api/trace, MediatorResult.Trace).
type (
	// MetricsRegistry is the process-wide metric family registry. Pass
	// one via ObservabilityOptions to merge several components into a
	// single exposition; read it back on Mediator.Obs.
	MetricsRegistry = obs.Registry
	// ObservabilityOptions tune the registry, structured logger,
	// slow-query threshold and trace-ring size.
	ObservabilityOptions = obs.Options
	// Observer bundles a mediator's observability surfaces: registry,
	// finished-trace ring, logger.
	Observer = obs.Observer
	// QueryTrace is one query's finished span tree.
	QueryTrace = obs.Trace
	// QuerySpan is one timed, annotated operation within a QueryTrace.
	QuerySpan = obs.Span
)

// NewMetricsRegistry returns an empty metric family registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ParsePrometheusText parses a Prometheus text-format exposition (such as
// the mediator's /metrics output) into metric families — the test-side
// complement of the registry's exposition writer.
var ParsePrometheusText = obs.ParsePrometheusText

// ErrCircuitOpen is reported (wrapped) in a DatasetAnswer when an
// endpoint's circuit breaker rejects a request without dispatching it.
var ErrCircuitOpen = federate.ErrCircuitOpen

// Federation planning: voiD-driven source selection and adaptive ordering
// (internal/plan), from which the mediator's planner builds every query's
// decomposition (Mediator.PlanQuery explains one).
type (
	// FederationPlanner selects, orders and budgets federation targets.
	FederationPlanner = plan.Planner
	// PlannerOptions hold the planner's metrics registry.
	PlannerOptions = plan.Options
	// DecomposerOptions tune VALUES sharding, bound joins and the join
	// engine.
	DecomposerOptions = decompose.Options
	// PlanDecision explains why one data set was kept or pruned.
	PlanDecision = plan.Decision
	// PlannerStats counts plans and considered and pruned data sets.
	PlannerStats = plan.Stats
)

// NewFederationPlanner builds a standalone source selector over the given
// KBs and co-reference source, which decide the URI spaces a ground IRI
// reaches; most callers use the Mediator's built-in planner instead
// (PlanQuery, and Query with nil Targets). corefSrc and endpoints may be
// nil; an executor's Endpoints() table orders the selected targets by
// observed latency.
func NewFederationPlanner(datasets *DatasetKB, alignments *AlignmentKB, corefSrc funcs.CorefSource, endpoints plan.Endpoints, opts PlannerOptions) *FederationPlanner {
	return plan.New(datasets, alignments, corefSrc, endpoints, opts)
}

// NewDatasetKB returns an empty voiD knowledge base.
func NewDatasetKB() *DatasetKB { return voidkb.NewKB() }

// NewMediator wires data set KB, alignment KB and co-reference source,
// configured by the given functional options (see MediatorOption).
func NewMediator(datasets *DatasetKB, alignments *AlignmentKB, corefSrc funcs.CorefSource, opts ...MediatorOption) *Mediator {
	return mediate.New(datasets, alignments, corefSrc, opts...)
}

// MediatorHandler serves the mediator REST API and web UI.
var MediatorHandler = mediate.Handler

// MediatorDebugHandler serves the operator debug surface (net/http/pprof
// plus the /debug/dashboard trace-waterfall and endpoint-health page),
// intended for a separate listener.
var MediatorDebugHandler = mediate.DebugHandler

// Distributed tracing and endpoint health: the mediator speaks W3C Trace
// Context (inbound traceparent adoption, outbound propagation on every
// sub-query), exports finished traces to OTLP/HTTP collectors, scores
// endpoint health from live traffic and optional probes, and persists
// slow/failed queries in an on-disk flight recorder (see internal/obs).
type (
	// TraceContext is a parsed W3C traceparent/tracestate pair.
	TraceContext = obs.TraceContext
	// EndpointHealth is one endpoint's row of the executor's endpoint
	// table: smoothed latency quantiles, error rate, breaker state,
	// composite score and the endpoint's counts
	// (Mediator.Stats().Federation.Endpoints, GET /api/health).
	EndpointHealth = federate.EndpointHealth
)

// ParseTraceparent parses a W3C traceparent header value.
var ParseTraceparent = obs.ParseTraceparent

// WithRemoteParent attaches a remote trace parent to a context, so the
// next query's trace continues the caller's distributed trace.
var WithRemoteParent = obs.WithRemoteParent

// NewEndpointServer wraps a store as a SPARQL protocol endpoint.
func NewEndpointServer(name string, st *Store) *EndpointServer {
	return endpoint.NewServer(name, st)
}

// NewEndpointClient returns a SPARQL protocol client.
func NewEndpointClient() *EndpointClient { return endpoint.NewClient() }

// EndpointSelectStream is an in-flight SELECT response decoding
// incrementally off the wire (EndpointClient.SelectStreamContext).
type EndpointSelectStream = endpoint.SelectStream

// Streaming SPARQL-results-JSON codec, the SPARQL protocol wire format.
type (
	// ResultsStreamEncoder writes a SELECT results document one binding
	// at a time.
	ResultsStreamEncoder = srjson.StreamEncoder
	// ResultsStreamDecoder parses a results document incrementally in
	// constant memory.
	ResultsStreamDecoder = srjson.StreamDecoder
)

// NewResultsStreamEncoder starts a streaming SELECT results document.
func NewResultsStreamEncoder(w io.Writer, vars []string) (*ResultsStreamEncoder, error) {
	return srjson.NewStreamEncoder(w, vars)
}

// NewResultsStreamDecoder opens an incremental results-document decoder.
func NewResultsStreamDecoder(r io.Reader) (*ResultsStreamDecoder, error) {
	return srjson.NewStreamDecoder(r)
}

// Materialisation baseline (the reasoning-based integration the paper
// argues does not scale).
type (
	// Materialiser forward-chains alignments over data.
	Materialiser = reason.Materialiser
	// MaterialiseOptions configure the materialiser.
	MaterialiseOptions = reason.Options
	// MaterialiseResult reports a materialisation run.
	MaterialiseResult = reason.Result
)

// NewMaterialiser returns a forward-chaining materialiser.
func NewMaterialiser(alignments []*EntityAlignment, corefStore *CorefStore, opts MaterialiseOptions) *Materialiser {
	return reason.New(alignments, corefStore, opts)
}
