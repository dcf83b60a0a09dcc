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
	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
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
	NewIRI     = rdf.NewIRI
	NewLiteral = rdf.NewLiteral
	NewVar     = rdf.NewVar
	NewTriple  = rdf.NewTriple
)

// Query machinery.
type (
	// Query is a parsed SPARQL query.
	Query = sparql.Query
	// Engine evaluates queries over a Store.
	Engine = eval.Engine
	// Store is the indexed in-memory triple store.
	Store = store.Store
)

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

// Alignment model (§3.2 of the paper).
type (
	// EntityAlignment is EA = ⟨LHS, RHS, FD⟩.
	EntityAlignment = align.EntityAlignment
	// FD is a functional dependency var = f(args...).
	FD = align.FD
	// AlignmentKB stores ontology alignments with context selection.
	AlignmentKB = align.KB
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

// Rewriter applies entity alignments to queries (§3.3, the paper's
// contribution).
type Rewriter = core.Rewriter

// NewRewriter returns a rewriter over the given alignments and functions.
func NewRewriter(alignments []*EntityAlignment, registry *FunctionRegistry) *Rewriter {
	return core.New(alignments, registry)
}

// Federation (Figure 5).
type (
	// Dataset is a voiD data set description.
	Dataset = voidkb.Dataset
	// DatasetKB is the voiD knowledge base.
	DatasetKB = voidkb.KB
	// Mediator is the three-tier integration service.
	Mediator = mediate.Mediator
	// MediatorOption sets one part of a mediator's configuration
	// (NewMediator).
	MediatorOption = mediate.Option
	// MediatorQueryRequest is the options struct for Mediator.Query:
	// query text (any form, any aligned vocabulary), explicit targets
	// (nil = planner-selected) and an optional stream limit.
	MediatorQueryRequest = mediate.QueryRequest
	// MediatorStats is the mediator's unified observability snapshot:
	// federation, planner and decompose counters plus per-form query
	// counts.
	MediatorStats = mediate.Stats
	// FederationOptions tune the concurrent federation executor
	// (worker-pool bound, per-endpoint deadline, retries, circuit
	// breaker, rewrite-plan cache, partial-result policy).
	FederationOptions = federate.Options
	// DecomposerOptions tune VALUES sharding, bound joins and the join
	// engine.
	DecomposerOptions = decompose.Options
	// EndpointServer serves a store over the SPARQL protocol.
	EndpointServer = endpoint.Server
)

// Query forms, for dispatching on Mediator.Query's result (and on a
// parsed Query's Form).
const (
	QueryFormSelect    = sparql.Select
	QueryFormAsk       = sparql.Ask
	QueryFormConstruct = sparql.Construct
)

// Mediator configuration options, re-exported from mediate.
var (
	// WithMediatorFederation sets the federation executor options.
	WithMediatorFederation = mediate.WithFederation
	// WithMediatorDecomposer sets the decompose options
	// (DecomposerOptions).
	WithMediatorDecomposer = mediate.WithDecomposer
	// WithMediatorRewriteFilters toggles the §4 FILTER extension.
	WithMediatorRewriteFilters = mediate.WithRewriteFilters
	// WithMediatorObservability sets the observability options (metrics
	// registry, logger, slow-query threshold, trace-ring size).
	WithMediatorObservability = mediate.WithObservability
	// WithMediatorServing enables the production serving tier:
	// multi-tenant admission, the federated result cache and
	// policy-by-rewriting.
	WithMediatorServing = mediate.WithServing
)

// NewDatasetKB returns an empty voiD knowledge base.
func NewDatasetKB() *DatasetKB { return voidkb.NewKB() }

// NewMediator wires data set KB, alignment KB and co-reference source,
// configured by the given functional options (see MediatorOption).
func NewMediator(datasets *DatasetKB, alignments *AlignmentKB, corefSrc funcs.CorefSource, opts ...MediatorOption) *Mediator {
	return mediate.New(datasets, alignments, corefSrc, opts...)
}

// MediatorHandler serves the mediator REST API and web UI.
var MediatorHandler = mediate.Handler

// NewEndpointServer wraps a store as a SPARQL protocol endpoint.
func NewEndpointServer(name string, st *Store) *EndpointServer {
	return endpoint.NewServer(name, st)
}

// Serving tier: multi-tenant admission control, the sameAs-canonicalised
// federated result cache and per-tenant policy-by-rewriting in front of
// Mediator.Query (see internal/serve).
type (
	// ServingOptions tune the serving tier (tenant registry, result-cache
	// capacity and TTL).
	ServingOptions = serve.Options
	// TenantPolicy restricts a tenant's queries by rewriting: a dataset
	// allowlist, subject URI spaces and denied predicates.
	TenantPolicy = serve.Policy
)

// ParseTenants parses a tenant configuration JSON document (the
// -tenants flag's format).
var ParseTenants = serve.ParseTenants

// RestrictQuery applies a tenant policy to a parsed query, returning the
// (possibly rewritten) query, whether anything changed, and an error
// wrapping serve.ErrDenied if the policy statically refuses it.
func RestrictQuery(q *Query, p *TenantPolicy) (*Query, bool, error) {
	return serve.Restrict(q, p)
}

// ObservabilityOptions tune a mediator's metrics registry, structured
// logger, slow-query threshold and trace-ring size: every layer
// registers its counters, gauges and latency histograms in one registry
// (Prometheus text exposition at GET /metrics).
type ObservabilityOptions = obs.Options

// ParsePrometheusText parses a Prometheus text-format exposition (such as
// the mediator's /metrics output) into metric families — the test-side
// complement of the registry's exposition writer.
var ParsePrometheusText = obs.ParsePrometheusText
