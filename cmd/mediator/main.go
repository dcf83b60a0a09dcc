// Command mediator runs the paper's full three-tier deployment (Figures 4
// and 5) against generated stand-ins for the Southampton and KISTI data
// sets: two SPARQL protocol endpoints, a sameas.org-style co-reference
// service, and the mediator with its W3C SPARQL-Protocol endpoint, REST
// API and web UI.
//
// # Query endpoint
//
// GET|POST /sparql is a SPARQL 1.1 Protocol endpoint accepting every
// query form. SELECT streams merged solutions; ASK executes as a LIMIT-1
// federated probe; CONSTRUCT and DESCRIBE stream sameAs-deduplicated
// triples instantiated over the federated solutions. Accept negotiates
// the serialisation: results JSON (default), application/x-ndjson, or
// text/event-stream for bindings and booleans; application/n-triples
// (default) or text/turtle for graphs. The protocol extension `target`
// (repeatable) narrows the data sets the planner selects from; without it
// the planner selects from every registered data set. No source ontology
// is named: each target rewrites every triple through the alignment into
// it that the triple's own IRIs match. Every result path streams: the first merged
// row is on the wire before the slowest repository answers, and closing
// the connection cancels all in-flight sub-queries.
//
// # Federation, planning, decomposition
//
// Each target data set's sub-query is rewritten for the target vocabulary
// (served from an LRU cache of rewritten query shapes: queries that differ
// only in their instance IRIs share one entry), dispatched by a bounded worker pool
// with a per-attempt deadline, retry-with-backoff and a per-endpoint
// circuit breaker, and streamed into a canonicalising owl:sameAs merge
// (internal/federate). Every query is planned as one decomposition over
// its source set — the named targets, when it names any: voiD-driven
// source selection per triple pattern (internal/plan), then one whole
// fragment over the repositories that answer the whole query, VALUES
// sharded and dispatched fastest endpoint first (internal/decompose). A
// query no single repository covers — the third generated repository,
// "citation metrics", serves a second vocabulary over the same paper
// URIs — is split into per-endpoint exclusive groups joined with
// VALUES-bound joins. POST /api/plan explains that plan without running
// it: each data set's decision, the fragments and their sub-queries;
// GET /api/stats serves the one introspection document: every layer's
// counters, with each endpoint one row of the executor's endpoint table
// (breaker, health, attempts, failures, retries, rejections, solutions).
// Batch sizes, body caps and the bound-join threshold run at their
// package defaults. The knobs:
//
//	-concurrency N  worker-pool bound for the fan-out (default 8)
//	-timeout D      per-endpoint attempt deadline (default 10s)
//	-retries N      retries after a failed attempt (default 1)
//	-cache N        rewrite-plan LRU capacity in rewritten query shapes,
//	                one per shape and target; 0 disables (default 256)
//	-failfast       cancel the fan-out on the first endpoint error
//	                instead of returning best-effort partial results
//	-filters        the §4 FILTER-rewriting extension (default true)
//
// # Observability
//
// Every layer registers its instruments in one registry served in
// Prometheus text format at GET /metrics. Each query grows a span tree,
// written out as one trace document: its operator spans carry the typed
// per-operator profile (rows, bytes, estimated vs actual cardinality).
// The /sparql extension explain=trace appends the document, plan
// included, to the response, X-Trace-Id names it, GET /api/trace pages
// the recent-trace ring and GET /api/trace/{id} serves one document
// (?format=text renders its operator table).
// Observed cardinalities feed a per-(dataset, predicate/class, shape)
// store; with -adaptive-stats the decomposer corrects voiD estimates from
// it. Requests carrying a W3C `traceparent` header join the caller's
// trace, finished traces can ship to an OTLP/HTTP collector, GET
// /api/health serves the document's endpoint rows (health score,
// breaker, counts), /debug/dashboard renders the same document, and the
// trace documents of slow or failed queries persist to an on-disk flight
// recorder, paged at GET /api/trace?recorded=1 and still served by GET
// /api/trace/{id} once the ring has dropped them. The knobs:
//
//	-log-level L      debug|info|warn|error (default info)
//	-log-format F     text|json (default text)
//	-slow-query D     slow-query log threshold; negative disables (default 1s)
//	-debug-addr A     serve net/http/pprof and /debug/dashboard here
//	-adaptive-stats   correct voiD estimates with observed cardinalities
//	-otlp-endpoint U  OTLP/HTTP collector URL ("" disables)
//	-trace-sample P   head-sampling probability in (0,1] (default 1)
//	-audit-dir D      flight-recorder directory ("" disables)
//	-health-probe D   background ASK-probe interval (0 disables)
//
// # Serving tier
//
// internal/serve fronts /sparql: requests map to tenants (X-API-Key /
// Authorization: Bearer, or X-Tenant-Id), are admitted through per-tenant
// rate limits and concurrency caps, and shed as 429/503 before any
// planning runs. A tenant's subject URI spaces and denied predicates are
// injected into the query algebra, and its dataset allowlist is the
// request's source set (out-of-policy queries get 403). Repeated SELECT/ASK queries serve from
// a result cache keyed by the sameAs-canonicalised query, invalidated
// whenever the voiD or alignment KBs change. Slow sub-queries can be
// hedged to a data set's replica endpoint. The knobs:
//
//	-tenants F       tenant configuration file (JSON; empty = anonymous
//	                 only, unlimited)
//	-result-cache N  result-cache entries; 0 disables (default 512)
//	-hedge           hedge slow sub-queries to replica endpoints
//
// # Materialized views
//
// With -views, the mediator mines the decomposed-query stream for
// repeated cross-vocabulary join shapes and keeps their
// sameAs-canonicalised federated answer as rows; a later query whose
// basic graph pattern matches a view (modulo variable renaming and
// owl:sameAs spelling) is planned as one fragment those rows answer in
// process — zero endpoint round trips, no query text — and /api/plan
// explains it so. Views are never
// silently stale: voiD and alignment updates mark them stale, stale views
// refuse to answer, and a background loop re-materializes them. GET
// /api/views lists them; POST /api/alignments loads alignment Turtle into
// the running KB (and invalidates). The knobs:
//
//	-views           enable the materialized-view tier
//	-view-refresh D  TTL re-materialization interval (0 = only on KB
//	                 invalidation)
//
// # Usage
//
//	mediator [-addr :8080] [-persons 100] [-papers 300] [-seed 42] [flags]
//
// Then open http://localhost:8080/ for the Figure-4-style UI, or use the
// protocol endpoint and REST API:
//
//	curl -s 'localhost:8080/sparql?query=SELECT...'
//	curl -s -N -H 'Accept: application/x-ndjson' \
//	     --data-urlencode 'query=SELECT...' localhost:8080/sparql
//	curl -s -X POST localhost:8080/api/plan -d '{"query":"..."}'
//	curl -s -X POST localhost:8080/api/rewrite \
//	     -d '{"query":"...", "target":"http://kisti.rkbexplorer.com/id/void"}'
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mediator:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "mediator listen address")
	persons := flag.Int("persons", 100, "generated researchers")
	papers := flag.Int("papers", 300, "generated Southampton papers")
	filters := flag.Bool("filters", true, "enable the §4 FILTER-rewriting extension")
	seed := flag.Int64("seed", 42, "workload seed")
	concurrency := flag.Int("concurrency", 8, "federation worker-pool bound")
	timeout := flag.Duration("timeout", 10*time.Second, "per-endpoint attempt deadline")
	retries := flag.Int("retries", 1, "retries after a failed endpoint attempt")
	cacheSize := flag.Int("cache", 256, "rewrite-plan cache capacity in rewritten query shapes, one per shape and target (0 disables)")
	failFast := flag.Bool("failfast", false, "cancel federated queries on the first endpoint error")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	slowQuery := flag.Duration("slow-query", time.Second, "log queries slower than this (negative disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/dashboard on this address (empty disables)")
	otlpEndpoint := flag.String("otlp-endpoint", "", "ship finished traces to this OTLP/HTTP collector URL, e.g. http://localhost:4318/v1/traces (empty disables)")
	traceSample := flag.Float64("trace-sample", 1, "OTLP head-sampling probability in (0,1] for locally rooted traces")
	auditDir := flag.String("audit-dir", "", "record slow/failed queries as JSON lines in this directory (empty disables)")
	healthProbe := flag.Duration("health-probe", 0, "background ASK-probe interval per endpoint (0 disables)")
	adaptiveStats := flag.Bool("adaptive-stats", false, "correct voiD cardinality estimates with observed cardinalities")
	tenantsFile := flag.String("tenants", "", "tenant configuration file (JSON; empty = anonymous only, unlimited)")
	resultCache := flag.Int("result-cache", 512, "federated result cache capacity in entries (0 disables)")
	hedge := flag.Bool("hedge", false, "hedge slow sub-queries to replica endpoints")
	views := flag.Bool("views", false, "materialize frequently repeated cross-vocabulary joins as rows that answer them in process")
	viewRefresh := flag.Duration("view-refresh", 0, "re-materialize views this long after their last refresh (0 = refresh only on KB invalidation)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `Usage: mediator [flags]

Runs the three-tier mediator deployment: three generated SPARQL
repositories (Southampton/AKT, KISTI, citation metrics), a sameas.org
style co-reference service, and the mediator serving

  GET|POST /sparql   W3C SPARQL 1.1 Protocol endpoint — SELECT / ASK /
                     CONSTRUCT / DESCRIBE, content-negotiated (results
                     JSON, NDJSON, SSE; N-Triples, Turtle), streamed.
                     Extensions: target=<dataset-uri> (repeatable;
                     narrows the data sets the planner selects from),
                     limit=<n>, explain=trace (appends the query's trace
                     document).
  POST     /api/rewrite   translate a query for one target data set
                          (optional source narrows the alignments)
  POST     /api/plan      explain the plan: decisions, fragments, sub-queries
                          (optional targets, as /sparql's target)
  GET      /api/stats     the one stats document: endpoint rows, planner,
                          decompose, serving, views, per-form counters
  GET      /api/datasets  registered voiD data sets
  GET      /metrics       Prometheus text exposition of every layer's metrics
  GET      /api/trace     recent trace documents (?recorded=1: the slow/failed
                          queries recorded under -audit-dir)
  GET      /api/trace/{id}  one trace document, ring or recorder
                          (?format=text: its EXPLAIN ANALYZE operator table)
  GET      /api/health    its endpoint rows (latency, errors, breaker, counts)
  GET      /api/views     its view tier: shapes, freshness, stats (-views)
  POST     /api/alignments  load alignment Turtle into the running KB
  GET      /               web UI (Figure 4)

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers, cfg.Seed = *persons, *papers, *seed
	u := workload.Generate(cfg)
	fmt.Printf("generated universe: southampton=%d triples, kisti=%d triples, %d sameAs classes\n",
		u.Southampton.Size(), u.KISTI.Size(), u.Coref.Classes())

	// Tier 3: the remote data sets (SPARQL/HTTP in Figure 5), plus the
	// citation-metrics repository serving a second vocabulary over the
	// same paper URIs (the decomposition demo).
	sotonLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	kistiLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	metricsLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	corefLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	metricsStore := workload.MetricsStore(u)
	go func() { _ = http.Serve(sotonLis, endpoint.NewServer("southampton", u.Southampton)) }()
	go func() { _ = http.Serve(kistiLis, endpoint.NewServer("kisti", u.KISTI)) }()
	go func() { _ = http.Serve(metricsLis, endpoint.NewServer("metrics", metricsStore)) }()
	go func() { _ = http.Serve(corefLis, coref.Handler(u.Coref)) }()
	sotonURL := "http://" + sotonLis.Addr().String()
	kistiURL := "http://" + kistiLis.Addr().String()
	metricsURL := "http://" + metricsLis.Addr().String()
	corefURL := "http://" + corefLis.Addr().String()
	fmt.Printf("southampton endpoint: %s\nkisti endpoint:       %s\nmetrics endpoint:     %s\nsameas service:       %s\n",
		sotonURL, kistiURL, metricsURL, corefURL)

	// Tier 2: the knowledge bases. The voiD descriptions carry real
	// statistics (void:triples, void:propertyPartition) computed from the
	// generated stores, which the decomposer's cardinality estimator
	// consumes to order join fragments.
	partition := func(st interface{ PredicateCount(rdf.Term) int }, preds ...string) map[string]int64 {
		out := make(map[string]int64, len(preds))
		for _, p := range preds {
			out[p] = int64(st.PredicateCount(rdf.NewIRI(p)))
		}
		return out
	}
	dsKB := voidkb.NewKB()
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: sotonURL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{rdf.AKTNS},
		Triples:        int64(u.Southampton.Size()),
		PropertyPartitions: partition(u.Southampton,
			rdf.AKTHasAuthor, rdf.AKTHasTitle, rdf.AKTHasDate, rdf.AKTFullName),
	}); err != nil {
		return err
	}
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kistiURL,
		URISpace:       workload.KistiURIPattern,
		Vocabularies:   []string{rdf.KISTINS},
		Triples:        int64(u.KISTI.Size()),
		PropertyPartitions: partition(u.KISTI,
			rdf.KISTIHasCreator, rdf.KISTIHasCreatorInfo, rdf.KISTITitle),
	}); err != nil {
		return err
	}
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.MetricsVoidURI, Title: "Citation metrics",
		SPARQLEndpoint: metricsURL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{workload.MetricsNS},
		Triples:        int64(metricsStore.Size()),
		PropertyPartitions: partition(metricsStore,
			workload.MetricsCitationCount, workload.MetricsVenue),
	}); err != nil {
		return err
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		return err
	}
	if err := alignKB.Add(workload.ECS2DBpedia()); err != nil {
		return err
	}
	fmt.Printf("alignment KB: %d ontology alignments, %d entity alignments\n",
		alignKB.Len(), alignKB.EntityAlignmentCount())

	// Tier 1: the mediator, talking to the co-reference service over HTTP
	// exactly as the paper wraps sameas.org. Planner, decomposer, batch
	// sizes and body caps run at their package defaults.
	fedRetries := *retries
	if fedRetries == 0 {
		fedRetries = -1 // federate.Options treats 0 as "default"; -1 means none
	}
	fedCache := *cacheSize
	if fedCache == 0 {
		fedCache = -1
	}
	opts := []mediate.Option{
		mediate.WithRewriteFilters(*filters),
		mediate.WithObservability(obs.Options{
			Logger:        logger,
			SlowQuery:     *slowQuery,
			OTLPEndpoint:  *otlpEndpoint,
			TraceSample:   *traceSample,
			AuditDir:      *auditDir,
			AdaptiveStats: *adaptiveStats,
		}),
		mediate.WithFederation(federate.Options{
			Concurrency:     *concurrency,
			EndpointTimeout: *timeout,
			MaxRetries:      fedRetries,
			CacheSize:       fedCache,
			FailFast:        *failFast,
			Hedge:           *hedge,
		}),
	}
	var tenantsCfg *serve.TenantsConfig
	if *tenantsFile != "" {
		tenantsCfg, err = serve.LoadTenants(*tenantsFile)
		if err != nil {
			return err
		}
	}
	resultCacheSize := *resultCache
	if resultCacheSize == 0 {
		resultCacheSize = -1 // serve.Options treats 0 as "default"; -1 disables
	}
	opts = append(opts, mediate.WithServing(serve.Options{
		Tenants:   tenantsCfg,
		CacheSize: resultCacheSize,
	}))
	if *views {
		opts = append(opts, mediate.WithViews(view.Options{RefreshTTL: *viewRefresh}))
	}
	m := mediate.New(dsKB, alignKB, coref.NewClient(corefURL), opts...)
	fmt.Printf("federation: concurrency=%d timeout=%s retries=%d cache=%d failfast=%v hedge=%v\n",
		*concurrency, *timeout, *retries, *cacheSize, *failFast, *hedge)
	if tenantsCfg != nil {
		fmt.Printf("serving: %d named tenants from %s (+ anonymous default)\n",
			len(tenantsCfg.Tenants), *tenantsFile)
	} else {
		fmt.Println("serving: anonymous tenant only, unlimited")
	}
	if resultCacheSize > 0 {
		fmt.Printf("result cache: %d entries\n", resultCacheSize)
	} else {
		fmt.Println("result cache: disabled")
	}
	if *views {
		fmt.Printf("views: enabled refresh=%s\n", *viewRefresh)
	}

	if *otlpEndpoint != "" {
		fmt.Printf("otlp: exporting traces to %s (sample=%g)\n", *otlpEndpoint, *traceSample)
	}
	if *auditDir != "" {
		fmt.Printf("audit: recording slow/failed queries under %s\n", *auditDir)
	}
	if *healthProbe > 0 {
		m.StartHealthProbes(*healthProbe)
		fmt.Printf("health: probing endpoints every %s\n", *healthProbe)
	}

	if *debugAddr != "" {
		debugLis, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return derr
		}
		go func() { _ = http.Serve(debugLis, mediate.DebugHandler(m)) }()
		fmt.Printf("debug:  http://%s/debug/dashboard (pprof at /debug/pprof/)\n", debugLis.Addr().String())
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address supports -addr :0 (tests pick a free port and
	// parse this line).
	fmt.Printf("mediator listening on http://%s/\n", lis.Addr().String())
	fmt.Printf("example:\n  curl -s --data-urlencode 'query=%s' %s/sparql\n",
		strings.ReplaceAll(workload.Figure1Query(1), "\n", " "), lis.Addr().String())
	logger.Info("mediator up",
		"addr", lis.Addr().String(),
		"slowQuery", slowQuery.String())

	// SIGINT/SIGTERM flush the observer before exit: the OTLP queue
	// drains, the flight recorder closes its segment, and the observed-
	// cardinality store persists to cards.jsonl so the next process
	// starts with calibrated estimates.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		logger.Info("shutting down")
		m.Obs.Close()
		os.Exit(0)
	}()
	return http.Serve(lis, mediate.Handler(m))
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags. Logs go to stderr; stdout carries the startup banner
// lines tooling parses.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}
