package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/mediate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// The example federation's size and seed. The universe is the same for
// every benchmark seed: -seed drives the order in which queries are
// asked, not the data they are asked of, so runs with different seeds
// measure the same system state.
const (
	universePersons = 400
	universePapers  = 1200
	universeSeed    = 42
)

// tap wraps one endpoint.Server from outside: it always counts requests
// (the roundtrips_per_query numerator) and, while the recorder is on,
// records one span per request with the response body it captured.
type tap struct {
	name     string
	h        http.Handler
	requests atomic.Int64
	rec      *recorder
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.requests.Add(1)
	if !t.rec.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	cw := &captureWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(cw, r)
	end := time.Now()
	traceID, parent := splitTraceparent(r.Header.Get("traceparent"))
	t.rec.add(span{
		TraceID: traceID, Parent: parent, Name: "endpoint:" + t.name,
		Start: start, End: end, Bytes: int64(len(cw.body)), body: cw.body,
	})
}

// captureWriter copies the response body so the traced pass can count
// rows afterwards and the isolated decode measurements have real endpoint
// bodies to run over.
type captureWriter struct {
	http.ResponseWriter
	body []byte
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body = append(c.body, p...)
	return c.ResponseWriter.Write(p)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// federation is the three-endpoint example deployment of cmd/mediator in
// one process: generated universe, Southampton / KISTI / citation-metrics
// SPARQL endpoints on loopback listeners, the voiD and alignment KBs, and
// the mediator's handler on its own listener.
type federation struct {
	u       *workload.Universe
	m       *mediate.Mediator
	baseURL string
	taps    []*tap
	rec     *recorder
	servers []*http.Server
	served  sync.WaitGroup
}

// serve starts h on a fresh loopback listener and returns its base URL.
func (f *federation) serve(h http.Handler) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		_ = srv.Serve(lis) // returns ErrServerClosed from close()
	}()
	return "http://" + lis.Addr().String(), nil
}

// bootFederation builds the deployment. hot turns on the serving tier's
// result cache and the materialized-view tier (the hot-churn workload);
// the cold workloads run with both off so every request federates.
func bootFederation(hot bool) (*federation, error) {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers, cfg.Seed = universePersons, universePapers, universeSeed
	f := &federation{u: workload.Generate(cfg), rec: &recorder{}}
	metricsStore := workload.MetricsStore(f.u)

	urls := map[string]string{}
	for _, ep := range []struct {
		name string
		h    http.Handler
	}{
		{"southampton", endpoint.NewServer("southampton", f.u.Southampton)},
		{"kisti", endpoint.NewServer("kisti", f.u.KISTI)},
		{"metrics", endpoint.NewServer("metrics", metricsStore)},
	} {
		t := &tap{name: ep.name, h: ep.h, rec: f.rec}
		f.taps = append(f.taps, t)
		u, err := f.serve(t)
		if err != nil {
			f.close()
			return nil, err
		}
		urls[ep.name] = u
	}

	// The voiD descriptions carry the statistics cmd/mediator computes,
	// which the decomposer's cardinality estimator orders fragments by.
	partition := func(st interface{ PredicateCount(rdf.Term) int }, preds ...string) map[string]int64 {
		out := make(map[string]int64, len(preds))
		for _, p := range preds {
			out[p] = int64(st.PredicateCount(rdf.NewIRI(p)))
		}
		return out
	}
	dsKB := voidkb.NewKB()
	for _, ds := range []*voidkb.Dataset{
		{URI: workload.SotonVoidURI, Title: "Southampton RKB", SPARQLEndpoint: urls["southampton"],
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
			Triples: int64(f.u.Southampton.Size()),
			PropertyPartitions: partition(f.u.Southampton,
				rdf.AKTHasAuthor, rdf.AKTHasTitle, rdf.AKTHasDate, rdf.AKTFullName)},
		{URI: workload.KistiVoidURI, Title: "KISTI", SPARQLEndpoint: urls["kisti"],
			URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS},
			Triples: int64(f.u.KISTI.Size()),
			PropertyPartitions: partition(f.u.KISTI,
				rdf.KISTIHasCreator, rdf.KISTIHasCreatorInfo, rdf.KISTITitle)},
		{URI: workload.MetricsVoidURI, Title: "Citation metrics", SPARQLEndpoint: urls["metrics"],
			URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
			Triples: int64(metricsStore.Size()),
			PropertyPartitions: partition(metricsStore,
				workload.MetricsCitationCount, workload.MetricsVenue)},
	} {
		if err := dsKB.Add(ds); err != nil {
			f.close()
			return nil, fmt.Errorf("loading voiD KB: %w", err)
		}
	}
	alignKB := align.NewKB()
	for _, oa := range []*align.OntologyAlignment{workload.AKT2KISTI(), workload.ECS2DBpedia()} {
		if err := alignKB.Add(oa); err != nil {
			f.close()
			return nil, fmt.Errorf("loading alignment KB: %w", err)
		}
	}

	// Only warnings reach stderr: a slow-query or failed-endpoint line
	// during a run is worth seeing, per-request logs are not.
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	opts := []mediate.Option{
		mediate.WithRewriteFilters(true),
		mediate.WithObservability(obs.Options{Logger: logger}),
	}
	if hot {
		opts = append(opts,
			mediate.WithServing(serve.Options{CacheSize: 512, CacheTTL: 5 * time.Minute}),
			mediate.WithViews(view.Options{MinFrequency: 2, MaxViews: 8}))
	} else {
		opts = append(opts, mediate.WithServing(serve.Options{CacheSize: -1}))
	}
	// The co-reference source is the in-process store, as in the repo's
	// tests and examples: over HTTP every distinct IRI of a merge costs
	// one sameas-service request, which would swamp every other layer.
	f.m = mediate.New(dsKB, alignKB, f.u.Coref, opts...)
	u, err := f.serve(mediate.Handler(f.m))
	if err != nil {
		f.close()
		return nil, err
	}
	f.baseURL = u
	return f, nil
}

// endpointRequests is the number of HTTP requests the three endpoints
// have received so far.
func (f *federation) endpointRequests() int64 {
	var n int64
	for _, t := range f.taps {
		n += t.requests.Load()
	}
	return n
}

// close releases the mediator (view refresh loop, KB subscriptions,
// observer), then stops every listener and waits for the serve loops.
func (f *federation) close() {
	if f.m != nil {
		f.m.Close()
	}
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.served.Wait()
}
