package mediate

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// headerCapture records the trace-propagation headers of every request
// reaching a stub endpoint.
type headerCapture struct {
	mu      sync.Mutex
	parents []string
	states  []string
}

func (hc *headerCapture) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hc.mu.Lock()
		if tp := r.Header.Get("traceparent"); tp != "" {
			hc.parents = append(hc.parents, tp)
			hc.states = append(hc.states, r.Header.Get("tracestate"))
		}
		hc.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (hc *headerCapture) captured() ([]string, []string) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return append([]string(nil), hc.parents...), append([]string(nil), hc.states...)
}

// tracingStack is newStack with header-capturing stub endpoints and an
// in-test OTLP collector, the fixture for the end-to-end trace
// continuity test.
type tracingStack struct {
	u         *workload.Universe
	mediator  *Mediator
	capture   *headerCapture
	endpoints []string // stub endpoint base URLs

	collectorMu sync.Mutex
	collected   [][]byte
}

func newTracingStack(t testing.TB, extra ...Option) *tracingStack {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)
	ts := &tracingStack{u: u, capture: &headerCapture{}}

	sotonSrv := httptest.NewServer(ts.capture.wrap(endpoint.NewServer("southampton", u.Southampton)))
	t.Cleanup(sotonSrv.Close)
	kistiSrv := httptest.NewServer(ts.capture.wrap(endpoint.NewServer("kisti", u.KISTI)))
	t.Cleanup(kistiSrv.Close)
	ts.endpoints = []string{sotonSrv.URL, kistiSrv.URL}

	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ts.collectorMu.Lock()
		ts.collected = append(ts.collected, body)
		ts.collectorMu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(collector.Close)

	dsKB := voidkb.NewKB()
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: sotonSrv.URL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{rdf.AKTNS},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kistiSrv.URL,
		URISpace:       workload.KistiURIPattern,
		Vocabularies:   []string{rdf.KISTINS},
	}); err != nil {
		t.Fatal(err)
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}

	opts := append([]Option{
		WithRewriteFilters(true),
		WithObservability(obs.Options{
			OTLPEndpoint: collector.URL,
			TraceSample:  1,
		}),
	}, extra...)
	ts.mediator = New(dsKB, alignKB, u.Coref, opts...)
	t.Cleanup(ts.mediator.Close)
	return ts
}

func (ts *tracingStack) exports() [][]byte {
	ts.collectorMu.Lock()
	defer ts.collectorMu.Unlock()
	return append([][]byte(nil), ts.collected...)
}

// TestEndToEndTraceContinuity is the tentpole's acceptance test: an
// inbound traceparent's trace id reappears (with a fresh span id) on the
// sub-queries hitting the stub endpoints, the response names the same
// trace in X-Trace-Id, the finished trace exports to the OTLP collector
// as a valid span payload under that trace id, and /api/health reports a
// score for every configured endpoint.
func TestEndToEndTraceContinuity(t *testing.T) {
	ts := newTracingStack(t)
	srv := httptest.NewServer(Handler(ts.mediator))
	defer srv.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/sparql",
		strings.NewReader(url.Values{"query": {workload.Figure1Query(2)}}.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("traceparent", "00-"+traceID+"-"+callerSpan+"-01")
	req.Header.Set("tracestate", "vendor=rollup")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sparql = %d", resp.StatusCode)
	}

	// The response correlates to the caller's trace.
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace id %q", got, traceID)
	}

	// Every sub-query attempt carried a child traceparent: same trace id,
	// a fresh span id, the sampled flag, and the tracestate passed through.
	parents, states := ts.capture.captured()
	if len(parents) == 0 {
		t.Fatal("no traceparent reached the stub endpoints")
	}
	for i, tp := range parents {
		tc, ok := obs.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("endpoint received malformed traceparent %q", tp)
		}
		if tc.TraceID != traceID {
			t.Fatalf("endpoint traceparent trace id = %s, want %s", tc.TraceID, traceID)
		}
		if tc.SpanID == callerSpan {
			t.Fatalf("endpoint traceparent reused the caller's span id %s", callerSpan)
		}
		if !tc.Sampled {
			t.Fatalf("endpoint traceparent %q lost the sampled flag", tp)
		}
		if states[i] != "vendor=rollup" {
			t.Fatalf("tracestate = %q, want pass-through", states[i])
		}
	}

	// Closing the mediator flushes the exporter; the collector must hold a
	// valid OTLP payload whose spans carry our trace id and chain to the
	// caller's span.
	ts.mediator.Close()
	var spans []map[string]any
	for _, payload := range ts.exports() {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []map[string]any `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Fatalf("OTLP payload is not valid JSON: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				spans = append(spans, ss.Spans...)
			}
		}
	}
	if len(spans) == 0 {
		t.Fatal("no spans reached the OTLP collector")
	}
	rootSeen := false
	for _, s := range spans {
		if s["traceId"] != traceID {
			t.Fatalf("exported span trace id = %v, want %s", s["traceId"], traceID)
		}
		if s["name"] == "query" {
			rootSeen = true
			if s["parentSpanId"] != callerSpan {
				t.Fatalf("root span parent = %v, want the caller's span %s", s["parentSpanId"], callerSpan)
			}
		}
	}
	if !rootSeen {
		t.Fatal("exported payload misses the root query span")
	}

	// /api/health scores every configured endpoint.
	hresp, err := http.Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health []federate.EndpointHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	byURL := map[string]federate.EndpointHealth{}
	for _, h := range health {
		byURL[h.Endpoint] = h
	}
	for _, ep := range ts.endpoints {
		h, ok := byURL[ep]
		if !ok {
			t.Fatalf("/api/health misses configured endpoint %s (got %v)", ep, health)
		}
		if h.Score <= 0 || h.Score > 1 {
			t.Fatalf("endpoint %s score = %v, want in (0,1]", ep, h.Score)
		}
		if h.Attempts == 0 {
			t.Fatalf("endpoint %s records no attempts after a federated query", ep)
		}
	}
}

// TestTraceIDMintedWithoutTraceparent pins the no-header path: the
// mediator mints a fresh 32-hex trace id and still propagates it to the
// endpoints.
func TestTraceIDMintedWithoutTraceparent(t *testing.T) {
	ts := newTracingStack(t)
	srv := httptest.NewServer(Handler(ts.mediator))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(2)}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 32 {
		t.Fatalf("minted X-Trace-Id = %q, want 32 hex chars", id)
	}
	parents, _ := ts.capture.captured()
	if len(parents) == 0 {
		t.Fatal("no traceparent reached the stub endpoints")
	}
	for _, tp := range parents {
		tc, ok := obs.ParseTraceparent(tp)
		if !ok || tc.TraceID != id {
			t.Fatalf("endpoint traceparent %q does not carry minted trace id %s", tp, id)
		}
	}
}

// TestXTraceIdOnErrorResponses is the satellite regression: protocol
// error responses (400 malformed query, 406 unacceptable Accept) carry
// X-Trace-Id too, so failed calls are correlatable.
func TestXTraceIdOnErrorResponses(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	for _, tc := range []struct {
		name   string
		query  string
		accept string
		status int
	}{
		{"malformed query 400", "SELECT WHERE {", "", http.StatusBadRequest},
		{"unacceptable accept 406", workload.Figure1Query(0), "application/pdf;q=1", http.StatusNotAcceptable},
		{"missing query 400", "", "", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			form := url.Values{}
			if tc.query != "" {
				form.Set("query", tc.query)
			}
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/sparql", strings.NewReader(form.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if got := resp.Header.Get("X-Trace-Id"); got != traceID {
				t.Fatalf("error response X-Trace-Id = %q, want %q", got, traceID)
			}
		})
	}
}

// tracePageOf fetches one /api/trace page.
func tracePageOf(t *testing.T, url string) (int, []obs.TraceJSON) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var page struct {
		Total  int             `json:"total"`
		Traces []obs.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page.Total, page.Traces
}

// TestRecordedSlowQueries drives the flight recorder through the HTTP
// surface: with a sub-nanosecond slow threshold every query is recorded,
// /api/trace?recorded=1 lists its trace document newest-first, marked
// slow and carrying the query, under the ring's paging rule, and
// /api/trace/{id} resolves it.
func TestRecordedSlowQueries(t *testing.T) {
	ts := newTracingStack(t, WithObservability(obs.Options{
		SlowQuery: time.Nanosecond,
		AuditDir:  t.TempDir(),
	}))
	srv := httptest.NewServer(Handler(ts.mediator))
	defer srv.Close()

	var ids []string
	for i := 1; i <= 2; i++ {
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(i)}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Trace-Id"))
	}
	traceID := ids[1]

	total, recs := tracePageOf(t, srv.URL+"/api/trace?recorded=1")
	if len(recs) != 2 || total != 2 {
		t.Fatalf("%d recorded queries listed (total %d), want 2", len(recs), total)
	}
	rec := recs[0]
	if rec.ID != traceID {
		t.Fatalf("newest recorded trace id = %s, want %s", rec.ID, traceID)
	}
	if rec.Root.Attrs["slow"] != true || rec.Root.Attrs["query"] == nil || rec.Root.Name != "query" {
		t.Fatalf("recorded trace incomplete: %+v", rec.Root)
	}
	if total, recs := tracePageOf(t, srv.URL+"/api/trace?recorded=1&offset=1&limit=5"); total != 2 ||
		len(recs) != 1 || recs[0].ID != ids[0] {
		t.Fatalf("second page: %d records of %d, want the older one", len(recs), total)
	}

	// Lookup by trace id.
	oneResp, err := http.Get(srv.URL + "/api/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer oneResp.Body.Close()
	if oneResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/trace/{id} = %d", oneResp.StatusCode)
	}
	var one obs.TraceJSON
	if err := json.NewDecoder(oneResp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.ID != traceID {
		t.Fatalf("lookup returned trace %s, want %s", one.ID, traceID)
	}
}

// TestRecordedTraceOutlivesRing: a slow query's document stays
// resolvable at /api/trace/{id} after the ring has evicted its trace,
// read back from the flight recorder with slow, the query and the plan.
func TestRecordedTraceOutlivesRing(t *testing.T) {
	ts := newTracingStack(t, WithObservability(obs.Options{
		SlowQuery:     time.Nanosecond,
		AuditDir:      t.TempDir(),
		TraceRingSize: 1,
	}))
	srv := httptest.NewServer(Handler(ts.mediator))
	defer srv.Close()

	var ids []string
	for i := 1; i <= 2; i++ {
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(i)}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Trace-Id"))
	}
	if ts.mediator.Obs.Ring.Get(ids[0]) != nil {
		t.Fatal("the ring of one still holds the first trace")
	}
	resp, err := http.Get(srv.URL + "/api/trace/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/trace/{evicted id} = %d, want the recorded document", resp.StatusCode)
	}
	var doc obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	q, _ := doc.Root.Attrs["query"].(string)
	plan, _ := doc.Plan.(map[string]any)
	if doc.ID != ids[0] || doc.Root.Attrs["slow"] != true || !strings.Contains(q, "has-author") || len(plan["fragments"].([]any)) == 0 {
		t.Fatalf("recorded document = id %s, attrs %v, plan %v", doc.ID, doc.Root.Attrs, doc.Plan)
	}
}

// TestRecordedTracesDisabled pins the no-recorder path:
// /api/trace?recorded=1 is a JSON 404 when the mediator runs without
// -audit-dir.
func TestRecordedTracesDisabled(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/trace?recorded=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var errDoc struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errDoc); resp.StatusCode != http.StatusNotFound || err != nil || errDoc.Error == "" {
		t.Fatalf("GET /api/trace?recorded=1 = %d (%v, %+v), want a JSON 404", resp.StatusCode, err, errDoc)
	}
}

// TestStatsIncludesHealth pins Mediator.Stats carrying the health
// snapshot the hedging work will consume.
func TestStatsIncludesHealth(t *testing.T) {
	ts := newTracingStack(t)
	if _, err := federatedSelect(ts.mediator, workload.Figure1Query(1), nil); err != nil {
		t.Fatal(err)
	}
	st := ts.mediator.Stats()
	if len(st.Federation.Endpoints) < len(ts.endpoints) {
		t.Fatalf("Stats().Federation.Endpoints has %d entries, want >= %d", len(st.Federation.Endpoints), len(ts.endpoints))
	}
}

// TestDashboardRenders drives the /debug/dashboard page: after a query
// it must render the health table and at least one trace waterfall.
func TestDashboardRenders(t *testing.T) {
	ts := newTracingStack(t)
	if _, err := federatedSelect(ts.mediator, workload.Figure1Query(1), nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(DebugHandler(ts.mediator))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/dashboard = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{"Endpoint health", "Recent traces", ts.endpoints[0], `class="row"`,
		`<pre class="operators">EXPLAIN ANALYZE`} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard misses %q;\npage: %.2000s", want, page)
		}
	}

	// pprof still serves on the same listener.
	presp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", presp.StatusCode)
	}
}

// TestHealthProbes drives StartHealthProbes against the stub endpoints:
// probe samples must land in the health snapshot.
func TestHealthProbes(t *testing.T) {
	ts := newTracingStack(t)
	stop := ts.mediator.StartHealthProbes(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		probed := 0
		for _, h := range ts.mediator.Exec.Endpoints().Snapshot() {
			if h.Probes > 0 {
				probed++
			}
		}
		if probed >= len(ts.endpoints) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("endpoints never accumulated probe samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
}
