package mediate

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/obs"
	"sparqlrw/internal/workload"
)

// scrapeMetrics GETs /metrics off the handler and parses the Prometheus
// text exposition into families keyed by name.
func scrapeMetrics(t *testing.T, base string) map[string]obs.PromFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]obs.PromFamily, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

// sampleValue sums a family's samples matching the given sample name and
// label subset; found reports whether any sample matched.
func sampleValue(fam obs.PromFamily, name string, labels map[string]string) (float64, bool) {
	total, found := 0.0, false
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
			found = true
		}
	}
	return total, found
}

// TestMetricsEndpointScrape is the tentpole's acceptance test for the
// metrics surface: after one planner-selected federated query through
// /sparql, the /metrics exposition parses as Prometheus text and carries
// the core series from every layer — mediator, planner, federation
// executor, plan cache and the HTTP mux itself.
func TestMetricsEndpointScrape(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(2)}})
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

	fams := scrapeMetrics(t, srv.URL)
	assertCounter := func(family, sample string, labels map[string]string, min float64) {
		t.Helper()
		fam, ok := fams[family]
		if !ok {
			t.Fatalf("family %s missing from /metrics", family)
		}
		v, found := sampleValue(fam, sample, labels)
		if !found {
			t.Fatalf("%s: no sample %s%v in %+v", family, sample, labels, fam.Samples)
		}
		if v < min {
			t.Fatalf("%s%v = %v, want >= %v", sample, labels, v, min)
		}
	}

	assertCounter("sparqlrw_queries_total", "sparqlrw_queries_total", map[string]string{"form": "select"}, 1)
	assertCounter("sparqlrw_query_seconds", "sparqlrw_query_seconds_count", nil, 1)
	assertCounter("sparqlrw_query_ttfs_seconds", "sparqlrw_query_ttfs_seconds_count", nil, 1)
	assertCounter("sparqlrw_solutions_streamed_total", "sparqlrw_solutions_streamed_total", nil, 1)
	assertCounter("sparqlrw_plan_plans_total", "sparqlrw_plan_plans_total", nil, 1)
	assertCounter("sparqlrw_plan_cache_misses_total", "sparqlrw_plan_cache_misses_total", nil, 1)
	assertCounter("sparqlrw_federate_attempts_total", "sparqlrw_federate_attempts_total", nil, 2)
	assertCounter("sparqlrw_federate_request_seconds", "sparqlrw_federate_request_seconds_count", nil, 2)
	assertCounter("sparqlrw_federate_ttfs_seconds", "sparqlrw_federate_ttfs_seconds_count", nil, 1)
	assertCounter("sparqlrw_http_requests_total", "sparqlrw_http_requests_total", map[string]string{"route": "/sparql"}, 1)

	if v, _ := sampleValue(fams["sparqlrw_inflight_queries"], "sparqlrw_inflight_queries", nil); v != 0 {
		t.Fatalf("inflight after close = %v, want 0", v)
	}

	// The endpoint label carries real endpoint URLs.
	for _, smp := range fams["sparqlrw_federate_attempts_total"].Samples {
		if !strings.HasPrefix(smp.Labels["endpoint"], "http://") {
			t.Fatalf("attempt sample lacks an endpoint label: %+v", smp)
		}
	}
}

// TestExplainTraceHTTP exercises the explain=trace protocol extension:
// the SRJ document gains a trailing "trace" member whose span tree shows
// the plan and per-endpoint sub-query stages, the response names the
// trace in X-Trace-Id, and /api/trace serves it back by ID.
func TestExplainTraceHTTP(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query":   {workload.Figure1Query(2)},
		"explain": {"trace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sparql = %d: %s", resp.StatusCode, body)
	}

	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Trace *obs.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("explain=trace document does not parse: %v\n%s", err, body)
	}
	if doc.Trace == nil {
		t.Fatalf("no trace member in document: %s", body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != doc.Trace.ID {
		t.Fatalf("X-Trace-Id = %q, trace id = %q", got, doc.Trace.ID)
	}
	root := doc.Trace.Root
	if root.Name != "query" || root.Attrs["form"] != "select" {
		t.Fatalf("root span = %+v", root)
	}
	stages := map[string]*obs.SpanJSON{}
	for i := range root.Children {
		stages[root.Children[i].Name] = &root.Children[i]
	}
	if stages["plan"] == nil {
		t.Fatalf("no plan span under root: %+v", root.Children)
	}
	fed := stages["federate"]
	if fed == nil {
		t.Fatalf("no federate span under root: %+v", root.Children)
	}
	var attempts int
	for _, sub := range fed.Children {
		if sub.Name != "subquery" {
			continue
		}
		if sub.Attrs["endpoint"] == nil {
			t.Fatalf("subquery span lacks endpoint attr: %+v", sub)
		}
		for _, a := range sub.Children {
			if a.Name == "attempt" {
				attempts++
			}
		}
	}
	if attempts == 0 {
		t.Fatalf("no attempt spans in federate subtree: %+v", fed)
	}

	// The owned trace was recorded: /api/trace/{id} serves it, the list
	// includes it, and a bogus ID is a 404.
	tr, err := http.Get(srv.URL + "/api/trace/" + doc.Trace.ID)
	if err != nil {
		t.Fatal(err)
	}
	var byID obs.TraceJSON
	err = json.NewDecoder(tr.Body).Decode(&byID)
	tr.Body.Close()
	if err != nil || tr.StatusCode != http.StatusOK || byID.ID != doc.Trace.ID {
		t.Fatalf("GET /api/trace/{id} = %d, trace %+v, err %v", tr.StatusCode, byID, err)
	}
	list, err := http.Get(srv.URL + "/api/trace?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Total  int             `json:"total"`
		Traces []obs.TraceJSON `json:"traces"`
	}
	err = json.NewDecoder(list.Body).Decode(&page)
	list.Body.Close()
	if err != nil || len(page.Traces) == 0 || page.Total < len(page.Traces) {
		t.Fatalf("GET /api/trace: %v (%d traces, total %d)", err, len(page.Traces), page.Total)
	}
	missing, err := http.Get(srv.URL + "/api/trace/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/trace/<bogus> = %d, want 404", missing.StatusCode)
	}
}

// TestExplainTraceNDJSON pins the trailer shape of the line-oriented
// serialisation: bindings first, one final {"trace": ...} line.
func TestExplainTraceNDJSON(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/sparql",
		strings.NewReader(url.Values{
			"query":   {workload.Figure1Query(2)},
			"explain": {"trace"},
		}.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	last := lines[len(lines)-1]
	var trailer struct {
		Trace *obs.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Trace == nil {
		t.Fatalf("last NDJSON line is not a trace trailer: %q (err %v)", last, err)
	}
	if trailer.Trace.Root.Name != "query" {
		t.Fatalf("trailer root = %+v", trailer.Trace.Root)
	}
}

// TestExplainTakesOnlyTrace: explain has one mode. Any other value —
// the retired analyze mode included — is a 400 with the JSON error
// document naming trace, correlatable by X-Trace-Id, never a response
// that silently drops the trailer.
func TestExplainTakesOnlyTrace(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	for _, mode := range []string{"analyze", "verbose-plan"} {
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
			"query":   {workload.Figure1Query(2)},
			"explain": {mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(doc.Error, "trace") {
			t.Errorf("explain=%s: %d, %q (%v); want a 400 naming trace", mode, resp.StatusCode, doc.Error, err)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Errorf("explain=%s: 400 without X-Trace-Id", mode)
		}
	}
}

// TestResultTraceOwnership pins the library-level contract: a query on a
// bare context starts (and on Close records) its own trace, while a query
// on a context already carrying a trace annotates that one and leaves
// recording to its starter.
func TestResultTraceOwnership(t *testing.T) {
	s := newStack(t)

	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:   workload.Figure1Query(1),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace()
	if tr == nil {
		t.Fatal("owned query has no trace")
	}
	if _, err := res.Bindings().Collect(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	if s.mediator.Obs.Ring.Get(tr.ID()) == nil {
		t.Fatalf("owned trace %s not recorded in ring", tr.ID())
	}

	ctx, ext := obs.NewTrace(context.Background(), "caller")
	res2, err := s.mediator.Query(ctx, QueryRequest{
		Query:   workload.Figure1Query(1),
		Targets: []string{workload.SotonVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace() != ext {
		t.Fatal("query on a traced context should annotate the caller's trace")
	}
	if _, err := res2.Bindings().Collect(); err != nil {
		t.Fatal(err)
	}
	res2.Close()
	if s.mediator.Obs.Ring.Get(ext.ID()) != nil {
		t.Fatal("caller-owned trace must not be recorded by the mediator")
	}
	if len(ext.View().Root.Children) == 0 {
		t.Fatal("caller's trace gained no spans from the query")
	}
}

// TestStatsRegistryConsistency checks that the Stats snapshot and the
// Prometheus exposition are views over the same instruments, and that the
// snapshot carries build info and uptime.
func TestStatsRegistryConsistency(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	const n = 3
	for i := 0; i < n; i++ {
		if _, err := federatedSelect(s.mediator, workload.Figure1Query(i),
			[]string{workload.SotonVoidURI, workload.KistiVoidURI}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.mediator.Stats()
	if st.Queries.Select != n {
		t.Fatalf("Queries.Select = %d, want %d", st.Queries.Select, n)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d, want 0", st.InFlight)
	}
	if st.Build.GoVersion == "" {
		t.Fatal("Build.GoVersion empty")
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("UptimeSeconds = %v", st.UptimeSeconds)
	}

	fams := scrapeMetrics(t, srv.URL)
	v, found := sampleValue(fams["sparqlrw_queries_total"], "sparqlrw_queries_total", map[string]string{"form": "select"})
	if !found || uint64(v) != st.Queries.Select {
		t.Fatalf("exposition queries_total{form=select} = %v, Stats = %d", v, st.Queries.Select)
	}
	var expAttempts uint64
	for _, smp := range fams["sparqlrw_federate_attempts_total"].Samples {
		expAttempts += uint64(smp.Value)
	}
	var statAttempts uint64
	for _, es := range st.Federation.Endpoints {
		statAttempts += es.Attempts
	}
	if expAttempts != statAttempts {
		t.Fatalf("exposition attempts = %d, Stats attempts = %d", expAttempts, statAttempts)
	}

	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/api/stats Content-Type = %q", ct)
	}
	var over struct {
		Build         BuildInfo `json:"build"`
		UptimeSeconds float64   `json:"uptimeSeconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&over); err != nil {
		t.Fatal(err)
	}
	if over.Build.GoVersion == "" || over.UptimeSeconds <= 0 {
		t.Fatalf("/api/stats build/uptime = %+v", over)
	}
}

// TestObservabilityConcurrentQueries hammers the full pipeline from
// parallel queries while scraping /metrics and Stats concurrently — the
// mediator-level companion of the obs package's registry race test. Run
// with -race.
func TestObservabilityConcurrentQueries(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	const workers, perWorker = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, err := federatedSelect(s.mediator, workload.Figure1Query(w*perWorker+i),
					[]string{workload.SotonVoidURI, workload.KistiVoidURI})
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.mediator.Obs.Registry.WritePrometheus(io.Discard)
				_ = s.mediator.Stats()
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.mediator.Stats().Queries.Select; got != workers*perWorker {
		t.Fatalf("Queries.Select = %d, want %d", got, workers*perWorker)
	}
}

// TestConfigureKeepsCounters pins the rebuild semantics: reconfiguring
// the stack keeps the observer and its registry, so counters accumulate,
// while WithObservability swaps in a fresh observer.
func TestConfigureKeepsCounters(t *testing.T) {
	s := newStack(t)
	if _, err := federatedSelect(s.mediator, workload.Figure1Query(1),
		[]string{workload.SotonVoidURI}); err != nil {
		t.Fatal(err)
	}
	before := s.mediator.Stats().Queries.Select
	obsBefore := s.mediator.Obs

	s.mediator.Configure(WithRewriteFilters(false))
	if s.mediator.Obs != obsBefore {
		t.Fatal("Configure without WithObservability replaced the observer")
	}
	if got := s.mediator.Stats().Queries.Select; got != before {
		t.Fatalf("query counter reset by Configure: %d -> %d", before, got)
	}

	s.mediator.Configure(WithObservability(obs.Options{TraceRingSize: 4}))
	if s.mediator.Obs == obsBefore {
		t.Fatal("WithObservability did not replace the observer")
	}
	if got := s.mediator.Stats().Queries.Select; got != 0 {
		t.Fatalf("fresh registry should start at zero, got %d", got)
	}
}
