package mediate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// getBody GETs url and returns its body, failing on any status but 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestOneIntrospectionDocument pins one per-endpoint model behind every
// surface. After planner-selected traffic and one endpoint's circuit
// opened by failures, /api/stats lists each endpoint once and carries no
// second health list, and /api/health, Stats().Federation.Endpoints and
// the exposition's per-endpoint series agree on every endpoint's attempts
// and breaker state.
func TestOneIntrospectionDocument(t *testing.T) {
	ts := newTracingStack(t, WithFederation(federate.Options{BreakerFailures: 1, BreakerCooldown: time.Hour}))
	m := ts.mediator
	for i := range 3 {
		if _, err := federatedSelect(m, workload.Figure1Query(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(down.Close)
	const downURI = "http://down.example/void"
	if err := m.Datasets.Add(&voidkb.Dataset{
		URI: downURI, Title: "Down mirror", SPARQLEndpoint: down.URL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := federatedSelect(m, workload.Figure1Query(1),
		[]string{workload.SotonVoidURI, downURI}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	urls := append(append([]string(nil), ts.endpoints...), down.URL)

	body := getBody(t, srv.URL+"/api/stats")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["health"]; ok {
		t.Error("/api/stats carries a top-level health member beside federation.endpoints")
	}
	for _, u := range urls {
		if n := strings.Count(string(body), `"endpoint":`+strconv.Quote(u)); n != 1 {
			t.Errorf("/api/stats lists endpoint %s %d times, want once", u, n)
		}
	}

	var health []federate.EndpointHealth
	if err := json.Unmarshal(getBody(t, srv.URL+"/api/health"), &health); err != nil {
		t.Fatal(err)
	}
	rows := m.Stats().Federation.Endpoints
	fams := scrapeMetrics(t, srv.URL)
	if len(health) != len(urls) || len(rows) != len(urls) {
		t.Fatalf("/api/health lists %d endpoints, Stats() %d, want %d", len(health), len(rows), len(urls))
	}
	for i, eh := range health {
		row := rows[i]
		label := map[string]string{"endpoint": eh.Endpoint}
		attempts, _ := sampleValue(fams["sparqlrw_federate_attempts_total"], "sparqlrw_federate_attempts_total", label)
		label["state"] = eh.Breaker
		_, inState := sampleValue(fams["sparqlrw_federate_breaker_state"], "sparqlrw_federate_breaker_state", label)
		if row.Endpoint != eh.Endpoint || row.Attempts != eh.Attempts || row.Breaker != eh.Breaker ||
			uint64(attempts) != eh.Attempts || !inState {
			t.Errorf("%s: /api/health attempts %d breaker %s; Stats() %s attempts %d breaker %s; exposition attempts %v, in state %v",
				eh.Endpoint, eh.Attempts, eh.Breaker, row.Endpoint, row.Attempts, row.Breaker, attempts, inState)
		}
		if eh.Attempts == 0 {
			t.Errorf("%s: no attempts after traffic", eh.Endpoint)
		}
		if want := eh.Endpoint == down.URL; (eh.Breaker == "open") != want {
			t.Errorf("%s: breaker %s, want open only for the failing endpoint", eh.Endpoint, eh.Breaker)
		}
	}
}

// TestDashboardCountsEveryAuditedQuery: the dashboard's count of audited
// queries on disk is the flight recorder's total, not the length of one
// page of it.
func TestDashboardCountsEveryAuditedQuery(t *testing.T) {
	ts := newTracingStack(t, WithObservability(obs.Options{AuditDir: t.TempDir()}))
	const n = 105
	for i := range n {
		if err := ts.mediator.Obs.Recorder.Record(obs.TraceJSON{
			ID: fmt.Sprintf("%032x", i), Start: time.Now(),
			Root: obs.SpanJSON{Name: "query", Attrs: map[string]any{"query": "ASK { ?s ?p ?o }"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(DebugHandler(ts.mediator))
	defer srv.Close()
	page := string(getBody(t, srv.URL+"/debug/dashboard"))
	if want := fmt.Sprintf("audited queries on disk: %d", n); !strings.Contains(page, want) {
		t.Fatalf("dashboard misses %q", want)
	}
}
