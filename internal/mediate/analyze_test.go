package mediate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// opsByKind flattens an analyze tree into a map from operator kind to
// its nodes.
func opsByKind(ns []*AnalyzeNode) map[string][]*AnalyzeNode {
	out := map[string][]*AnalyzeNode{}
	var walk func(ns []*AnalyzeNode)
	walk = func(ns []*AnalyzeNode) {
		for _, n := range ns {
			out[n.Op] = append(out[n.Op], n)
			walk(n.Children)
		}
	}
	walk(ns)
	return out
}

// TestExplainAnalyzeSRJ is the tentpole's protocol acceptance test: a
// cross-vocabulary federated SELECT with explain=analyze returns the
// results plus an "analyze" member whose operator tree carries estimated
// vs actual cardinalities and a q-error on every fragment operator, and
// the same calibration lands in sparqlrw_estimate_qerror on /metrics.
func TestExplainAnalyzeSRJ(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query":   {workload.CrossVocabularyQuery(2)},
		"source":  {rdf.AKTNS},
		"explain": {"analyze"},
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
		Analyze *Analyze `json:"analyze"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, body)
	}
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("explain=analyze returned no bindings")
	}
	a := doc.Analyze
	if a == nil || a.TraceID == "" || a.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("analyze member missing or unnamed: %+v", a)
	}
	if !strings.Contains(a.Query, "SELECT") {
		t.Fatalf("analyze lacks the query text: %+v", a)
	}

	ops := opsByKind(a.Operators)
	for _, kind := range []string{"source-selection", "decompose", "fragment", "distinct-limit"} {
		if len(ops[kind]) == 0 {
			t.Fatalf("no %q operator in analyze tree: %s", kind, body)
		}
	}
	if len(ops["bound-join"])+len(ops["hash-join"]) == 0 {
		t.Fatalf("no join operator in analyze tree: %s", body)
	}
	// Every fragment and join operator carries est/actual/q-error.
	profiled := append(append(append([]*AnalyzeNode{}, ops["fragment"]...),
		ops["bound-join"]...), ops["hash-join"]...)
	for _, n := range profiled {
		if n.EstimatedRows == nil || n.ActualRows == nil || n.QError == nil {
			t.Fatalf("%s operator lacks cardinalities: est=%v actual=%v qerr=%v",
				n.Op, n.EstimatedRows, n.ActualRows, n.QError)
		}
		if *n.QError < 1 {
			t.Fatalf("%s q-error %v < 1", n.Op, *n.QError)
		}
		if n.RowsOut == nil {
			t.Fatalf("%s operator lacks rowsOut", n.Op)
		}
	}
	// Endpoint dispatches nest under their operators.
	if len(ops["subquery"]) == 0 {
		t.Fatalf("no subquery dispatch nodes in analyze tree: %s", body)
	}

	// The fragment observations reached the calibration histogram.
	fams := scrapeMetrics(t, srv.URL)
	fam, ok := fams["sparqlrw_estimate_qerror"]
	if !ok {
		t.Fatal("sparqlrw_estimate_qerror missing from /metrics")
	}
	if v, found := sampleValue(fam, "sparqlrw_estimate_qerror_count", nil); !found || v < 1 {
		t.Fatalf("sparqlrw_estimate_qerror_count = %v (found %v), want >= 1", v, found)
	}
	if v, found := sampleValue(fam, "sparqlrw_estimate_qerror_count",
		map[string]string{"dataset": workload.SotonVoidURI}); !found || v < 1 {
		t.Fatalf("no per-dataset calibration sample for %s: %v", workload.SotonVoidURI, v)
	}
}

// TestExplainAnalyzeDescribe: a DESCRIBE's description fetch is a
// bound-join stage of its plan, so the graph document's analyze trailer
// profiles it with estimated and actual rows.
func TestExplainAnalyzeDescribe(t *testing.T) {
	srv := httptest.NewServer(Handler(exampleFederation(t, nil)))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query":   {"DESCRIBE <" + workload.SotonPerson(2).Value + ">"},
		"explain": {"analyze"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sparql = %d, %v: %s", resp.StatusCode, err, body)
	}
	_, trailer, _ := bytes.Cut(body, []byte("# analyze: "))
	var a Analyze
	if err := json.Unmarshal(bytes.TrimSpace(trailer), &a); err != nil {
		t.Fatalf("no analyze trailer: %v\n%s", err, body)
	}
	joins := opsByKind(a.Operators)["bound-join"]
	if len(joins) == 0 {
		t.Fatalf("no bound-join operator in the DESCRIBE's analyze tree: %s", trailer)
	}
	for _, n := range joins {
		if n.EstimatedRows == nil || n.ActualRows == nil || *n.ActualRows == 0 {
			t.Errorf("bound-join operator lacks cardinalities: est=%v actual=%v", n.EstimatedRows, n.ActualRows)
		}
	}
}

// TestExplainAnalyzeNDJSON pins the line-oriented trailer: bindings
// first, one final {"analyze": ...} line.
func TestExplainAnalyzeNDJSON(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/sparql",
		strings.NewReader(url.Values{
			"query":   {workload.CrossVocabularyQuery(1)},
			"source":  {rdf.AKTNS},
			"explain": {"analyze"},
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
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	last := lines[len(lines)-1]
	var trailer struct {
		Analyze *Analyze `json:"analyze"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || trailer.Analyze == nil {
		t.Fatalf("final NDJSON line is not an analyze trailer: %v\n%s", err, last)
	}
	if len(trailer.Analyze.Operators) == 0 {
		t.Fatalf("analyze trailer has no operators: %s", last)
	}
}

// TestAnalyzeEndpoint drives GET /api/analyze/{id}: the default render
// is the human-readable operator table, ?format=json returns the
// document, and unknown ids are JSON 404s.
func TestAnalyzeEndpoint(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
		"query":  {workload.CrossVocabularyQuery(2)},
		"source": {rdf.AKTNS},
	})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id on the query response")
	}

	tr, err := http.Get(srv.URL + "/api/analyze/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/analyze/{id} = %d: %s", tr.StatusCode, text)
	}
	if ct := tr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	for _, want := range []string{"EXPLAIN ANALYZE", traceID, "fragment", "q-err"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("analyze text lacks %q:\n%s", want, text)
		}
	}

	jr, err := http.Get(srv.URL + "/api/analyze/" + traceID + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var a Analyze
	err = json.NewDecoder(jr.Body).Decode(&a)
	jr.Body.Close()
	if err != nil || jr.StatusCode != http.StatusOK || a.TraceID != traceID {
		t.Fatalf("GET /api/analyze?format=json = %d, %+v, err %v", jr.StatusCode, a, err)
	}
	if len(opsByKind(a.Operators)["fragment"]) == 0 {
		t.Fatalf("JSON analyze has no fragment operators: %+v", a.Operators)
	}

	missing, err := http.Get(srv.URL + "/api/analyze/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /api/analyze/<bogus> = %d, want 404", missing.StatusCode)
	}
}

// TestQueryTextStoredOncePerTrace is the ring-memory regression test:
// the query string lives exactly once in a finished trace — on the root
// span — no matter how many operator and dispatch spans the execution
// recorded.
func TestQueryTextStoredOncePerTrace(t *testing.T) {
	s := newCrossVocabStack(t)

	// A distinctive marker embedded as a comment survives into the trace's
	// recorded query text without matching anything else in the span tree.
	const marker = "ring-dedupe-marker-7f3a"
	query := "# " + marker + "\n" + workload.CrossVocabularyQuery(2)

	res, err := s.mediator.Query(context.Background(), QueryRequest{Query: query, SourceOnt: rdf.AKTNS})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res.Bindings().Solutions() {
		if err != nil {
			t.Fatal(err)
		}
	}
	res.Close()

	traces := s.mediator.Obs.Ring.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(traces))
	}
	data, err := json.Marshal(traces[0].View())
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte(marker)); got != 1 {
		t.Fatalf("query text appears %d times in the serialized trace, want exactly 1 (root only):\n%s", got, data)
	}
	// And it is on the root, where /api/analyze picks it up.
	if a := buildAnalyze(traces[0].View()); !strings.Contains(a.Query, marker) {
		t.Fatalf("analyze document lost the root query text: %+v", a)
	}
}
