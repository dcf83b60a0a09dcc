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

	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/workload"
)

// EXPLAIN ANALYZE is the trace document read through its operator spans:
// the spans a pipeline stage annotates with SetOperator, carrying
// estimated vs actual cardinalities and per-operator q-error.

// opsByKind flattens a trace document's operator spans into a map from
// operator kind to its spans.
func opsByKind(v obs.TraceJSON) map[string][]obs.SpanJSON {
	out := map[string][]obs.SpanJSON{}
	var walk func(ops []obs.SpanJSON)
	walk = func(ops []obs.SpanJSON) {
		for _, s := range ops {
			op := s.Attrs["op"].(string)
			out[op] = append(out[op], s)
			walk(s.Operators())
		}
	}
	walk(v.Operators())
	return out
}

// attrNum reads one numeric attribute of a decoded trace document.
func attrNum(s obs.SpanJSON, key string) (float64, bool) {
	v, ok := s.Attrs[key].(float64)
	return v, ok
}

// postTraced runs query through POST /sparql with explain=trace and
// returns the response and its body.
func postTraced(t *testing.T, base string, form url.Values, accept string) (*http.Response, []byte) {
	t.Helper()
	form.Set("explain", "trace")
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
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
	return resp, body
}

// TestExplainAnalyzeSRJ is the protocol acceptance test of the operator
// profile: a cross-vocabulary federated SELECT with explain=trace returns
// the results plus a "trace" member whose operator spans carry estimated
// vs actual cardinalities and a q-error on every fragment and join, whose
// root holds the query text and which carries the plan; the same
// calibration lands in sparqlrw_estimate_qerror on /metrics.
func TestExplainAnalyzeSRJ(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp, body := postTraced(t, srv.URL, url.Values{
		"query":  {workload.CrossVocabularyQuery(2)},
		"source": {rdf.AKTNS},
	}, "")
	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Trace *obs.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, body)
	}
	if len(doc.Results.Bindings) == 0 {
		t.Fatal("explain=trace returned no bindings")
	}
	tr := doc.Trace
	if tr == nil || tr.ID == "" || tr.ID != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("trace member missing or unnamed: %+v", tr)
	}
	if q, _ := tr.Root.Attrs["query"].(string); !strings.Contains(q, "SELECT") {
		t.Fatalf("trace root lacks the query text: %+v", tr.Root.Attrs)
	}
	if plan, _ := tr.Plan.(map[string]any); len(plan["fragments"].([]any)) < 2 {
		t.Fatalf("trace carries no decomposed plan: %v", tr.Plan)
	}

	ops := opsByKind(*tr)
	for _, kind := range []string{"source-selection", "decompose", "fragment", "distinct-limit"} {
		if len(ops[kind]) == 0 {
			t.Fatalf("no %q operator in the trace: %s", kind, body)
		}
	}
	if len(ops["bound-join"])+len(ops["hash-join"]) == 0 {
		t.Fatalf("no join operator in the trace: %s", body)
	}
	// Every fragment and join operator carries est/actual/q-error.
	profiled := append(append(append([]obs.SpanJSON{}, ops["fragment"]...),
		ops["bound-join"]...), ops["hash-join"]...)
	for _, n := range profiled {
		op := n.Attrs["op"]
		_, hasEst := attrNum(n, "estRows")
		_, hasActual := attrNum(n, "actualRows")
		qerr, hasQ := attrNum(n, "qError")
		if !hasEst || !hasActual || !hasQ {
			t.Fatalf("%s operator lacks cardinalities: %v", op, n.Attrs)
		}
		if qerr < 1 {
			t.Fatalf("%s q-error %v < 1", op, qerr)
		}
		if _, ok := attrNum(n, "rowsOut"); !ok {
			t.Fatalf("%s operator lacks rowsOut", op)
		}
	}
	// Endpoint dispatches nest under their operators.
	if len(ops["subquery"]) == 0 {
		t.Fatalf("no subquery dispatch operators in the trace: %s", body)
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
// bound-join stage of its plan, so the graph document's trace trailer
// profiles it with estimated and actual rows.
func TestExplainAnalyzeDescribe(t *testing.T) {
	srv := httptest.NewServer(Handler(exampleFederation(t, nil)))
	defer srv.Close()
	_, body := postTraced(t, srv.URL, url.Values{
		"query": {"DESCRIBE <" + workload.SotonPerson(2).Value + ">"},
	}, "")
	_, trailer, _ := bytes.Cut(body, []byte("# trace: "))
	var tr obs.TraceJSON
	if err := json.Unmarshal(bytes.TrimSpace(trailer), &tr); err != nil {
		t.Fatalf("no trace trailer: %v\n%s", err, body)
	}
	joins := opsByKind(tr)["bound-join"]
	if len(joins) == 0 {
		t.Fatalf("no bound-join operator in the DESCRIBE's trace: %s", trailer)
	}
	for _, n := range joins {
		_, hasEst := attrNum(n, "estRows")
		if actual, ok := attrNum(n, "actualRows"); !hasEst || !ok || actual == 0 {
			t.Errorf("bound-join operator lacks cardinalities: %v", n.Attrs)
		}
	}
}

// TestExplainAnalyzeNDJSON pins the line-oriented trailer: bindings
// first, one final {"trace": ...} line carrying the operator spans.
func TestExplainAnalyzeNDJSON(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	_, body := postTraced(t, srv.URL, url.Values{
		"query":  {workload.CrossVocabularyQuery(1)},
		"source": {rdf.AKTNS},
	}, "application/x-ndjson")
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	last := lines[len(lines)-1]
	var trailer struct {
		Trace *obs.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || trailer.Trace == nil {
		t.Fatalf("final NDJSON line is not a trace trailer: %v\n%s", err, last)
	}
	if len(trailer.Trace.Operators()) == 0 {
		t.Fatalf("trace trailer has no operators: %s", last)
	}
}

// TestTraceTextFormat drives GET /api/trace/{id}?format=text: the
// human-readable operator table, while the default stays the JSON
// document and unknown ids are JSON 404s.
func TestTraceTextFormat(t *testing.T) {
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

	tr, err := http.Get(srv.URL + "/api/trace/" + traceID + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/trace/{id}?format=text = %d: %s", tr.StatusCode, text)
	}
	if ct := tr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	for _, want := range []string{"EXPLAIN ANALYZE", traceID, "fragment", "q-err"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("operator table lacks %q:\n%s", want, text)
		}
	}

	jr, err := http.Get(srv.URL + "/api/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var v obs.TraceJSON
	err = json.NewDecoder(jr.Body).Decode(&v)
	jr.Body.Close()
	if err != nil || jr.StatusCode != http.StatusOK || v.ID != traceID {
		t.Fatalf("GET /api/trace/{id} = %d, %+v, err %v", jr.StatusCode, v, err)
	}
	if len(opsByKind(v)["fragment"]) == 0 {
		t.Fatalf("trace document has no fragment operators: %+v", v.Root)
	}

	missing, err := http.Get(srv.URL + "/api/trace/ffffffffffffffff?format=text")
	if err != nil {
		t.Fatal(err)
	}
	var errDoc struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(missing.Body).Decode(&errDoc)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound || err != nil || errDoc.Error == "" {
		t.Fatalf("GET /api/trace/<bogus>?format=text = %d (%v, %+v), want a JSON 404", missing.StatusCode, err, errDoc)
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
	v := traces[0].View()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte(marker)); got != 1 {
		t.Fatalf("query text appears %d times in the serialized trace, want exactly 1 (root only):\n%s", got, data)
	}
	// And it is on the root, where the operator table picks it up.
	if q, _ := v.Root.Attrs["query"].(string); !strings.Contains(q, marker) || !strings.Contains(v.Text(), marker) {
		t.Fatalf("the root lost the query text: %+v", v.Root.Attrs)
	}
}
