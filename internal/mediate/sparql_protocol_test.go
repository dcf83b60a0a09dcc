package mediate

// W3C SPARQL 1.1 Protocol conformance tests for the /sparql endpoint:
// table-driven over request method × query form × Accept header, plus the
// failure paths (406 on unservable Accept, 400 with a JSON error document
// on malformed queries, 405 on other methods) and mid-stream client
// disconnect cancelling upstream work for graph results.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/turtle"
	"sparqlrw/internal/workload"
)

// doSparql issues one protocol request in the given shape.
func doSparql(t *testing.T, base, method, query, accept string) *http.Response {
	t.Helper()
	var req *http.Request
	var err error
	switch method {
	case "GET":
		req, err = http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	case "POST-form":
		form := url.Values{"query": {query}}
		req, err = http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	case "POST-direct":
		req, err = http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(query))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-query")
		}
	default:
		t.Fatalf("unknown method %s", method)
	}
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

func parseSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept  string
		offered []string
		want    string
		ok      bool
	}{
		{"", bindingsOffered, ctSRJ, true},
		{"*/*", bindingsOffered, ctSRJ, true},
		{"application/x-ndjson", bindingsOffered, ctNDJSON, true},
		{"text/event-stream;q=0.5, application/x-ndjson;q=0.9", bindingsOffered, ctNDJSON, true},
		{"text/csv", bindingsOffered, "", false},
		{"text/turtle", graphOffered, ctTurtle, true},
		{"text/*", graphOffered, ctTurtle, true},
		// An explicit q=0 excludes the type even under a wildcard
		// (specificity beats the wildcard's q, RFC 9110 §12.5.1).
		{"application/n-triples;q=0, */*", graphOffered, ctTurtle, true},
		{"application/n-triples;q=0, text/turtle;q=0", graphOffered, "", false},
		// Media types match regardless of case; of two ranges equally
		// specific, the higher q counts.
		{"Application/X-NDJSON", bindingsOffered, ctNDJSON, true},
		{"TEXT/*;q=0.5, application/*;q=0.2", bindingsOffered, ctSSE, true},
		{"application/x-ndjson;q=0.1, application/x-ndjson;q=0.8, text/event-stream;q=0.5", bindingsOffered, ctNDJSON, true},
		{"text/event-stream;level=1;q=0.4, application/sparql-results+json ; q=0.3", bindingsOffered, ctSSE, true},
	}
	for _, tc := range cases {
		got, ok := negotiate(tc.accept, tc.offered)
		if got != tc.want || ok != tc.ok {
			t.Errorf("negotiate(%q) = %q/%v, want %q/%v", tc.accept, got, ok, tc.want, tc.ok)
		}
	}
}

// TestNegotiateAllocations: negotiation reads the Accept header in
// place. The bindings media type every benchmark request sends, and a
// header of several weighted ranges, cost no allocation.
func TestNegotiateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, accept := range []string{ctSRJ, "text/event-stream;q=0.5, application/x-ndjson;q=0.9, */*;q=0.1"} {
		if got := testing.AllocsPerRun(100, func() { negotiate(accept, bindingsOffered) }); got != 0 {
			t.Errorf("negotiate(%q): %.0f allocations, want 0", accept, got)
		}
	}
}

func TestSparqlProtocolConformance(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	person := workload.SotonPerson(0).Value
	selectQ := workload.Figure1Query(0)
	askQ := `PREFIX akt:<` + rdf.AKTNS + `> ASK { ?paper akt:has-author <` + person + `> }`
	constructQ := `PREFIX akt:<` + rdf.AKTNS + `>
CONSTRUCT { ?paper <http://example.org/writtenBy> ?a }
WHERE { ?paper akt:has-author ?a }`
	describeQ := `DESCRIBE <` + person + `>`

	checkSRJSelect := func(t *testing.T, body []byte) {
		res, boolean, err := srjson.Decode(body)
		if err != nil || boolean != nil {
			t.Fatalf("SRJ decode: %v (boolean=%v)", err, boolean)
		}
		if len(res.Solutions) == 0 {
			t.Fatal("no bindings")
		}
	}
	checkSRJBool := func(t *testing.T, body []byte) {
		_, boolean, err := srjson.Decode(body)
		if err != nil || boolean == nil {
			t.Fatalf("SRJ decode: %v (boolean=%v)", err, boolean)
		}
		if !*boolean {
			t.Fatal("ASK should be true")
		}
	}
	checkNDJSON := func(t *testing.T, body []byte) {
		rows := 0
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var binding map[string]json.RawMessage
			if err := json.Unmarshal(line, &binding); err != nil {
				t.Fatalf("NDJSON line: %v\n%s", err, line)
			}
			if _, isErr := binding["error"]; isErr {
				t.Fatalf("NDJSON error line: %s", line)
			}
			rows++
		}
		if rows == 0 {
			t.Fatal("no NDJSON rows")
		}
	}
	checkNDJSONBool := func(t *testing.T, body []byte) {
		var doc struct {
			Boolean *bool `json:"boolean"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(body), &doc); err != nil || doc.Boolean == nil || !*doc.Boolean {
			t.Fatalf("NDJSON boolean = %s (%v)", body, err)
		}
	}
	checkSSE := func(t *testing.T, body []byte) {
		events := parseSSE(t, bytes.NewReader(body))
		bindings, summaries := 0, 0
		for _, ev := range events {
			switch ev.name {
			case "binding":
				bindings++
			case "summary":
				summaries++
				var sum sseSummary
				if err := json.Unmarshal([]byte(ev.data), &sum); err != nil {
					t.Fatalf("summary event: %v\n%s", err, ev.data)
				}
				if len(sum.PerDataset) == 0 {
					t.Fatalf("summary without per-dataset answers: %s", ev.data)
				}
			case "error":
				t.Fatalf("error event: %s", ev.data)
			}
		}
		if bindings == 0 || summaries != 1 {
			t.Fatalf("SSE events: %d bindings, %d summaries", bindings, summaries)
		}
	}
	checkNTriples := func(t *testing.T, body []byte) {
		g, err := ntriples.ParseString(string(body))
		if err != nil {
			t.Fatalf("N-Triples parse: %v\n%s", err, body)
		}
		if len(g) == 0 {
			t.Fatal("no triples")
		}
	}
	checkTurtle := func(t *testing.T, body []byte) {
		g, _, err := turtle.Parse(string(body))
		if err != nil {
			t.Fatalf("Turtle parse: %v\n%s", err, body)
		}
		if len(g) == 0 {
			t.Fatal("no triples")
		}
	}

	cases := []struct {
		name   string
		method string
		query  string
		accept string
		wantCT string
		check  func(*testing.T, []byte)
	}{
		{"GET select default", "GET", selectQ, "", ctSRJ, checkSRJSelect},
		{"POST-form select SRJ", "POST-form", selectQ, ctSRJ, ctSRJ, checkSRJSelect},
		{"POST-direct select wildcard", "POST-direct", selectQ, "*/*", ctSRJ, checkSRJSelect},
		{"GET select NDJSON", "GET", selectQ, ctNDJSON, ctNDJSON, checkNDJSON},
		{"POST-form select SSE", "POST-form", selectQ, ctSSE, ctSSE, checkSSE},
		{"GET ask default", "GET", askQ, "", ctSRJ, checkSRJBool},
		{"POST-form ask SRJ", "POST-form", askQ, ctSRJ, ctSRJ, checkSRJBool},
		{"POST-direct ask NDJSON", "POST-direct", askQ, ctNDJSON, ctNDJSON, checkNDJSONBool},
		{"GET construct default", "GET", constructQ, "", ctNTriples, checkNTriples},
		{"POST-form construct ntriples", "POST-form", constructQ, ctNTriples, ctNTriples, checkNTriples},
		{"POST-direct construct turtle", "POST-direct", constructQ, ctTurtle, ctTurtle, checkTurtle},
		{"GET describe default", "GET", describeQ, "", ctNTriples, checkNTriples},
		{"POST-form describe turtle", "POST-form", describeQ, "text/turtle;q=0.9, application/n-triples;q=0.4", ctTurtle, checkTurtle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doSparql(t, srv.URL, tc.method, tc.query, tc.accept)
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d\n%s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.wantCT) {
				t.Fatalf("Content-Type = %q, want %q", ct, tc.wantCT)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, body)
		})
	}
}

func TestSparqlProtocolFailures(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	person := workload.SotonPerson(0).Value

	errorDoc := func(t *testing.T, resp *http.Response) string {
		t.Helper()
		if ct := resp.Header.Get("Content-Type"); ct != ctJSON {
			t.Fatalf("error document Content-Type = %q", ct)
		}
		var doc map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("error document: %v", err)
		}
		if doc["error"] == "" {
			t.Fatalf("error document without error member: %v", doc)
		}
		return doc["error"]
	}

	t.Run("406 unservable accept bindings", func(t *testing.T) {
		resp := doSparql(t, srv.URL, "GET", workload.Figure1Query(0), "text/csv")
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		errorDoc(t, resp)
	})
	t.Run("406 bindings type for graph result", func(t *testing.T) {
		resp := doSparql(t, srv.URL, "GET", `DESCRIBE <`+person+`>`, ctSRJ)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		errorDoc(t, resp)
	})
	t.Run("400 malformed query", func(t *testing.T) {
		resp := doSparql(t, srv.URL, "POST-form", "SELEKT ?x WHERE", "")
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if msg := errorDoc(t, resp); !strings.Contains(msg, "sparql") {
			t.Fatalf("parse error not surfaced: %q", msg)
		}
	})
	t.Run("400 missing query", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/sparql")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		errorDoc(t, resp)
	})
	t.Run("405 other methods", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/sparql", strings.NewReader("query=ASK{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Fatalf("Allow = %q", allow)
		}
	})
}

// TestSparqlGraphDisconnectCancelsUpstream: dropping the connection in
// the middle of a streamed CONSTRUCT response must cancel the in-flight
// endpoint sub-queries, exactly like the bindings path.
func TestSparqlGraphDisconnectCancelsUpstream(t *testing.T) {
	s := newStreamStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	construct := `PREFIX akt:<` + rdf.AKTNS + `>
CONSTRUCT { ?paper <http://example.org/writtenBy> ?a }
WHERE { ?paper akt:has-author ?a }`
	form := url.Values{"query": {construct}, "target": s.targets}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ctNTriples {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read the first streamed triple so the fan-out is demonstrably live
	// (the gated sub-query is in flight), then drop the connection.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ntriples.ParseString(line); err != nil {
		t.Fatalf("first line is not a triple: %v\n%s", err, line)
	}
	for s.slowStarted.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	select {
	case <-s.slowCancelled:
		// The disconnect travelled: handler ctx -> executor -> endpoint
		// client -> gated endpoint's request context.
	case <-time.After(10 * time.Second):
		t.Fatal("client disconnect did not cancel the in-flight endpoint sub-query")
	}
}

// TestSparqlSelectStarIsItsExpansion: SELECT * answers exactly what the
// same query with its variables written out answers — same head, same
// rows — on the explicit-target path (which once projected onto the empty
// SelectVars and answered `{}` rows) and on the planned path (where the
// AKT→KISTI rewrite's fresh intermediate variable once rode along in
// KISTI's rows and split the merge's dedup key, doubling the answer).
func TestSparqlSelectStarIsItsExpansion(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	where := ` WHERE { <` + workload.SotonPaper(0).Value + `> akt:has-author ?a }`
	ask := func(t *testing.T, projection string, targets []string) (vars []string, rows []string) {
		t.Helper()
		resp := postSparql(t, srv.URL, `PREFIX akt:<`+rdf.AKTNS+`> SELECT `+projection+where, ctSRJ, targets)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v: %s", resp.StatusCode, err, body)
		}
		res, _, err := srjson.Decode(body)
		if err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		for _, sol := range res.Solutions {
			rows = append(rows, sol.Key())
		}
		sort.Strings(rows)
		return res.Vars, rows
	}
	for name, targets := range map[string][]string{
		"planned":         nil,
		"explicit target": {workload.SotonVoidURI},
		"both targets":    {workload.SotonVoidURI, workload.KistiVoidURI},
	} {
		t.Run(name, func(t *testing.T) {
			wantVars, want := ask(t, "?a", targets)
			if len(want) == 0 {
				t.Fatalf("SELECT ?a answered %v: nothing to compare against", want)
			}
			vars, got := ask(t, "*", targets)
			if !slices.Equal(vars, wantVars) || !slices.Equal(vars, []string{"a"}) {
				t.Errorf("SELECT * head = %v, SELECT ?a head = %v, want [a]", vars, wantVars)
			}
			if !slices.Equal(got, want) {
				t.Errorf("SELECT * rows = %v\nSELECT ?a rows = %v", got, want)
			}
		})
	}
}

// TestUnanchoredQueryAnswers: a pattern with a ground subject and a
// variable predicate and object names no vocabulary, so there is no
// source ontology to find in it. /sparql answers the SELECT and the ASK
// over it as it answers a DESCRIBE of the same IRI: from every data set
// whose URI space holds a member of the subject's owl:sameAs class. A
// variable predicate is rewritten nowhere, so the answer is the
// repositories' triples about the paper as they store them — the
// oracle's DESCRIBE of it, as (predicate, object) rows. PlanQuery
// explains the SELECT.
func TestUnanchoredQueryAnswers(t *testing.T) {
	m := exampleFederation(t, nil)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	paper := "<" + workload.SotonPaper(1).Value + ">"
	text := "SELECT ?p ?o WHERE { " + paper + " ?p ?o }"
	var want [][]rdf.Term
	for tr := range newOracle(t, exampleUniverse(), nil).graph(t, "DESCRIBE "+paper, nil) {
		want = append(want, []rdf.Term{tr.P, tr.O})
	}
	if dcm, err := m.PlanQuery(text, ""); err != nil || len(dcm.Fragments) == 0 {
		t.Fatalf("PlanQuery: %+v, %v", dcm, err)
	}

	resp := doSparql(t, srv.URL, "GET", text, ctSRJ)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("SELECT: status %d: %s", resp.StatusCode, body)
	}
	dec, err := srjson.NewStreamDecoder(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vars := []string{"p", "o"}
	var got [][]rdf.Term
	for {
		row := make([]rdf.Term, len(vars))
		if err := dec.NextRow(vars, row); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
	checkAgainstOracle(t, "unanchored SELECT", text, got, want)

	ask := "ASK { " + paper + " ?p ?o }"
	resp = doSparql(t, srv.URL, "GET", ask, ctSRJ)
	defer resp.Body.Close()
	var doc struct {
		Boolean *bool `json:"boolean"`
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ASK: status %d: %s", resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Boolean == nil || !*doc.Boolean {
		t.Fatalf("ASK = %v, %v; want true, as the oracle's %d rows say", doc.Boolean, err, len(want))
	}
}
