package mediate

// The result cache's text path: a request whose text key (tenant, limit,
// targets as sent, query text) is bound to a live answer replays it before
// any parse. These tests hold it to the parsed path's answers — per
// tenant, per limit and source set, across protocol shapes, spellings and
// alignment writes — and run under the race detector with the rest of the
// package.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/workload"
)

// cachedQuery runs one library request to its end and returns its rows,
// sorted, and the result-cache decision its trace records ("hit/text",
// "hit/key", "miss", "bypass/off", ...).
func cachedQuery(t *testing.T, m *Mediator, req QueryRequest) ([][]rdf.Term, string) {
	t.Helper()
	rows, res, err := collectQuery(m, req)
	if err != nil {
		t.Fatal(err)
	}
	return rows, cacheDecision(res)
}

func collectQuery(m *Mediator, req QueryRequest) ([][]rdf.Term, *Result, error) {
	res, err := m.Query(context.Background(), req)
	if err != nil {
		return nil, nil, err
	}
	defer res.Close()
	var rows [][]rdf.Term
	for {
		row, err := res.Bindings().Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, append([]rdf.Term(nil), row...))
	}
	if _, err := res.Summary(); err != nil {
		return nil, nil, err
	}
	return sortRows(rows), res, nil
}

func cacheDecision(res *Result) string {
	attrs := res.Trace().View().Root.Attrs
	d, _ := attrs["resultCache"].(string)
	if r, _ := attrs["reason"].(string); r != "" {
		d += "/" + r
	}
	return d
}

// TestResultCacheTextTenantIsolation: a text key is its tenant's. The same
// text from the anonymous tenant and from a tenant whose policy denies
// akt:has-author never shares an answer, and a text that policy refuses
// stays a 403 after the anonymous tenant has cached its answer.
func TestResultCacheTextTenantIsolation(t *testing.T) {
	cfg, err := serve.ParseTenants([]byte(fmt.Sprintf(`{"tenants": [
		{"id": "no-authors", "keys": ["na-key"], "policy": {"deniedPredicates": [%q]}}]}`, rdf.AKTHasAuthor)))
	if err != nil {
		t.Fatal(err)
	}
	s := newServingStack(t, serve.Options{Tenants: cfg})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	do := func(key, query string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/sparql?query="+url.QueryEscape(query), nil)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	cache := s.mediator.Serve.Cache

	// A variable predicate: the restricted tenant's answer lacks the
	// authorship rows the anonymous tenant's has.
	open := fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", workload.SotonPaper(0).Value)
	st, anon := do("", open)
	if st != http.StatusOK {
		t.Fatalf("anonymous: %d %s", st, anon)
	}
	if st, again := do("", open); st != http.StatusOK || again != anon {
		t.Fatalf("anonymous, repeated: %d, answer changed", st)
	}
	hits := cache.Metrics().Hits
	st, restricted := do("na-key", open)
	if st != http.StatusOK || restricted == anon {
		t.Fatalf("restricted tenant: %d, answer equal to the anonymous tenant's: %v", st, restricted == anon)
	}
	if strings.Count(restricted, `"p":{`) >= strings.Count(anon, `"p":{`) {
		t.Fatalf("restricted tenant has %d rows, the anonymous tenant %d: the policy removed none",
			strings.Count(restricted, `"p":{`), strings.Count(anon, `"p":{`))
	}
	if got := cache.Metrics().Hits; got != hits {
		t.Fatalf("the restricted tenant's first request hit the cache (%d hits, want %d)", got, hits)
	}
	if st, again := do("na-key", open); st != http.StatusOK || again != restricted {
		t.Fatalf("restricted tenant, repeated: %d, answer changed", st)
	}
	if got := cache.Metrics().Hits; got != hits+1 {
		t.Fatalf("the restricted tenant's repeat was no hit (%d hits, want %d)", got, hits+1)
	}

	// A ground denied predicate: refused, however often the anonymous
	// tenant has had it answered.
	fig1 := workload.Figure1Query(0)
	for i := range 2 {
		if st, body := do("", fig1); st != http.StatusOK {
			t.Fatalf("anonymous Figure 1, #%d: %d %s", i, st, body)
		}
	}
	for i := range 2 {
		if st, body := do("na-key", fig1); st != http.StatusForbidden {
			t.Fatalf("restricted Figure 1 after the anonymous tenant cached it, #%d: %d %s", i, st, body)
		}
	}
	if n := cache.Len(); n != 3 {
		t.Fatalf("%d answers cached, want 3 (the open query per tenant, Figure 1)", n)
	}

	// Another tenant under the same policy shares the answer by its
	// canonical key, the restricted query's, and then by its own text key;
	// either hit shows the query the policy rewrote.
	tenant := &serve.Tenant{ID: "library", Policy: &serve.Policy{DeniedPredicates: []string{rdf.AKTHasAuthor}}}
	var shown []any
	for i, want := range []string{"hit/key", "hit/text"} {
		_, res, err := collectQuery(s.mediator, QueryRequest{Query: open, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheDecision(res); got != want {
			t.Fatalf("library tenant, request %d: %s, want %s", i, got, want)
		}
		shown = append(shown, res.Trace().View().Root.Attrs["query"])
	}
	if q, _ := shown[0].(string); !strings.Contains(q, "FILTER") || shown[1] != q {
		t.Fatalf("the traces show %q, want the restricted query on every path", shown)
	}
}

// TestResultCacheTextKeyDiscriminates: the limit and the targets as sent
// are parts of the text key. A limit or a source set the answer was not
// computed for misses; the same targets in another order miss by text,
// hit by key (the canonical key sorts the source set) and are then served
// by their own text.
func TestResultCacheTextKeyDiscriminates(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	both := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	req := QueryRequest{Query: workload.Figure1Query(0), Targets: both}
	all, d := cachedQuery(t, s.mediator, req)
	if d != "miss" || len(all) < 2 {
		t.Fatalf("first request: %s, %d rows; want a miss with at least 2", d, len(all))
	}
	if rows, d := cachedQuery(t, s.mediator, req); d != "hit/text" || !equalRows(rows, all) {
		t.Fatalf("repeat: %s, equal rows %v; want hit/text and the same rows", d, equalRows(rows, all))
	}

	limited := req
	limited.Limit = 1
	if rows, d := cachedQuery(t, s.mediator, limited); d != "miss" || len(rows) != 1 {
		t.Fatalf("limit 1: %s, %d rows; want a miss of 1 row", d, len(rows))
	}
	soton := req
	soton.Targets = both[:1]
	trips := s.roundTrips.Load()
	if _, d := cachedQuery(t, s.mediator, soton); d != "miss" || s.roundTrips.Load() == trips {
		t.Fatalf("Southampton alone: %s after %d round trips; want a miss that asks the endpoint", d, s.roundTrips.Load()-trips)
	}
	swapped := req
	swapped.Targets = []string{both[1], both[0]}
	for _, want := range []string{"hit/key", "hit/text"} {
		if rows, d := cachedQuery(t, s.mediator, swapped); d != want || !equalRows(rows, all) {
			t.Fatalf("targets swapped: %s, equal rows %v; want %s and the same rows", d, equalRows(rows, all), want)
		}
	}
}

// TestResultCacheTextAcrossProtocolShapes: a GET, a direct POST and a
// form POST of one text send the same text key, so they share one answer,
// the last two by text, with no round trip.
func TestResultCacheTextAcrossProtocolShapes(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	query := workload.Figure1Query(1)
	var bodies []string
	var trips int64
	for i, method := range []string{"GET", "POST-direct", "POST-form"} {
		resp := doSparql(t, srv.URL, method, query, "")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", method, resp.StatusCode, body)
		}
		bodies = append(bodies, string(body))
		if i == 0 {
			trips = s.roundTrips.Load()
		}
		if d := traceDecision(t, srv.URL, resp.Header.Get("X-Trace-Id")); i > 0 && d != "hit/text" {
			t.Fatalf("%s: %s, want hit/text", method, d)
		}
	}
	if bodies[1] != bodies[0] || bodies[2] != bodies[0] {
		t.Fatal("the three shapes got different answers")
	}
	m := s.mediator.Serve.Cache.Metrics()
	if s.roundTrips.Load() != trips || m.Hits != 2 || m.Misses != 1 || s.mediator.Serve.Cache.Len() != 1 {
		t.Fatalf("%d round trips after the first request, %+v, %d answers; want 0, 2 hits, 1 miss, 1 answer",
			s.roundTrips.Load()-trips, m, s.mediator.Serve.Cache.Len())
	}
}

// traceDecision reads a /sparql request's result-cache decision from its
// trace document.
func traceDecision(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/api/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Root struct {
			Attrs map[string]any `json:"attrs"`
		} `json:"root"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	d, _ := doc.Root.Attrs["resultCache"].(string)
	if r, _ := doc.Root.Attrs["reason"].(string); r != "" {
		d += "/" + r
	}
	return d
}

// TestResultCacheTextSpellings: another spelling of a cached query misses
// by text, hits by key — and binds its own text key there, so it is then
// served by text. Each request counts one hit.
func TestResultCacheTextSpellings(t *testing.T) {
	m := exampleFederation(t, nil, WithServing(serve.Options{}))
	q := workload.CrossVocabularyQuery(1)
	spaced := "\n  " + strings.ReplaceAll(q, " .", "  .")
	var first [][]rdf.Term
	for i, c := range []struct{ query, want string }{
		{q, "miss"}, {spaced, "hit/key"}, {spaced, "hit/text"}, {q, "hit/text"},
	} {
		rows, d := cachedQuery(t, m, QueryRequest{Query: c.query})
		if i == 0 {
			first = rows
		}
		if d != c.want || !equalRows(rows, first) {
			t.Fatalf("request %d: %s, equal rows %v; want %s", i, d, equalRows(rows, first), c.want)
		}
	}
	if got := m.Serve.Cache.Metrics(); got.Hits != 3 || got.Misses != 1 {
		t.Fatalf("%+v, want 3 hits and 1 miss", got)
	}
}

// TestResultCacheTextAfterAlignmentWrite: no text key serves an answer
// from before an alignment write once the write has returned — not one
// bound before it, nor one a fill running across it would bind; and under
// readers racing writes that change the answers, every request that ran
// wholly between two writes gets the answer of the KB as written.
func TestResultCacheTextAfterAlignmentWrite(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	m := s.mediator
	req := QueryRequest{Query: workload.Figure1Query(0), Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI}}
	cachedQuery(t, m, req)
	if _, d := cachedQuery(t, m, req); d != "hit/text" {
		t.Fatalf("repeat: %s, want hit/text", d)
	}
	write := func(removed bool) {
		t.Helper()
		oa := workload.AKT2KISTI()
		if removed {
			oa.Alignments = nil
		}
		if err := m.Alignments.Add(oa); err != nil {
			t.Fatal(err)
		}
	}
	write(false)
	trips := s.roundTrips.Load()
	if _, d := cachedQuery(t, m, req); d != "miss" || s.roundTrips.Load() == trips {
		t.Fatalf("after the write: %s; want a miss that asks the endpoints", d)
	}

	// A fill across a write binds nothing.
	spelled := req
	spelled.Query = "  " + req.Query
	m.Serve.Cache.Flush()
	res, err := m.Query(context.Background(), spelled)
	if err != nil {
		t.Fatal(err)
	}
	write(false)
	if _, err := res.Bindings().Collect(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	if _, d := cachedQuery(t, m, spelled); d != "miss" {
		t.Fatalf("after a fill across the write: %s, want a miss", d)
	}

	// Readers race writes that change the answers.
	persons := []int{0, 1, 2}
	spellings := func(p int) []QueryRequest {
		r := QueryRequest{Query: workload.Figure1Query(p), Targets: req.Targets}
		r2 := r
		r2.Query = "\n" + r.Query
		return []QueryRequest{r, r2}
	}
	var want [2][][][]rdf.Term // by state (0: aligned, 1: removed), person
	for state := range 2 {
		write(state == 1)
		for _, p := range persons {
			rows, _ := cachedQuery(t, m, spellings(p)[0])
			want[state] = append(want[state], rows)
		}
	}
	if equalRows(want[0][0], want[1][0]) {
		t.Fatal("removing the AKT→KISTI alignment left person 0's answer as it was")
	}
	var started, written atomic.Int64 // writes begun and returned; the state is written % 2, with state 1 now
	started.Store(1)
	written.Store(1)
	stop := make(chan struct{})
	var checked atomic.Int64
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := persons[i%len(persons)]
				r := spellings(p)[i/len(persons)%2]
				s0, w0 := started.Load(), written.Load()
				rows, _, err := collectQuery(m, r)
				if err != nil {
					t.Error(err)
					return
				}
				if started.Load() != s0 || s0 != w0 {
					continue // a write ran beside the request
				}
				if !equalRows(rows, want[w0%2][p]) {
					t.Errorf("person %d after write %d: %d rows, want the %d of the KB as written", p, w0, len(rows), len(want[w0%2][p]))
					return
				}
				checked.Add(1)
			}
		}()
	}
	for w := range 8 {
		time.Sleep(15 * time.Millisecond)
		started.Add(1)
		write(w%2 == 1)
		written.Add(1)
	}
	time.Sleep(15 * time.Millisecond)
	close(stop)
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no request ran wholly between two writes")
	}
	t.Logf("%d answers checked against the KB as written; %+v", checked.Load(), m.Serve.Cache.Metrics())
}

// TestResultCacheTextHitResponses: a hit by text answers as a hit by key
// does — the same 406 for an Accept no bindings serialisation suits, and
// the same explain=trace trailer but for the reason, the ids and the
// timings.
func TestResultCacheTextHitResponses(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	query := workload.Figure1Query(2)
	spaced := "\n" + query
	get := func(query, accept string, explain bool) (int, string) {
		t.Helper()
		target := srv.URL + "/sparql?query=" + url.QueryEscape(query)
		if explain {
			target += "&explain=trace"
		}
		req, _ := http.NewRequest(http.MethodGet, target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if st, body := get(query, "", false); st != http.StatusOK {
		t.Fatalf("fill: %d %s", st, body)
	}

	// 406: the bound text and the unbound spelling (a hit by key) alike.
	hits := s.mediator.Serve.Cache.Metrics().Hits
	st1, text406 := get(query, "text/turtle", false)
	st2, key406 := get(spaced, "text/turtle", false)
	if st1 != http.StatusNotAcceptable || st2 != st1 || text406 != key406 {
		t.Fatalf("406s differ: %d %q / %d %q", st1, text406, st2, key406)
	}
	if got := s.mediator.Serve.Cache.Metrics().Hits; got != hits {
		t.Fatalf("a 406 counted %d hits", got-hits)
	}

	// explain=trace: the spelling's first request hits by key, its second
	// by text.
	trailer := func(body string) (map[string]any, string) {
		t.Helper()
		var doc struct {
			Results map[string]any `json:"results"`
			Trace   map[string]any `json:"trace"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		root, _ := doc.Trace["root"].(map[string]any)
		attrs, _ := root["attrs"].(map[string]any)
		reason, _ := attrs["reason"].(string)
		for _, k := range []string{"reason", "ttfsMs"} {
			delete(attrs, k)
		}
		for _, k := range []string{"id", "start", "durationMs", "parentSpanId"} {
			delete(doc.Trace, k)
		}
		for _, k := range []string{"spanId", "startMs", "durationMs"} {
			delete(root, k)
		}
		doc.Trace["results"] = doc.Results
		return doc.Trace, reason
	}
	_, byKey := get(spaced, "", true)
	_, byText := get(spaced, "", true)
	keyDoc, keyReason := trailer(byKey)
	textDoc, textReason := trailer(byText)
	if keyReason != "key" || textReason != "text" {
		t.Fatalf("reasons %q then %q, want key then text", keyReason, textReason)
	}
	if !reflect.DeepEqual(keyDoc, textDoc) {
		t.Fatalf("trailers differ:\nby key  %v\nby text %v", keyDoc, textDoc)
	}
}

// TestResultCacheBypassTraced: a query the result cache does not take
// says why on its trace — the cache is off, or its form is not cached.
func TestResultCacheBypassTraced(t *testing.T) {
	construct := fmt.Sprintf("PREFIX akt:<%s>\nCONSTRUCT { ?paper akt:has-author ?a } WHERE { ?paper akt:has-author <%s> . ?paper akt:has-author ?a }",
		rdf.AKTNS, workload.SotonPerson(0).Value)
	for _, c := range []struct {
		name, want string
		opts       serve.Options
		query      string
	}{
		{"cache off", "bypass/off", serve.Options{CacheSize: -1}, workload.Figure1Query(0)},
		{"CONSTRUCT", "bypass/form", serve.Options{}, construct},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newServingStack(t, c.opts)
			res, err := s.mediator.Query(context.Background(), QueryRequest{Query: c.query})
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if got := cacheDecision(res); got != c.want {
				t.Fatalf("decision %q, want %q", got, c.want)
			}
		})
	}
}
