package mediate

// A query's own LIMIT and OFFSET: they count rows of the merged answer,
// whatever each endpoint holds of it.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/workload"
)

// sparqlAnswer GETs /sparql and returns the answer as a set: one key per
// SELECT row, one N-Triples line per CONSTRUCT triple.
func sparqlAnswer(t *testing.T, base, query string, params url.Values) map[string]bool {
	t.Helper()
	v := url.Values{"query": {query}}
	for k, vs := range params {
		v[k] = vs
	}
	resp, err := http.Get(base + "/sparql?" + v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s\n%s", resp.StatusCode, body, query)
	}
	out := map[string]bool{}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), ctNTriples) {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				out[line] = true
			}
		}
		return out
	}
	dec, err := srjson.NewStreamDecoder(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for {
		sol, err := dec.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out[sol.Key()] = true
	}
}

// TestFanOutSliceCountsMergedRows: over the Figure-1 queries of 24 persons
// — as written, and as a bag without DISTINCT or FILTER, whose endpoint
// answers repeat rows the merge drops — as SELECT and as CONSTRUCT,
// planned, with both repositories named and with Southampton's alone,
// LIMIT / OFFSET / both return min(limit, max(0, n − offset)) of the n
// rows the unsliced query merges to, all of them rows of that answer.
func TestFanOutSliceCountsMergedRows(t *testing.T) {
	s := newServingStack(t, serve.Options{CacheSize: -1})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	slices := []struct {
		text          string
		limit, offset int
	}{{" LIMIT 2", 2, 0}, {" LIMIT 3", 3, 0}, {" LIMIT 4", 4, 0}, {" OFFSET 2", -1, 2}, {" LIMIT 3 OFFSET 2", 3, 2}}
	sliced := 0
	for person := 0; person < 24; person++ {
		self := workload.SotonPerson(person).Value
		bag := fmt.Sprintf("WHERE { ?paper akt:has-author <%s> . ?paper akt:has-author ?a }", self)
		queries := map[string]string{
			"SELECT": workload.Figure1Query(person),
			"CONSTRUCT": fmt.Sprintf(`PREFIX akt:<%s>
CONSTRUCT { ?paper akt:has-author ?a } WHERE {
  ?paper akt:has-author <%s> .
  ?paper akt:has-author ?a .
  FILTER (!(?a = <%s>))
}`, rdf.AKTNS, self, self),
			"SELECT, bag":    "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a " + bag,
			"CONSTRUCT, bag": "PREFIX akt:<" + rdf.AKTNS + ">\nCONSTRUCT { ?paper akt:has-author ?a } " + bag,
		}
		for form, query := range queries {
			for path, params := range map[string]url.Values{
				"planned":    nil,
				"explicit":   {"target": {workload.SotonVoidURI, workload.KistiVoidURI}},
				"one target": {"target": {workload.SotonVoidURI}},
			} {
				full := sparqlAnswer(t, srv.URL, query, params)
				for _, sl := range slices {
					want := max(0, len(full)-sl.offset)
					if sl.limit >= 0 {
						want = min(sl.limit, want)
					}
					if want < len(full) {
						sliced++
					}
					got := sparqlAnswer(t, srv.URL, query+sl.text, params)
					if len(got) != want {
						t.Errorf("person %d, %s, %s,%s: %d rows, want %d of %d",
							person, form, path, sl.text, len(got), want, len(full))
					}
					for row := range got {
						if !full[row] {
							t.Errorf("person %d, %s, %s,%s: %s is not in the unsliced answer",
								person, form, path, sl.text, row)
						}
					}
				}
			}
		}
	}
	if sliced < 100 {
		t.Fatalf("only %d of the sliced queries cut anything: the answers are too small to test on", sliced)
	}
}

// TestQueryLimitAnswerIsCachedRequestLimitCutIsNot: an answer that ends at
// the query's own LIMIT is complete, so the result cache keeps it; one cut
// short by the request's limit parameter is not, and every repeat federates.
func TestQueryLimitAnswerIsCachedRequestLimitCutIsNot(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	query := workload.Figure1Query(0)
	if n := len(sparqlAnswer(t, srv.URL, query+" OFFSET 3", nil)); n < 2 {
		t.Fatalf("person 0 has %d co-authors past the third: LIMIT 3 cuts nothing", n)
	}

	first := sparqlAnswer(t, srv.URL, query+" LIMIT 3", nil)
	before := s.roundTrips.Load()
	again := sparqlAnswer(t, srv.URL, query+" LIMIT 3", nil)
	if trips := s.roundTrips.Load() - before; trips != 0 || len(first) != 3 || len(again) != 3 {
		t.Errorf("repeated LIMIT 3 query: %d and %d rows, %d endpoint round trips, want 3, 3 and 0", len(first), len(again), trips)
	}
	for row := range again {
		if !first[row] {
			t.Errorf("the cached answer has %s, the first one did not", row)
		}
	}

	cut := url.Values{"limit": {"3"}}
	sparqlAnswer(t, srv.URL, query, cut)
	before = s.roundTrips.Load()
	if n := len(sparqlAnswer(t, srv.URL, query, cut)); n != 3 {
		t.Errorf("limit=3 returned %d rows", n)
	}
	if s.roundTrips.Load() == before {
		t.Error("a limit=-cut answer was served from the result cache")
	}
}
