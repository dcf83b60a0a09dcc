package mediate

// Tests of the view-hit path inside the mediator: a covered query is
// planned as one fragment the view's rows answer, in process, with the
// answer federation gives.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/view"
	"sparqlrw/internal/workload"
)

// viewFederation is exampleFederation with the view tier on and the
// cross-vocabulary shape of person i materialized. requests counts what
// reaches any endpoint.
func viewFederation(t testing.TB, i int, opts ...Option) (m *Mediator, requests *atomic.Int64) {
	t.Helper()
	requests = new(atomic.Int64)
	count := func(_ string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			h.ServeHTTP(w, r)
		})
	}
	m = exampleFederation(t, count, append([]Option{WithViews(view.Options{MinFrequency: 1})}, opts...)...)
	// The first run decomposes, is mined, and materializes in the background.
	selectRows(t, m, workload.CrossVocabularyQuery(i))
	waitViewReady(t, m)
	return m, requests
}

func waitViewReady(t testing.TB, m *Mediator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if vs := m.Views.Stats().Views; len(vs) == 1 && vs[0].State == "ready" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ready view: %+v", m.Views.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// selectRows runs a SELECT and returns copies of its rows, in stream order.
func selectRows(t testing.TB, m *Mediator, query string) [][]rdf.Term {
	t.Helper()
	rows, err := trySelectRows(m, query)
	if err != nil {
		t.Fatalf("%v\n%s", err, query)
	}
	return rows
}

func trySelectRows(m *Mediator, query string) ([][]rdf.Term, error) {
	res, err := m.Query(context.Background(), QueryRequest{Query: query})
	if err != nil {
		return nil, err
	}
	defer res.Close()
	var rows [][]rdf.Term
	for {
		row, err := res.Bindings().Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, slices.Clone(row))
	}
	if _, err := res.Summary(); err != nil {
		return nil, err
	}
	return rows, nil
}

// sortRows orders rows by their terms' values, column by column — the
// order ORDER BY over every column gives rows of IRIs and plain integers
// of one width, and a canonical order for comparing unordered answers.
func sortRows(rows [][]rdf.Term) [][]rdf.Term {
	slices.SortFunc(rows, func(a, b []rdf.Term) int {
		return slices.CompareFunc(a, b, func(x, y rdf.Term) int { return strings.Compare(x.Value, y.Value) })
	})
	return rows
}

func equalRows(a, b [][]rdf.Term) bool {
	return slices.EqualFunc(a, b, func(x, y []rdf.Term) bool { return slices.Equal(x, y) })
}

// TestViewHitEqualsFederatedAnswer: once the cross-vocabulary shape is
// materialized, every query over it — in other variable names, under an
// owl:sameAs alias of its ground IRI, filtered, projected, DISTINCT,
// ordered, sliced, asked or constructed — gets the answer a mediator
// without views federates for it, and no endpoint hears of it. ORDER BY
// does not decompose, so the ordered cases are held against the federated
// answer of the unordered query, ordered (and sliced) here.
func TestViewHitEqualsFederatedAnswer(t *testing.T) {
	const person = 2
	// Both deployments register the same stores under the same local://
	// names; the later one's counting handlers stay.
	plain := exampleFederation(t, nil)
	viewed, requests := viewFederation(t, person)

	base := workload.CrossVocabularyQuery(person)
	soton := workload.SotonPerson(person).Value
	alias := ""
	for _, eq := range viewed.Coref.Equivalents(soton) {
		if eq != soton {
			alias = eq
		}
	}
	if alias == "" {
		t.Fatalf("%s has no owl:sameAs alias", soton)
	}
	where := base[strings.Index(base, "WHERE"):]
	prologue := base[:strings.Index(base, "SELECT")]
	tail := func(s string) string { return strings.TrimSuffix(base, "}") + s }

	full := sortRows(selectRows(t, plain, base))
	if len(full) < 3 {
		t.Fatalf("federated answer has %d rows, want a few to slice", len(full))
	}
	for _, c := range []struct {
		name, query string
		// ordered keeps the stream order of the view answer; want, when
		// set, replaces the plain mediator's answer.
		ordered bool
		want    [][]rdf.Term
	}{
		{name: "same", query: base},
		{name: "renamed", query: strings.NewReplacer("?paper", "?p", "?a", "?who", "?c", "?n").Replace(base)},
		{name: "alias", query: strings.ReplaceAll(base, soton, alias)},
		{name: "filter", query: tail("FILTER(?c > 10) }")},
		{name: "filter-iri", query: tail("FILTER(?a != <" + soton + ">) }")},
		{name: "projection", query: strings.Replace(base, "SELECT ?paper ?a ?c", "SELECT ?c ?a", 1)},
		{name: "distinct", query: strings.Replace(base, "SELECT ?paper ?a ?c", "SELECT DISTINCT ?a", 1)},
		{name: "order", query: base + " ORDER BY ?paper ?a", ordered: true, want: full},
		{name: "slice", query: base + " ORDER BY ?paper ?a LIMIT 2 OFFSET 1", ordered: true, want: full[1:3]},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.want
			if want == nil {
				want = sortRows(selectRows(t, plain, c.query))
			}
			r0, h0 := requests.Load(), viewed.Views.Stats().Hits
			got := selectRows(t, viewed, c.query)
			if !c.ordered {
				sortRows(got)
			}
			if !equalRows(got, want) {
				t.Errorf("view answer differs from the federated one:\n got %v\nwant %v", got, want)
			}
			if len(want) == 0 && c.name != "filter" {
				t.Error("empty answer proves nothing")
			}
			if n := requests.Load() - r0; n != 0 {
				t.Errorf("%d endpoint requests, want 0", n)
			}
			if h := viewed.Views.Stats().Hits - h0; h != 1 {
				t.Errorf("%d view hits, want 1", h)
			}
		})
	}

	t.Run("ask", func(t *testing.T) {
		for _, q := range []string{
			prologue + strings.Replace(where, "WHERE", "ASK", 1),
			prologue + strings.TrimSuffix(strings.Replace(where, "WHERE", "ASK", 1), "}") + "FILTER(?c < 0) }",
		} {
			ask := func(m *Mediator) bool {
				res, err := m.Query(context.Background(), QueryRequest{Query: q})
				if err != nil {
					t.Fatalf("%v\n%s", err, q)
				}
				defer res.Close()
				return res.Bool()
			}
			want := ask(plain)
			r0 := requests.Load()
			if got := ask(viewed); got != want {
				t.Errorf("view ASK = %v, federated %v\n%s", got, want, q)
			}
			if n := requests.Load() - r0; n != 0 {
				t.Errorf("%d endpoint requests, want 0", n)
			}
		}
	})

	t.Run("construct", func(t *testing.T) {
		q := prologue + "CONSTRUCT { ?a m:citedThrough ?paper . ?paper m:citationCount ?c } " + where
		graph := func(m *Mediator) []rdf.Triple {
			res, err := m.Query(context.Background(), QueryRequest{Query: q})
			if err != nil {
				t.Fatalf("%v\n%s", err, q)
			}
			defer res.Close()
			g, err := res.Graph().Collect()
			if err != nil {
				t.Fatal(err)
			}
			return g.Sort()
		}
		want := graph(plain)
		r0 := requests.Load()
		got := graph(viewed)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("view CONSTRUCT differs from the federated one:\n got %v\nwant %v", got, want)
		}
		if n := requests.Load() - r0; n != 0 {
			t.Errorf("%d endpoint requests, want 0", n)
		}
	})
}

// TestViewRefreshDuringHit: alignment writes invalidate and re-materialize
// the view while readers keep asking the covered query. A reader gets the
// whole answer from one build's rows — those the route matched — or,
// finding the view stale, the federated answer; never part of each.
func TestViewRefreshDuringHit(t *testing.T) {
	const person = 2
	m, _ := viewFederation(t, person)
	query := workload.CrossVocabularyQuery(person)
	want := sortRows(selectRows(t, m, query))
	if len(want) == 0 {
		t.Fatal("empty answer proves nothing")
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := trySelectRows(m, query)
				if err != nil {
					t.Errorf("query failed during refresh: %v", err)
					return
				}
				if !equalRows(sortRows(got), want) {
					t.Errorf("torn answer during refresh: %d rows, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
					return
				}
			}
		}()
	}
	// An alignment between two vocabularies the query does not use: every
	// write stales every view, the answer stays what it was.
	for i := range 8 {
		if err := m.Alignments.Add(workload.ECS2DBpedia()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Views.Stats().Refreshes <= uint64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("write %d: view never refreshed: %+v", i, m.Views.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitViewReady(t, m)
	hits := m.Views.Stats().Hits
	if got := sortRows(selectRows(t, m, query)); !equalRows(got, want) {
		t.Errorf("answer after the refreshes differs:\n got %v\nwant %v", got, want)
	}
	close(stop)
	readers.Wait()
	if st := m.Views.Stats(); st.Hits <= hits || st.Refreshes < 8 {
		t.Errorf("hits %d (before the last query %d), refreshes %d: the refreshed view is not answering", st.Hits, hits, st.Refreshes)
	}
}

// TestViewHitAllocations pins what a /sparql request answered from a view
// costs the whole process: parse, the signature match, the one-fragment
// plan over the view's rows, its compilation and evaluation, the response
// encoder. It measures 187. The ceiling is that plus 10 %, below the 218
// it cost while spans boxed their attributes and wrapped their contexts and
// the 248 while a hit evaluated a canonicalised clone of the query over a
// triple store; the same request cost 410 while a hit formatted the query,
// sent it through the local:// pipe to an endpoint server that parsed it
// again, and decoded the SRJ that server encoded.
func TestViewHitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const person, ceiling = 2, 205
	m, requests := viewFederation(t, person)
	h := Handler(m)
	target := "/sparql?source=" + url.QueryEscape(rdf.AKTNS) + "&query=" + url.QueryEscape(workload.CrossVocabularyQuery(person))
	r0, h0 := requests.Load(), m.Views.Stats().Hits
	rows := 0
	got := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		rows = strings.Count(w.Body.String(), `"a":{`)
	})
	t.Logf("view hit: %.0f allocations per request, %d rows", got, rows)
	if rows < 2 || requests.Load() != r0 || m.Views.Stats().Hits-h0 != 51 {
		t.Fatalf("%d rows, %d endpoint requests, %d view hits: not 51 view-answered requests",
			rows, requests.Load()-r0, m.Views.Stats().Hits-h0)
	}
	if got > ceiling {
		t.Errorf("%.0f allocations per view-answered request, want at most %d", got, ceiling)
	}
}

// TestViewDecisionExplainedWhereItRuns: the view decision is the route's,
// so a view-covered query is explained with the plan it runs. PlanQuery,
// /api/plan and Result.Decomposition show the one fragment the view
// answers, naming it and the data sets it was built from; explain=trace
// profiles the view operator; and explaining counts neither a view hit nor
// a miss.
func TestViewDecisionExplainedWhereItRuns(t *testing.T) {
	const person = 2
	m, requests := viewFederation(t, person)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	query := workload.CrossVocabularyQuery(person)
	built := m.Views.Stats().Views[0]
	viewed := func(what string, dec *decompose.Decomposition) {
		t.Helper()
		if dec == nil || len(dec.Fragments) != 1 {
			t.Fatalf("%s: plan %+v, want one fragment", what, dec)
		}
		if f := dec.Fragments[0]; f.View != built.ID || !slices.Equal(f.Datasets, built.Datasets) || len(f.Targets) != 0 {
			t.Errorf("%s: fragment %+v, want view %s over %v and no target", what, f, built.ID, built.Datasets)
		}
	}
	counters := func() [2]float64 {
		fams := scrapeMetrics(t, srv.URL)
		var out [2]float64
		for i, name := range []string{"sparqlrw_view_hits_total", "sparqlrw_view_misses_total"} {
			v, ok := sampleValue(fams[name], name, nil)
			if !ok {
				t.Fatalf("%s missing from /metrics", name)
			}
			out[i] = v
		}
		return out
	}
	r0, c0 := requests.Load(), counters()

	dec, err := m.PlanQuery(query, "")
	if err != nil {
		t.Fatal(err)
	}
	viewed("PlanQuery", dec)
	body, _ := json.Marshal(apiQueryRequest{Query: query, Source: rdf.AKTNS})
	resp, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pl decompose.Decomposition
	err = json.NewDecoder(resp.Body).Decode(&pl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/plan: %d, %v", resp.StatusCode, err)
	}
	viewed("/api/plan", &pl)
	if c := counters(); c != c0 {
		t.Errorf("explaining moved the view hits and misses from %v to %v", c0, c)
	}

	res, err := m.Query(context.Background(), QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	viewed("Result.Decomposition", res.Decomposition())
	sum, err := res.Summary()
	res.Close()
	if err != nil || len(sum.PerDataset) != 1 || sum.PerDataset[0].Dataset != "view:"+built.ID || sum.PerDataset[0].Attempts != 0 {
		t.Fatalf("summary %+v, %v; want one view:%s answer without an attempt", sum, err, built.ID)
	}

	resp, err = http.PostForm(srv.URL+"/sparql", url.Values{
		"query": {query}, "explain": {"trace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Trace *obs.TraceJSON `json:"trace"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || doc.Trace == nil {
		t.Fatalf("explain=trace: %v, %+v", err, doc.Trace)
	}
	ops := opsByKind(*doc.Trace)
	if v := ops["view"]; len(v) != 1 || v[0].Attrs["rowsOut"] != float64(len(doc.Results.Bindings)) {
		t.Errorf("view operators %+v, want one with rowsOut %d", v, len(doc.Results.Bindings))
	}
	if c := counters(); c[0] != c0[0]+2 || c[1] != c0[1] {
		t.Errorf("two view-answered runs moved the view hits and misses from %v to %v", c0, c)
	}
	if n := requests.Load() - r0; n != 0 {
		t.Errorf("%d endpoint requests, want 0", n)
	}
}
