package mediate

// Tests of the view-hit path inside the mediator: each fragment of a
// query that a ready view covers is answered from the view's rows, in
// process, and the query gets the answer federation gives.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/store"
	"sparqlrw/internal/view"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// viewFederation is exampleFederation with the view tier on and the three
// fragments of person i's cross-vocabulary query materialized: the
// person's papers, and the two every such query shares — the papers'
// authors and their citation counts. requests counts what reaches any
// endpoint.
func viewFederation(t testing.TB, i int, opts ...Option) (m *Mediator, requests *atomic.Int64) {
	t.Helper()
	return materializedFederation(t, workload.CrossVocabularyQuery(i), 3, opts...)
}

// materializedFederation is exampleFederation with the view tier on and
// the n fragments of query materialized.
func materializedFederation(t testing.TB, query string, n int, opts ...Option) (m *Mediator, requests *atomic.Int64) {
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
	selectRows(t, m, query)
	waitViewsReady(t, m, n)
	return m, requests
}

// waitViewsReady waits until m holds n views, every one ready.
func waitViewsReady(t testing.TB, m *Mediator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		vs := m.Views.Stats().Views
		if len(vs) == n && !slices.ContainsFunc(vs, func(v view.Info) bool { return v.State != "ready" }) {
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
	for row, err := range res.Bindings().Rows() {
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

// TestViewHitEqualsFederatedAnswer: once the cross-vocabulary query's
// fragments are materialized, every query over them — in other variable
// names, under an owl:sameAs alias of its ground IRI, filtered, projected,
// DISTINCT, ordered, sliced, asked or constructed — gets the answer a
// mediator without views federates for it, each of its three fragments
// from its view, and no endpoint hears of it. ORDER BY does not decompose,
// so the ordered cases are held against the federated answer of the
// unordered query, ordered (and sliced) here.
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
		// set, replaces the plain mediator's answer; filtered puts a FILTER
		// in one shared fragment, which is then fetched.
		ordered, filtered bool
		want              [][]rdf.Term
	}{
		{name: "same", query: base},
		{name: "renamed", query: strings.NewReplacer("?paper", "?p", "?a", "?who", "?c", "?n").Replace(base)},
		{name: "alias", query: strings.ReplaceAll(base, soton, alias)},
		{name: "filter", query: tail("FILTER(?c > 10) }"), filtered: true},
		{name: "filter-iri", query: tail("FILTER(?a != <" + soton + ">) }"), filtered: true},
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
			n, h := requests.Load()-r0, viewed.Views.Stats().Hits-h0
			switch {
			case !c.filtered && (n != 0 || h != 3):
				t.Errorf("%d endpoint requests, %d view hits; want 0, one a fragment", n, h)
			case c.filtered && (n == 0 || h != 2):
				t.Errorf("%d endpoint requests, %d view hits; want the filtered fragment's, two", n, h)
			}
		})
	}

	t.Run("ask", func(t *testing.T) {
		for i, q := range []string{
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
			r0, h0 := requests.Load(), viewed.Views.Stats().Hits
			if got := ask(viewed); got != want {
				t.Errorf("view ASK = %v, federated %v\n%s", got, want, q)
			}
			if n, h := requests.Load()-r0, viewed.Views.Stats().Hits-h0; (n == 0) != (i == 0) || h != uint64(3-i) {
				t.Errorf("%d endpoint requests, %d view hits; want every unfiltered fragment from a view, the filtered one fetched\n%s", n, h, q)
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
// the views while readers keep asking the covered query. Each fragment of
// a reader's query reads all its rows from one build — the one the route
// matched — or, finding its view stale, from the endpoints, so every
// answer is the whole answer: no fragment is torn between two builds.
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
	// A failure below stops the readers before the test ends, so none
	// reports into a finished test.
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()
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
	// write stales every view, the answer stays what it was. Each write
	// lands on views read since their build, so each is rebuilt, not
	// dropped.
	for i := range 8 {
		waitViewsReady(t, m, 3)
		selectRows(t, m, query)
		refreshes := m.Views.Stats().Refreshes
		if err := m.Alignments.Add(workload.ECS2DBpedia()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for m.Views.Stats().Refreshes < refreshes+3 {
			if time.Now().After(deadline) {
				t.Fatalf("write %d: views never refreshed: %+v", i, m.Views.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitViewsReady(t, m, 3)
	hits := m.Views.Stats().Hits
	if got := sortRows(selectRows(t, m, query)); !equalRows(got, want) {
		t.Errorf("answer after the refreshes differs:\n got %v\nwant %v", got, want)
	}
	stopReaders()
	if st := m.Views.Stats(); st.Hits < hits+3 || st.Refreshes < 24 || st.Evictions != 0 {
		t.Errorf("hits %d (before the last query %d), refreshes %d, evictions %d: the refreshed views are not answering",
			st.Hits, hits, st.Refreshes, st.Evictions)
	}
}

// TestViewHitAllocations pins what a /sparql request whose three
// fragments views answer costs the whole process: parse, source selection
// and decomposition, the signature match of each fragment, the plan over
// the views' rows with its two hash joins, its compilation and
// evaluation, the response encoder. It measures 176, and its ceiling, 188,
// is that plus about 7 %: it measured 194 (ceiling 205, what the same
// request cost when it was answered whole from one view, 187, plus 10 %)
// while the plan was pulled through iter.Pull2 and the request read
// header keys in non-canonical spelling; it cost 326 when each
// fragment's estimate, targets and variables, each hash join's buckets
// and each view fetch allocated on their own. It sits below the 218 the one-view answer cost while spans
// boxed their attributes and wrapped their contexts and the 248 while a
// hit evaluated a canonicalised clone of the query over a triple store;
// that answer cost 410 while a hit formatted the query, sent it through
// the local:// pipe to an endpoint server that parsed it again, and
// decoded the SRJ that server encoded.
func TestViewHitAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const person, ceiling = 2, 188
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
	if rows < 2 || requests.Load() != r0 || m.Views.Stats().Hits-h0 != 51*3 {
		t.Fatalf("%d rows, %d endpoint requests, %d view hits: not 51 requests of three view-answered fragments",
			rows, requests.Load()-r0, m.Views.Stats().Hits-h0)
	}
	if got > ceiling {
		t.Errorf("%.0f allocations per view-answered request, want at most %d", got, ceiling)
	}
}

// sameSet reports whether a and b hold the same strings.
func sameSet(a, b []string) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(s string) bool { return !slices.Contains(b, s) })
}

// TestViewDecisionExplainedWhereItRuns: the view decisions are the
// route's, so a query whose fragments views answer is explained with the
// plan it runs. PlanQuery, /api/plan, Result.Decomposition and the trace
// document name each fragment's leaf: the view, built from the fragment's
// targets, or the endpoints; explain=trace profiles a view operator a
// fragment; and explaining counts neither a view hit nor a miss.
func TestViewDecisionExplainedWhereItRuns(t *testing.T) {
	const person = 2
	m, requests := viewFederation(t, person)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	query := workload.CrossVocabularyQuery(person)
	built := map[string]view.Info{}
	for _, v := range m.Views.Stats().Views {
		built[v.ID] = v
	}
	viewed := func(what string, dec *decompose.Decomposition) {
		t.Helper()
		if dec == nil || len(dec.Fragments) != 3 {
			t.Fatalf("%s: plan %+v, want three fragments", what, dec)
		}
		seen := map[string]bool{}
		for _, f := range dec.Fragments {
			v, ok := built[f.View]
			if !ok || seen[f.View] || !sameSet(f.AppendTargetDatasets(nil), v.Datasets) {
				t.Errorf("%s: fragment %+v, want a view of its own, built from its targets", what, f)
			}
			seen[f.View] = true
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
	if err != nil || len(sum.PerDataset) != 3 {
		t.Fatalf("summary %+v, %v; want three view answers", sum, err)
	}
	for _, da := range sum.PerDataset {
		if _, ok := built[strings.TrimPrefix(da.Dataset, "view:")]; !ok || da.Attempts != 0 {
			t.Errorf("summary answer %+v, want a view's without an attempt", da)
		}
	}

	resp, err = http.PostForm(srv.URL+"/sparql", url.Values{
		"query": {query}, "explain": {"trace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Trace *obs.TraceJSON `json:"trace"`
	}
	var planned struct {
		Trace struct {
			Plan *decompose.Decomposition `json:"plan"`
		} `json:"trace"`
	}
	if err != nil || json.Unmarshal(body, &doc) != nil || json.Unmarshal(body, &planned) != nil || doc.Trace == nil {
		t.Fatalf("explain=trace: %v\n%s", err, body)
	}
	viewed("explain=trace", planned.Trace.Plan)
	ops := opsByKind(*doc.Trace)
	named := map[any]bool{}
	for _, op := range ops["view"] {
		named[op.Attrs["view"]] = true
	}
	if len(ops["view"]) != 3 || len(named) != 3 {
		t.Errorf("view operators %+v, want one a view", ops["view"])
	}
	// Each fragment's view decision is a view.match span: a hit on a view
	// of its own.
	matched := map[any]bool{}
	for _, s := range spansNamed(doc.Trace.Root, "view.match") {
		if s.Attrs["reason"] == view.ReasonHit {
			matched[s.Attrs["view"]] = true
		}
	}
	if len(matched) != 3 {
		t.Errorf("view.match spans with reason %q name %v, want one a fragment", view.ReasonHit, matched)
	}
	if c := counters(); c[0] != c0[0]+6 || c[1] != c0[1] {
		t.Errorf("two runs of three view-answered fragments moved the view hits and misses from %v to %v", c0, c)
	}
	if n := requests.Load() - r0; n != 0 {
		t.Errorf("%d endpoint requests, want 0", n)
	}
}

// spansNamed returns the spans of the tree under s with the given name.
func spansNamed(s obs.SpanJSON, name string) []obs.SpanJSON {
	var out []obs.SpanJSON
	if s.Name == name {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, spansNamed(c, name)...)
	}
	return out
}

// TestWholeFragmentFromView: a query some data sets answer whole is one
// fragment, which a view of its BGP answers like any other: every
// modifier variant of the coauthor query — DISTINCT or not (a fetched
// whole fragment is a set either way), ordered and sliced — comes from
// the view with no round trip and matches the oracle. The Figure-1 query,
// the same BGP under a FILTER, is fetched from the endpoints.
func TestWholeFragmentFromView(t *testing.T) {
	const person = 2
	text := coauthorQuery(person)
	m, requests := materializedFederation(t, text, 1)
	o := newOracle(t, exampleUniverse(), nil)
	tmpl := diffTemplate{name: "coauthors", texts: []string{text}, vars: []string{"a", "paper"}}
	for name, variant := range tmpl.variants() {
		r0, h0 := requests.Load(), m.Views.Stats().Hits
		got, err := mediatorRows(m, QueryRequest{Query: variant})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstOracle(t, name, variant, got, o.answer(t, variant))
		if trips, hits := requests.Load()-r0, m.Views.Stats().Hits-h0; trips != 0 || hits != 1 {
			t.Errorf("%s: %d round trips, %d view hits; want 0, 1", name, trips, hits)
		}
	}
	filtered := workload.Figure1Query(person)
	h0 := m.Views.Stats().Hits
	got, err := mediatorRows(m, QueryRequest{Query: filtered})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "figure 1", filtered, got, o.answer(t, filtered))
	if hits := m.Views.Stats().Hits - h0; hits != 0 {
		t.Errorf("figure 1: %d view hits, want its FILTERed fragment fetched", hits)
	}
}

// coauthorQuery is the Figure-1 query's BGP about Southampton person i,
// without its FILTER.
func coauthorQuery(i int) string {
	return "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE { ?paper akt:has-author <" +
		workload.SotonPerson(i).Value + "> . ?paper akt:has-author ?a }"
}

// TestViewsKeepTenantFilters: a tenant restricted to a URI space gets
// the answer with views on that it gets with views off, though views of
// every fragment of its queries' BGPs are ready. The restriction is a
// FILTER on the IRI's spelling, which an endpoint runs over its own
// spelling and a view's owl:sameAs-canonical rows would not match, so a
// fragment it lands in is fetched; the fragments it does not are still
// answered from views.
func TestViewsKeepTenantFilters(t *testing.T) {
	const person = 2
	plain := exampleFederation(t, nil)
	viewed, _ := materializedFederation(t, workload.CrossVocabularyQuery(person), 3)
	selectRows(t, viewed, coauthorQuery(person))
	waitViewsReady(t, viewed, 4)
	for _, space := range []string{workload.SotonIDSpace, workload.KistiIDSpace} {
		tenant := &serve.Tenant{ID: "space", Policy: &serve.Policy{URISpaces: []string{space}}}
		for _, c := range []struct {
			query string
			hits  uint64
		}{
			{workload.Figure1Query(person), 0},
			{coauthorQuery(person), 0},
			{workload.CrossVocabularyQuery(person), 2},
		} {
			req := QueryRequest{Query: c.query, Tenant: tenant}
			want, err := mediatorRows(plain, req)
			if err != nil {
				t.Fatal(err)
			}
			h0 := viewed.Views.Stats().Hits
			got, err := mediatorRows(viewed, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: no rows in %s with views off; the case tests nothing", c.query, space)
			}
			if !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
				t.Errorf("%s in %s: %d rows with views on, %d with views off\n%v\n%v", c.query, space, len(got), len(want), got, want)
			}
			if hits := viewed.Views.Stats().Hits - h0; hits != c.hits {
				t.Errorf("%s in %s: %d view hits, want %d", c.query, space, hits, c.hits)
			}
		}
	}
}

// TestSharedViewAnswersOnlyTheSharedFragment: with room for two views,
// both taken by another person's cross-vocabulary query — its papers and
// authors at Southampton, their citation counts at the metrics
// repository — a person's query reads only the fragment every such query
// shares, the citation counts, from a view: the metrics repository hears
// nothing, Southampton exactly what it hears with views off, and the
// answer is the federated one.
func TestSharedViewAnswersOnlyTheSharedFragment(t *testing.T) {
	u := exampleUniverse()
	metrics := workload.MetricsStore(u)
	var sotonTrips, metricsTrips atomic.Int64
	kb := voidkb.NewKB()
	for _, d := range []struct {
		ds    *voidkb.Dataset
		st    *store.Store
		trips *atomic.Int64
	}{
		{&voidkb.Dataset{URI: workload.SotonVoidURI, URISpace: workload.SotonURIPattern,
			Vocabularies: []string{rdf.AKTNS}, Triples: int64(u.Southampton.Size()),
			PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: int64(u.Southampton.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor)))}},
			u.Southampton, &sotonTrips},
		{&voidkb.Dataset{URI: workload.MetricsVoidURI, URISpace: workload.SotonURIPattern,
			Vocabularies: []string{workload.MetricsNS}, Triples: int64(metrics.Size()),
			PropertyPartitions: map[string]int64{workload.MetricsCitationCount: int64(u.Cfg.Papers)}},
			metrics, &metricsTrips},
	} {
		h := endpoint.NewServer(d.ds.URI, d.st)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d.trips.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		d.ds.SPARQLEndpoint = srv.URL
		if err := kb.Add(d.ds); err != nil {
			t.Fatal(err)
		}
	}
	mediator := func(opts ...Option) *Mediator {
		m := New(kb, align.NewKB(), u.Coref, opts...)
		t.Cleanup(m.Close)
		return m
	}
	query := workload.CrossVocabularyQuery(7)

	s0 := sotonTrips.Load()
	want := sortRows(selectRows(t, mediator(), query))
	fedSoton := sotonTrips.Load() - s0
	if len(want) == 0 || fedSoton == 0 {
		t.Fatalf("federated: %d rows, %d Southampton round trips; an empty answer proves nothing", len(want), fedSoton)
	}

	shared := mediator(WithViews(view.Options{MinFrequency: 1, MaxViews: 2}))
	selectRows(t, shared, workload.CrossVocabularyQuery(3))
	waitViewsReady(t, shared, 2)
	s0, m0, h0 := sotonTrips.Load(), metricsTrips.Load(), shared.Views.Stats().Hits
	got := sortRows(selectRows(t, shared, query))
	if !equalRows(got, want) {
		t.Errorf("shared views answered\n %v\nfederated\n %v", got, want)
	}
	if st, mt, h := sotonTrips.Load()-s0, metricsTrips.Load()-m0, shared.Views.Stats().Hits-h0; mt != 0 || st != fedSoton || h != 1 {
		t.Errorf("%d metrics and %d Southampton round trips, %d view hits; want 0, the federated %d, and 1",
			mt, st, h, fedSoton)
	}
}
