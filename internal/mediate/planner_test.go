package mediate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/store"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// countingServer wraps a SPARQL endpoint and counts requests, so tests
// can assert which endpoints the planner actually dispatched to.
func countingServer(t *testing.T, name string, st *store.Store) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	h := endpoint.NewServer(name, st)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

// plannedStack builds a mediator over four endpoints of which only two
// (Southampton, KISTI) are voiD-relevant to the Figure-1 workload: the
// DBpedia and ECS stand-ins speak unreachable vocabularies.
func plannedStack(t *testing.T) (*testStack, map[string]*atomic.Int64) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)

	hits := map[string]*atomic.Int64{}
	soton, sotonHits := countingServer(t, "southampton", u.Southampton)
	hits[workload.SotonVoidURI] = sotonHits
	kisti, kistiHits := countingServer(t, "kisti", u.KISTI)
	hits[workload.KistiVoidURI] = kistiHits
	dbp, dbpHits := countingServer(t, "dbpedia", store.New())
	hits[workload.DBPVoidURI] = dbpHits
	ecs, ecsHits := countingServer(t, "ecs", store.New())
	hits[workload.ECSVoidURI] = ecsHits

	dsKB := voidkb.NewKB()
	for _, d := range []*voidkb.Dataset{
		{URI: workload.SotonVoidURI, Title: "Southampton RKB", SPARQLEndpoint: soton.URL,
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS}},
		{URI: workload.KistiVoidURI, Title: "KISTI", SPARQLEndpoint: kisti.URL,
			URISpace: workload.KistiURIPattern, Vocabularies: []string{rdf.KISTINS}},
		{URI: workload.DBPVoidURI, Title: "DBpedia", SPARQLEndpoint: dbp.URL,
			URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}},
		{URI: workload.ECSVoidURI, Title: "ECS", SPARQLEndpoint: ecs.URL,
			URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}},
	} {
		if err := dsKB.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}
	if err := alignKB.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	m := New(dsKB, alignKB, u.Coref, WithRewriteFilters(true))
	return &testStack{u: u, mediator: m}, hits
}

// TestPlannedFederationDispatchesOnlyRelevant pins the acceptance
// criterion: with four endpoints of which two are voiD-relevant, a
// federated query with no explicit targets reaches exactly those two.
func TestPlannedFederationDispatchesOnlyRelevant(t *testing.T) {
	s, hits := plannedStack(t)
	fr, err := federatedSelect(s.mediator, workload.Figure1Query(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.PerDataset) != 2 {
		t.Fatalf("per-dataset answers = %+v, want soton+kisti only", fr.PerDataset)
	}
	seen := map[string]bool{}
	for _, da := range fr.PerDataset {
		if da.Err != nil {
			t.Fatalf("dataset %s failed: %v", da.Dataset, da.Err)
		}
		seen[da.Dataset] = true
	}
	if !seen[workload.SotonVoidURI] || !seen[workload.KistiVoidURI] {
		t.Fatalf("wrong datasets dispatched: %+v", fr.PerDataset)
	}
	if hits[workload.DBPVoidURI].Load() != 0 || hits[workload.ECSVoidURI].Load() != 0 {
		t.Fatal("pruned endpoints received requests")
	}
	if hits[workload.SotonVoidURI].Load() == 0 || hits[workload.KistiVoidURI].Load() == 0 {
		t.Fatal("relevant endpoints not dispatched")
	}
	if len(fr.Solutions) == 0 {
		t.Fatal("planned federation returned no answers")
	}
}

// TestPlannedMatchesExplicitTargets: auto-selection returns the same
// merged result as naming the two relevant repositories by hand.
func TestPlannedMatchesExplicitTargets(t *testing.T) {
	s, _ := plannedStack(t)
	q := workload.Figure1Query(1)
	planned, err := federatedSelect(s.mediator, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := federatedSelect(s.mediator, q,
		[]string{workload.SotonVoidURI, workload.KistiVoidURI})
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Solutions) != len(explicit.Solutions) {
		t.Fatalf("planned = %d solutions, explicit = %d",
			len(planned.Solutions), len(explicit.Solutions))
	}
}

// TestNamedTargetsArePlanned: named targets narrow the source set the
// planner selects from. A named data set the query cannot reach is pruned
// with its reason and never dispatched, an unnamed one is outside the
// set, a target named twice is one target, and a set that answers
// nothing is a 400 naming its data sets, not a policy refusal.
func TestNamedTargetsArePlanned(t *testing.T) {
	s, hits := plannedStack(t)
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:   workload.Figure1Query(1),
		Targets: []string{workload.SotonVoidURI, workload.DBPVoidURI, workload.KistiVoidURI, workload.SotonVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := res.Bindings().Collect()
	if err != nil || len(fr.Solutions) == 0 {
		t.Fatalf("%d solutions, %v", len(fr.Solutions), err)
	}
	if res.Decomposition() == nil {
		t.Fatal("no plan for a request naming its targets")
	}
	for _, dec := range res.Decomposition().Decisions {
		want := dec.Dataset == workload.SotonVoidURI || dec.Dataset == workload.KistiVoidURI
		if dec.Relevant != want || len(dec.Reasons) == 0 && !want {
			t.Errorf("decision %+v: want relevant %v, with a reason when not", dec, want)
		}
		if dec.Dataset == workload.ECSVoidURI && !slices.ContainsFunc(dec.Reasons, func(r string) bool { return strings.Contains(r, "source set") }) {
			t.Errorf("unnamed ECS pruned for %v, want the source set", dec.Reasons)
		}
	}
	if n := len(fr.PerDataset); n != 2 {
		t.Errorf("%d sub-requests, want one each for Southampton and KISTI: %+v", n, fr.PerDataset)
	}
	if hits[workload.DBPVoidURI].Load() != 0 || hits[workload.ECSVoidURI].Load() != 0 {
		t.Error("a pruned endpoint received a request")
	}

	_, err = s.mediator.Query(context.Background(), QueryRequest{
		Query: workload.Figure1Query(1), Targets: []string{workload.DBPVoidURI},
	})
	if err == nil || errors.Is(err, serve.ErrDenied) || !strings.Contains(err.Error(), "is relevant") || !strings.Contains(err.Error(), workload.DBPVoidURI) {
		t.Errorf("naming only DBpedia: %v, want the no-relevant-data-set error naming it", err)
	}
}

func TestPlannedNoRelevantDatasets(t *testing.T) {
	s, _ := plannedStack(t)
	// A FOAF query reaches no registered data set.
	_, err := federatedSelect(s.mediator,
		`SELECT ?n WHERE { ?x <http://xmlns.com/foaf/0.1/name> ?n }`, nil)
	if err == nil || !strings.Contains(err.Error(), "relevant") {
		t.Fatalf("err = %v, want no-relevant-data-set error", err)
	}
}

// shardAttrs returns the "shard" attributes of a trace's spans, in order.
func shardAttrs(s obs.SpanJSON) []string {
	var out []string
	if v, ok := s.Attrs["shard"].(string); ok {
		out = append(out, v)
	}
	for _, c := range s.Children {
		out = append(out, shardAttrs(c)...)
	}
	return out
}

// TestShardNumbering: a target is numbered k/n among its data set's VALUES
// shards only when there are several. The Figure-1 query's one sub-query
// per data set is unsharded (0/0): its per-data-set answers, the /sparql
// summary and its trace carry no shard numbering, while a VALUES query cut
// into three shards still numbers them 1/3 to 3/3.
func TestShardNumbering(t *testing.T) {
	s, _ := plannedStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/sparql",
		strings.NewReader(url.Values{"query": {workload.Figure1Query(2)}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, resp.Body)
	resp.Body.Close()
	summaries := 0
	for _, ev := range events {
		if ev.name != "summary" {
			continue
		}
		summaries++
		if strings.Contains(ev.data, `"shard`) {
			t.Errorf("unsharded summary numbers its shards: %s", ev.data)
		}
	}
	if summaries != 1 {
		t.Fatalf("%d summary events, want 1", summaries)
	}
	tr := s.mediator.Obs.Ring.Get(resp.Header.Get("X-Trace-Id"))
	if tr == nil {
		t.Fatal("the request's trace is not in the ring")
	}
	if got := shardAttrs(tr.View().Root); len(got) != 0 {
		t.Errorf("unsharded sub-query spans carry shard attributes %v", got)
	}
	fr, err := federatedSelect(s.mediator, workload.Figure1Query(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, da := range fr.PerDataset {
		if da.Shard != 0 || da.Shards != 0 {
			t.Errorf("unsharded answer of %s numbered %d/%d, want 0/0", da.Dataset, da.Shard, da.Shards)
		}
	}

	s.mediator.Configure(WithDecomposer(decompose.Options{ValuesBatch: 2}))
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < 6; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")
	res, err := s.mediator.Query(context.Background(), QueryRequest{Query: sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Bindings().Collect(); err != nil {
		t.Fatal(err)
	}
	got := shardAttrs(res.Trace().View().Root)
	slices.Sort(got)
	if want := []string{"1/3", "1/3", "2/3", "2/3", "3/3", "3/3"}; !slices.Equal(got, want) {
		t.Errorf("sharded sub-query spans carry shard attributes %v, want %v", got, want)
	}
}

// TestValuesShardedFederation: a VALUES-seeded query shards per the
// configured batch size and the shard answers recombine to the full set.
func TestValuesShardedFederation(t *testing.T) {
	s, _ := plannedStack(t)
	s.mediator.Configure(WithDecomposer(decompose.Options{ValuesBatch: 2}))

	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE {\n  VALUES ?paper {")
	for i := 0; i < 6; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" }\n  ?paper akt:has-author ?a .\n}")
	q := sb.String()

	sharded, err := federatedSelect(s.mediator, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 shards × 2 relevant datasets.
	if len(sharded.PerDataset) != 6 {
		t.Fatalf("sub-requests = %d, want 6: %+v", len(sharded.PerDataset), sharded.PerDataset)
	}
	for _, da := range sharded.PerDataset {
		if da.Err != nil {
			t.Fatalf("shard %d/%d of %s failed: %v", da.Shard, da.Shards, da.Dataset, da.Err)
		}
		if da.Shards != 3 {
			t.Fatalf("shard count = %d, want 3", da.Shards)
		}
	}
	s.mediator.Configure(WithDecomposer(decompose.Options{ValuesBatch: -1}))
	unsharded, err := federatedSelect(s.mediator, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Solutions) != len(unsharded.Solutions) {
		t.Fatalf("sharded = %d solutions, unsharded = %d",
			len(sharded.Solutions), len(unsharded.Solutions))
	}
}

// TestPlanCacheInvalidationHooks pins the KB-change hooks: adding an
// alignment flushes the rewrite-plan cache; re-registering a data set
// drops only its plans.
func TestPlanCacheInvalidationHooks(t *testing.T) {
	s := newStack(t)
	q := workload.Figure1Query(0)
	targets := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	run := func() {
		t.Helper()
		if _, err := federatedSelect(s.mediator, q, targets); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	st := s.mediator.Stats().Federation
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("warm-up cache hits/misses = %d/%d", st.CacheHits, st.CacheMisses)
	}

	// Alignment KB change → full flush → next run re-rewrites.
	if err := s.mediator.Alignments.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	if n := s.mediator.Stats().Federation.CacheEntries; n != 0 {
		t.Fatalf("cache entries after alignment change = %d, want 0", n)
	}
	run()
	if st := s.mediator.Stats().Federation; st.CacheMisses != 2 {
		t.Fatalf("cache misses after alignment flush = %d, want 2", st.CacheMisses)
	}

	// voiD entry change → that data set's plan drops.
	kisti, _ := s.mediator.Datasets.Get(workload.KistiVoidURI)
	if err := s.mediator.Datasets.Add(&voidkb.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI v2",
		SPARQLEndpoint: kisti.SPARQLEndpoint,
		URISpace:       kisti.URISpace,
		Vocabularies:   kisti.Vocabularies,
	}); err != nil {
		t.Fatal(err)
	}
	if n := s.mediator.Stats().Federation.CacheEntries; n != 0 {
		t.Fatalf("cache entries after voiD change = %d, want 0", n)
	}
	run()
	if st := s.mediator.Stats().Federation; st.CacheMisses != 3 {
		t.Fatalf("cache misses after voiD invalidation = %d, want 3", st.CacheMisses)
	}
}

func TestHTTPSparqlWithoutTargets(t *testing.T) {
	s, hits := plannedStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	// The protocol endpoint with no target parameters goes through the
	// planner; GET is the canonical protocol shape.
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(workload.Figure1Query(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	res, _, err := srjson.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) == 0 {
		t.Fatal("no planned rows over /sparql")
	}
	if hits[workload.DBPVoidURI].Load() != 0 {
		t.Fatal("pruned endpoint was queried")
	}
	if hits[workload.SotonVoidURI].Load() == 0 || hits[workload.KistiVoidURI].Load() == 0 {
		t.Fatal("relevant endpoints not dispatched")
	}
}

func TestHTTPAPIPlanExplain(t *testing.T) {
	s, _ := plannedStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	body, _ := json.Marshal(apiQueryRequest{Query: workload.Figure1Query(0)})
	resp, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pl decompose.Decomposition
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		t.Fatal(err)
	}
	if whole := pl.Whole(); len(pl.Decisions) != 4 || whole == nil || len(whole.Targets) != 2 || whole.Shards != nil {
		t.Fatalf("plan = %+v", pl)
	}
	relevant := 0
	for _, dec := range pl.Decisions {
		if dec.Relevant {
			relevant++
		}
		if len(dec.Reasons) == 0 {
			t.Fatalf("decision without reasons: %+v", dec)
		}
	}
	if relevant != 2 {
		t.Fatalf("relevant = %d, want 2", relevant)
	}
	// GET is rejected.
	getResp, _ := http.Get(srv.URL + "/api/plan")
	if getResp.StatusCode != 405 {
		t.Fatalf("GET status = %d", getResp.StatusCode)
	}
	getResp.Body.Close()
}

// TestHTTPAPIPlanTargets: /api/plan takes targets as /sparql takes its
// target parameter, through the same source set, so its plan reads only
// the named data sets, and an unknown target is refused with /sparql's
// error text.
func TestHTTPAPIPlanTargets(t *testing.T) {
	s, _ := plannedStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	plan := func(targets ...string) (int, []byte) {
		t.Helper()
		body, _ := json.Marshal(apiQueryRequest{Query: workload.Figure1Query(0), Targets: targets})
		resp, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	status, raw := plan(workload.KistiVoidURI)
	if status != 200 {
		t.Fatalf("status = %d: %s", status, raw)
	}
	var pl decompose.Decomposition
	if err := json.Unmarshal(raw, &pl); err != nil {
		t.Fatal(err)
	}
	if whole := pl.Whole(); whole == nil || len(whole.Targets) != 1 || whole.Targets[0].Dataset != workload.KistiVoidURI {
		t.Fatalf("plan = %s, want one whole fragment over KISTI", raw)
	}
	for _, dec := range pl.Decisions {
		if dec.Relevant != (dec.Dataset == workload.KistiVoidURI) {
			t.Errorf("%s: relevant %v, reasons %v", dec.Dataset, dec.Relevant, dec.Reasons)
		}
	}

	const unknown = "http://unknown.example/void"
	status, raw = plan(unknown)
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(0)}, "target": {unknown}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusBadRequest || doc.Error == "" {
		t.Fatalf("/sparql with an unknown target: %d %+v %v", resp.StatusCode, doc, err)
	}
	if status != http.StatusBadRequest || strings.TrimSpace(string(raw)) != doc.Error {
		t.Fatalf("/api/plan with an unknown target: %d %q, want 400 %q", status, raw, doc.Error)
	}
}

func TestHTTPAPIStatsIncludesPlanner(t *testing.T) {
	s, _ := plannedStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	if _, err := federatedSelect(s.mediator, workload.Figure1Query(0), nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Planner == nil || st.Planner.Plans != 1 || st.Planner.DatasetsPruned != 2 {
		t.Fatalf("planner stats = %+v", st.Planner)
	}
	// Every configured endpoint has a row; the two the planner pruned sit
	// idle with zero counts.
	dispatched := 0
	for _, es := range st.Federation.Endpoints {
		if es.Attempts > 0 {
			dispatched++
		}
	}
	if len(st.Federation.Endpoints) != 4 || dispatched != 2 {
		t.Fatalf("endpoint stats = %+v", st.Federation.Endpoints)
	}
}

// TestPlanAllocations guards what routing a query costs: for the Figure-1
// query, which Southampton and KISTI answer whole, once every endpoint
// has history — the planner reads the executor's endpoint table in place,
// without a snapshot of the executor's stats per plan — and for the
// cross-vocabulary query, which no data set answers whole, so the route
// estimates, orders and joins its groups.
func TestPlanAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := exampleFederation(t, nil)
	for i := range 3 {
		for _, q := range []string{workload.Figure1Query(i), workload.CrossVocabularyQuery(i)} {
			if _, err := federatedSelect(m, q, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, eh := range m.Stats().Federation.Endpoints {
		if eh.Attempts == 0 {
			t.Fatalf("endpoint %s has no history", eh.Endpoint)
		}
	}
	for _, c := range []struct {
		name    string
		query   string
		whole   bool
		ceiling float64
	}{
		{"Figure 1", workload.Figure1Query(2), true, 35},
		{"cross-vocabulary", workload.CrossVocabularyQuery(2), false, 92},
	} {
		q := sparql.MustParse(c.query)
		req := QueryRequest{}
		got := testing.AllocsPerRun(50, func() {
			dcm, err := m.route(context.Background(), q, req)
			if err != nil || (dcm.Whole() != nil) != c.whole {
				t.Fatalf("%s: %+v, %v", c.name, dcm, err)
			}
		})
		t.Logf("%s: route allocates %.0f", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: route allocates %.0f, want at most %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestMixedVocabularyQueryRunsWhole: a query of two KISTI patterns and
// one AKT pattern goes to KISTI whole, in one endpoint round trip. KISTI
// answers the AKT pattern through the AKT alignments, and its rewriter
// translates each triple by the alignment its own IRIs match, leaving the
// KISTI ones as written. The rows are the oracle's.
func TestMixedVocabularyQueryRunsWhole(t *testing.T) {
	var trips atomic.Int64
	m := exampleFederation(t, func(_ string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			trips.Add(1)
			h.ServeHTTP(w, r)
		})
	})
	text := "PREFIX akt:<" + rdf.AKTNS + ">\nPREFIX k:<" + rdf.KISTINS + ">\n" +
		"SELECT ?paper ?a WHERE { ?paper k:title ?t . ?paper k:year ?y . ?paper akt:has-author ?a }"
	dcm, err := m.PlanQuery(text, "")
	if err != nil {
		t.Fatal(err)
	}
	whole := dcm.Whole()
	if whole == nil || len(whole.Targets) != 1 || whole.Targets[0].Dataset != workload.KistiVoidURI || !whole.Targets[0].NeedsRewrite {
		t.Fatalf("plan = %+v, want one whole fragment over a rewritten KISTI", dcm.Fragments)
	}
	got, err := mediatorRows(m, QueryRequest{Query: text})
	if err != nil {
		t.Fatal(err)
	}
	if n := trips.Load(); n != 1 {
		t.Errorf("%d endpoint round trips, want 1", n)
	}
	want := newOracle(t, exampleUniverse(), nil).answer(t, text)
	if len(want) == 0 {
		t.Fatal("the oracle answers no rows")
	}
	checkAgainstOracle(t, "mixed vocabularies", text, got, want)
}

// TestUnanchoredPatternsFollowPatternSources pins the one relevance rule
// where the whole-query planner it replaced chose otherwise: a pattern
// with no vocabulary anchor is answerable everywhere, rewritten nowhere,
// and only its ground IRIs prune: a data set whose URI space holds no
// member of the IRI's owl:sameAs class. The planner once kept Southampton
// and a rewritten KISTI for every query. A paper KISTI mirrors reaches
// KISTI through co-reference, and its decision names the spelling.
func TestUnanchoredPatternsFollowPatternSources(t *testing.T) {
	m := exampleFederation(t, nil)
	all := []string{workload.KistiVoidURI, workload.MetricsVoidURI, workload.SotonVoidURI}
	for _, c := range []struct {
		query string
		want  []string
		coref string // the spelling KISTI's decision names
	}{
		{"SELECT ?p ?o WHERE { <" + workload.SotonPaper(51).Value + "> ?p ?o }",
			[]string{workload.MetricsVoidURI, workload.SotonVoidURI}, ""},
		{"SELECT ?p ?o WHERE { <" + workload.SotonPaper(1).Value + "> ?p ?o }", all, workload.KistiPaper(1).Value},
		{"SELECT ?s ?p ?o WHERE { ?s ?p ?o }", all, ""},
	} {
		dcm, err := m.PlanQuery(c.query, "")
		if err != nil {
			t.Fatal(err)
		}
		whole := dcm.Whole()
		if whole == nil {
			t.Fatalf("%s: plan = %+v, want one whole fragment", c.query, dcm)
		}
		var got []string
		for _, target := range whole.Targets {
			got = append(got, target.Dataset)
			if target.NeedsRewrite {
				t.Errorf("%s: %s rewritten", c.query, target.Dataset)
			}
		}
		if slices.Sort(got); !slices.Equal(got, c.want) {
			t.Errorf("%s: cover %v, want %v", c.query, got, c.want)
		}
		for _, dec := range dcm.Decisions {
			why := strings.Join(dec.Reasons, "; ")
			if named := strings.Contains(why, "through co-reference, as <"+c.coref+">"); (c.coref != "" && dec.Dataset == workload.KistiVoidURI) != named {
				t.Errorf("%s: %s reasons %q", c.query, dec.Dataset, why)
			}
		}
	}
}

// TestOpenBreakerInEveryView drives one endpoint's circuit open through
// real traffic: the planner then dispatches to it last and says why, and
// every surface that reports the breaker reports it open.
func TestOpenBreakerInEveryView(t *testing.T) {
	m := exampleFederation(t, func(dataset string, h http.Handler) http.Handler {
		if dataset != workload.KistiVoidURI {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		})
	}, WithFederation(federate.Options{BreakerCooldown: time.Hour}))
	kisti, _ := m.Datasets.Get(workload.KistiVoidURI)
	breakerOf := func(health []federate.EndpointHealth) string {
		for _, eh := range health {
			if eh.Endpoint == kisti.SPARQLEndpoint {
				return eh.Breaker
			}
		}
		return ""
	}
	for i := 0; breakerOf(m.Stats().Federation.Endpoints) != "open"; i++ {
		if i == 10 {
			t.Fatal("the failing endpoint's circuit never opened")
		}
		if _, err := federatedSelect(m, workload.Figure1Query(i), nil); err != nil {
			t.Fatal(err)
		}
	}

	pl, err := m.PlanQuery(workload.Figure1Query(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if whole := pl.Whole(); whole == nil || len(whole.Targets) < 2 || whole.Targets[len(whole.Targets)-1].Dataset != workload.KistiVoidURI {
		t.Fatalf("dispatch order = %v, want KISTI last", pl.Datasets())
	}
	for _, dec := range pl.Decisions {
		if why := strings.Join(dec.Reasons, "; "); dec.Dataset == workload.KistiVoidURI && !strings.Contains(why, "circuit is open") {
			t.Fatalf("KISTI decision reasons = %q, want the open circuit", why)
		}
	}

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health []federate.EndpointHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if api, stats := breakerOf(health), breakerOf(m.Stats().Federation.Endpoints); api != "open" || stats != "open" {
		t.Fatalf("breaker: /api/health %q, Stats().Federation %q; want open everywhere", api, stats)
	}
}
