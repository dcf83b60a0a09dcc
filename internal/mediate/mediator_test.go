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
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// testStack spins up SPARQL endpoints over a generated universe and wires
// a mediator to them, mirroring the paper's deployment (Figure 5).
type testStack struct {
	u        *workload.Universe
	mediator *Mediator
}

func newStack(t testing.TB) *testStack {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)

	sotonSrv := httptest.NewServer(endpoint.NewServer("southampton", u.Southampton))
	t.Cleanup(sotonSrv.Close)
	kistiSrv := httptest.NewServer(endpoint.NewServer("kisti", u.KISTI))
	t.Cleanup(kistiSrv.Close)

	dsKB := voidkb.NewKB()
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: sotonSrv.URL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{rdf.AKTNS},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dsKB.Add(&voidkb.Dataset{
		URI: workload.KistiVoidURI, Title: "KISTI",
		SPARQLEndpoint: kistiSrv.URL,
		URISpace:       workload.KistiURIPattern,
		Vocabularies:   []string{rdf.KISTINS},
	}); err != nil {
		t.Fatal(err)
	}

	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}

	// Without the §4 FILTER extension the Figure-1 query's self-exclusion
	// FILTER keeps its Southampton URI and silently stops excluding the
	// person on KISTI (the paper's Figure-6 limitation; pinned by
	// TestPaperModeFilterLimitation below).
	m := New(dsKB, alignKB, u.Coref, WithRewriteFilters(true))
	return &testStack{u: u, mediator: m}
}

// federatedSelect drains one federated SELECT into the buffered result
// shape most assertions consume.
func federatedSelect(m *Mediator, query string, targets []string) (*FederatedResult, error) {
	res, err := m.Query(context.Background(), QueryRequest{
		Query: query, Targets: targets,
	})
	if err != nil {
		return nil, err
	}
	return res.Bindings().Collect()
}

// TestPaperModeFilterLimitation pins the §4 limitation end to end: with
// FILTER rewriting off, the co-author query run against KISTI stops
// excluding the person themselves, inflating the federated answer by one.
func TestPaperModeFilterLimitation(t *testing.T) {
	s := newStack(t)
	s.mediator.Configure(WithRewriteFilters(false))
	person := -1
	for i := 0; i < s.u.Cfg.Persons; i++ {
		if len(s.u.CoAuthorsIn(i, "kisti")) > 0 {
			person = i
			break
		}
	}
	if person < 0 {
		t.Skip("no person present in KISTI")
	}
	fr, err := federatedSelect(s.mediator, workload.Figure1Query(person),
		[]string{workload.SotonVoidURI, workload.KistiVoidURI})
	if err != nil {
		t.Fatal(err)
	}
	truth := s.u.CoAuthors(person)
	if len(fr.Solutions) != len(truth)+1 {
		t.Fatalf("paper mode should include the person themselves once: got %d, truth %d",
			len(fr.Solutions), len(truth))
	}
}

func TestRewriteForKISTI(t *testing.T) {
	s := newStack(t)
	rr, err := s.mediator.Rewrite(workload.Figure1Query(0), rdf.AKTNS, workload.KistiVoidURI)
	if err != nil {
		t.Fatal(err)
	}
	if rr.AlignmentsUsed != 24 {
		t.Fatalf("alignments used = %d, want 24", rr.AlignmentsUsed)
	}
	if !strings.Contains(rr.Query, "kisti:hasCreatorInfo") {
		t.Fatalf("rewritten query:\n%s", rr.Query)
	}
	if strings.Contains(rr.Query, "akt:has-author") {
		t.Fatalf("source vocabulary left behind:\n%s", rr.Query)
	}
}

func TestRewriteUnknownTarget(t *testing.T) {
	s := newStack(t)
	if _, err := s.mediator.Rewrite(workload.Figure1Query(0), rdf.AKTNS, "http://nope/void"); err == nil {
		t.Fatal("unknown target must error")
	}
	if _, err := s.mediator.Rewrite("NOT SPARQL", rdf.AKTNS, workload.KistiVoidURI); err == nil {
		t.Fatal("bad query must error")
	}
}

// TestE6_FederatedRecall reproduces the recall claim: querying all
// repositories returns strictly more co-authors than the source alone
// (given KISTI-only papers exist), and exactly the ground-truth union.
func TestE6_FederatedRecall(t *testing.T) {
	s := newStack(t)
	// Pick a person that has KISTI-only co-authors.
	person := -1
	for i := 0; i < s.u.Cfg.Persons; i++ {
		sOnly := s.u.CoAuthorsIn(i, "southampton")
		all := s.u.CoAuthors(i)
		if len(all) > len(sOnly) {
			person = i
			break
		}
	}
	if person < 0 {
		t.Skip("universe has no person with KISTI-only co-authors")
	}
	q := workload.Figure1Query(person)

	sourceOnly, err := federatedSelect(s.mediator, q, []string{workload.SotonVoidURI})
	if err != nil {
		t.Fatal(err)
	}
	federated, err := federatedSelect(s.mediator, q,
		[]string{workload.SotonVoidURI, workload.KistiVoidURI})
	if err != nil {
		t.Fatal(err)
	}
	truth := s.u.CoAuthors(person)
	if len(sourceOnly.Solutions) >= len(federated.Solutions) {
		t.Fatalf("federation did not increase recall: %d vs %d",
			len(sourceOnly.Solutions), len(federated.Solutions))
	}
	if len(federated.Solutions) != len(truth) {
		t.Fatalf("federated recall = %d, ground truth %d", len(federated.Solutions), len(truth))
	}
	// Overlapping papers produce redundant answers that the co-reference
	// merge collapses.
	if federated.Duplicates == 0 {
		t.Fatal("expected duplicate answers across redundant repositories")
	}
	for _, da := range federated.PerDataset {
		if da.Err != nil {
			t.Fatalf("data set %s failed: %v", da.Dataset, da.Err)
		}
	}
}

// TestQueryFormDispatch pins the tagged union: each form fills exactly
// its own payload.
func TestQueryFormDispatch(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()

	sel, err := s.mediator.Query(ctx, QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if sel.Form() != sparql.Select || sel.Bindings() == nil || sel.Graph() != nil {
		t.Fatalf("SELECT result mis-tagged: form=%s", sel.Form())
	}

	ask, err := s.mediator.Query(ctx, QueryRequest{
		Query:   `ASK { ?s ?p ?o }`,
		Targets: []string{workload.SotonVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ask.Close()
	if ask.Form() != sparql.Ask || ask.Bindings() != nil || ask.Graph() != nil {
		t.Fatalf("ASK result mis-tagged: form=%s", ask.Form())
	}
	if !ask.Bool() {
		t.Fatal("ASK over a non-empty repository must be true")
	}
	if sum, err := ask.Summary(); err != nil || len(sum.PerDataset) != 1 {
		t.Fatalf("ASK summary = %+v, %v", sum, err)
	}

	askFalse, err := s.mediator.Query(ctx, QueryRequest{
		Query:   `ASK { ?s <http://www.aktors.org/ontology/portal#no-such-predicate> ?o }`,
		Targets: []string{workload.SotonVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer askFalse.Close()
	if askFalse.Bool() {
		t.Fatal("ASK for an absent predicate must be false")
	}

	st := s.mediator.Stats()
	if st.Queries.Select != 1 || st.Queries.Ask != 2 {
		t.Fatalf("per-form counters = %+v", st.Queries)
	}
}

// TestQueryConstructFederated: a CONSTRUCT whose WHERE spans two
// repositories (Southampton + KISTI, translated) streams the template
// instantiation over the merged federated solutions.
func TestQueryConstructFederated(t *testing.T) {
	s := newStack(t)
	person := workload.SotonPerson(0).Value
	query := `PREFIX akt:<` + rdf.AKTNS + `>
PREFIX foaf:<http://xmlns.com/foaf/0.1/>
CONSTRUCT { <` + person + `> foaf:knows ?a }
WHERE {
  ?paper akt:has-author <` + person + `> .
  ?paper akt:has-author ?a .
}`
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:   query,
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Form() != sparql.Construct || res.Graph() == nil {
		t.Fatalf("CONSTRUCT result mis-tagged: form=%s", res.Form())
	}
	g, err := res.Graph().Collect()
	if err != nil {
		t.Fatal(err)
	}
	truth := s.u.CoAuthors(0)
	// The person authors their own papers, so ?a includes the person:
	// co-authors + self.
	if len(g) != len(truth)+1 {
		t.Fatalf("constructed %d triples, want %d co-authors + self", len(g), len(truth)+1)
	}
	// Both the template constant and the bindings are canonicalised to the
	// lexicographically-smallest owl:sameAs alias (the merge's
	// representative rule), so sameAs-equivalent facts from the two
	// repositories collapse.
	rep := person
	for _, eq := range s.u.Coref.Equivalents(person) {
		if eq < rep {
			rep = eq
		}
	}
	for _, tr := range g {
		if tr.S.Value != rep || tr.P.Value != "http://xmlns.com/foaf/0.1/knows" {
			t.Fatalf("unexpected triple %s (want subject <%s>)", tr, rep)
		}
	}
	sum, err := res.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PerDataset) != 2 {
		t.Fatalf("summary = %+v", sum.PerDataset)
	}
	// Redundant repositories produce sameAs-equivalent facts; the triple
	// merge must have deduplicated rather than double-counted.
	seen := map[string]bool{}
	for _, tr := range g {
		if seen[tr.String()] {
			t.Fatalf("duplicate triple %s", tr)
		}
		seen[tr.String()] = true
	}
}

// TestQueryDescribeFederated: DESCRIBE with a ground IRI fetches the
// resource's outgoing triples, under any of its sameAs aliases, from every
// repository of the request's source set, through the join engine's bound
// join.
func TestQueryDescribeFederated(t *testing.T) {
	s := newStack(t)
	person := workload.SotonPerson(0).Value
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: `DESCRIBE <` + person + `>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Form() != sparql.Describe || res.Graph() == nil {
		t.Fatalf("DESCRIBE result mis-tagged: form=%s", res.Form())
	}
	g, err := res.Graph().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(g) == 0 {
		t.Fatal("DESCRIBE returned no triples")
	}
	// Every triple describes the requested resource (canonicalised: the
	// merge maps sameAs aliases onto one representative).
	for _, tr := range g {
		if !tr.S.IsIRI() {
			t.Fatalf("non-IRI subject %s", tr)
		}
	}

	// DESCRIBE ?var WHERE resolves the variable through the federated
	// pipeline first.
	res2, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: `PREFIX akt:<` + rdf.AKTNS + `>
DESCRIBE ?paper WHERE { ?paper akt:has-author <` + person + `> }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	g2, err := res2.Graph().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(g2) == 0 {
		t.Fatal("DESCRIBE ?paper returned no triples")
	}
	sum, err := res2.Summary()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 (resource resolution) answers precede the description
	// fetches in the combined summary.
	if len(sum.PerDataset) < 2 {
		t.Fatalf("combined summary too small: %+v", sum.PerDataset)
	}
}

// TestUnknownTargetRefused: a target the voiD KB does not register is
// refused before any round trip, wherever it stands among the targets —
// an error from Query naming it, a 400 over /sparql.
func TestUnknownTargetRefused(t *testing.T) {
	var requests atomic.Int64
	m := exampleFederation(t, func(_ string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			h.ServeHTTP(w, r)
		})
	})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	const nope = "http://nope.example/void"
	for _, targets := range [][]string{{workload.SotonVoidURI, nope}, {nope, workload.SotonVoidURI}} {
		_, err := m.Query(context.Background(), QueryRequest{
			Query: workload.Figure1Query(0), Targets: targets,
		})
		if err == nil || !strings.Contains(err.Error(), nope) || errors.Is(err, serve.ErrDenied) {
			t.Errorf("targets %v: %v, want an error naming %s", targets, err, nope)
		}
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{
			"query": {workload.Figure1Query(0)}, "target": targets,
		})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), nope) {
			t.Errorf("/sparql naming %v: %d %s, want 400 naming %s", targets, resp.StatusCode, body, nope)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d endpoint requests, want none", n)
	}
}

// allAuthorships names no instance, so every data set that speaks AKT is
// relevant to it, whatever its URI space.
const allAuthorships = "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE { ?paper akt:has-author ?a }"

// TestFederatedSurvivesEndpointFailure injects a failing endpoint: the
// mediator must report the failure for that data set and still merge the
// answers of the healthy ones.
func TestFederatedSurvivesEndpointFailure(t *testing.T) {
	s := newStack(t)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "simulated outage", http.StatusInternalServerError)
	}))
	defer broken.Close()
	if err := s.mediator.Datasets.Add(&voidkb.Dataset{
		URI: "http://broken.example/void", Title: "Broken",
		SPARQLEndpoint: broken.URL,
		URISpace:       `http://broken\.example/\S*`,
		Vocabularies:   []string{rdf.AKTNS}, // same vocab: query sent as-is
	}); err != nil {
		t.Fatal(err)
	}
	fr, err := federatedSelect(s.mediator, allAuthorships,
		[]string{workload.SotonVoidURI, "http://broken.example/void"})
	if err != nil {
		t.Fatal(err)
	}
	var brokenReported, sotonOK bool
	for _, da := range fr.PerDataset {
		switch da.Dataset {
		case "http://broken.example/void":
			brokenReported = da.Err != nil
		case workload.SotonVoidURI:
			sotonOK = da.Err == nil
		}
	}
	if !brokenReported || !sotonOK {
		t.Fatalf("per-dataset reporting wrong: %+v", fr.PerDataset)
	}
	if len(fr.Solutions) == 0 {
		t.Fatal("healthy endpoint's answers lost")
	}
}

// TestFederatedHangingEndpointTimesOut pins the executor wiring end to
// end: a hung endpoint hits its per-attempt deadline and the healthy
// ones still answer, instead of the whole fan-out stalling.
func TestFederatedHangingEndpointTimesOut(t *testing.T) {
	s := newStack(t)
	unblock := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-unblock:
		case <-r.Context().Done():
		}
	}))
	defer hang.Close()
	defer close(unblock) // release the handler before hang.Close waits on it
	if err := s.mediator.Datasets.Add(&voidkb.Dataset{
		URI: "http://hang.example/void", Title: "Hanging",
		SPARQLEndpoint: hang.URL,
		URISpace:       `http://hang\.example/\S*`,
		Vocabularies:   []string{rdf.AKTNS},
	}); err != nil {
		t.Fatal(err)
	}
	s.mediator.Configure(WithFederation(federate.Options{
		EndpointTimeout: 100 * time.Millisecond,
		MaxRetries:      -1,
	}))
	start := time.Now()
	fr, err := federatedSelect(s.mediator, allAuthorships,
		[]string{workload.SotonVoidURI, "http://hang.example/void"})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fan-out blocked on the hung endpoint for %s", elapsed)
	}
	var hungErr error
	var sotonOK bool
	for _, da := range fr.PerDataset {
		switch da.Dataset {
		case "http://hang.example/void":
			hungErr = da.Err
		case workload.SotonVoidURI:
			sotonOK = da.Err == nil && da.Solutions > 0
		}
	}
	if hungErr == nil || !errors.Is(hungErr, context.DeadlineExceeded) {
		t.Fatalf("hung endpoint error = %v, want deadline exceeded", hungErr)
	}
	if !sotonOK || len(fr.Solutions) == 0 {
		t.Fatalf("healthy endpoint's answers lost: %+v", fr.PerDataset)
	}
	if !fr.Partial {
		t.Fatal("result must be marked partial")
	}
}

// TestFederatedPlanCacheReuse pins that federated queries of one shape
// hit the rewrite-plan cache instead of re-rewriting: the Figure-1 query
// about three persons rewrites for KISTI once.
func TestFederatedPlanCacheReuse(t *testing.T) {
	s := newStack(t)
	targets := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	for i := 0; i < 3; i++ {
		if _, err := federatedSelect(s.mediator, workload.Figure1Query(i), targets); err != nil {
			t.Fatal(err)
		}
	}
	st := s.mediator.Stats().Federation
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	if len(st.Endpoints) != 2 {
		t.Fatalf("endpoints tracked = %d, want 2", len(st.Endpoints))
	}
	for _, es := range st.Endpoints {
		if es.Breaker != "closed" || es.Successes != 3 {
			t.Fatalf("endpoint stats = %+v", es)
		}
	}
}

func TestHTTPAPIDatasets(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("datasets = %v", infos)
	}
}

func TestHTTPAPIRewrite(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	body, _ := json.Marshal(apiQueryRequest{
		Query:  workload.Figure1Query(0),
		Target: workload.KistiVoidURI,
		// Source omitted: every alignment into KISTI is selected.
	})
	resp, err := http.Post(srv.URL+"/api/rewrite", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rr rewriteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rr.Query, "kisti:hasCreatorInfo") {
		t.Fatalf("rewritten = %s", rr.Query)
	}
	if rr.AlignmentsUsed != 24 {
		t.Fatalf("alignments used = %d", rr.AlignmentsUsed)
	}
}

// TestHTTPAlignmentReloadDoesNotGrowKB: POSTing the same alignment
// document again and again — what a deployment script or the benchmark's
// hot-churn writer does — must leave the KB, and so the rewriting and its
// cost, as it was after the first load.
func TestHTTPAlignmentReloadDoesNotGrowKB(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	kb := s.mediator.Alignments
	oas, eas := kb.Len(), kb.EntityAlignmentCount()
	before, err := s.mediator.Rewrite(workload.Figure1Query(0), rdf.AKTNS, workload.KistiVoidURI)
	if err != nil {
		t.Fatal(err)
	}
	ttl := align.FormatTurtle([]*align.OntologyAlignment{workload.AKT2KISTI()})
	for i := range 30 {
		resp, err := http.Post(srv.URL+"/api/alignments", "text/turtle", strings.NewReader(ttl))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("load %d: status = %d", i, resp.StatusCode)
		}
	}
	if kb.Len() != oas || kb.EntityAlignmentCount() != eas {
		t.Fatalf("after 30 re-loads: %d alignments / %d entity alignments, want %d / %d",
			kb.Len(), kb.EntityAlignmentCount(), oas, eas)
	}
	after, err := s.mediator.Rewrite(workload.Figure1Query(0), rdf.AKTNS, workload.KistiVoidURI)
	if err != nil {
		t.Fatal(err)
	}
	if after.Query != before.Query || after.AlignmentsUsed != before.AlignmentsUsed {
		t.Fatalf("rewriting changed across re-loads (%d -> %d alignments used):\n%s\n--- was ---\n%s",
			before.AlignmentsUsed, after.AlignmentsUsed, after.Query, before.Query)
	}
}

func TestHTTPSparqlFederated(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	form := url.Values{
		"query":  {workload.Figure1Query(0)},
		"target": {workload.SotonVoidURI, workload.KistiVoidURI},
	}
	resp, err := http.PostForm(srv.URL+"/sparql", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	res, boolean, err := srjson.Decode(body)
	if err != nil || boolean != nil {
		t.Fatalf("decode: %v boolean=%v", err, boolean)
	}
	if len(res.Solutions) == 0 {
		t.Fatal("no federated rows")
	}
}

func TestHTTPAPIStats(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	if _, err := federatedSelect(s.mediator, workload.Figure1Query(0),
		[]string{workload.SotonVoidURI, workload.KistiVoidURI}); err != nil {
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
	if len(st.Federation.Endpoints) != 2 {
		t.Fatalf("stats endpoints = %+v", st.Federation.Endpoints)
	}
	for _, es := range st.Federation.Endpoints {
		if es.Attempts == 0 || es.Breaker != "closed" {
			t.Fatalf("endpoint stats = %+v", es)
		}
	}
	if st.Queries.Select == 0 {
		t.Fatalf("per-form counters missing: %+v", st.Queries)
	}
}

func TestHTTPUIServed(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if !strings.Contains(html, "SPARQL Query Rewriter") || !strings.Contains(html, "KISTI") {
		t.Fatalf("UI page wrong:\n%s", html)
	}
	// bad paths 404
	resp2, _ := http.Get(srv.URL + "/nope")
	if resp2.StatusCode != 404 {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestHTTPAPIErrors(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	// GET on POST-only endpoints
	for _, path := range []string{"/api/rewrite", "/api/plan"} {
		resp, _ := http.Get(srv.URL + path)
		if resp.StatusCode != 405 {
			t.Fatalf("%s GET status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// invalid JSON
	resp, _ := http.Post(srv.URL+"/api/rewrite", "application/json", strings.NewReader("{"))
	if resp.StatusCode != 400 {
		t.Fatalf("bad json status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAPIBodyCapped: /api/rewrite and /api/plan read at most
// endpoint.DefaultMaxRequestBody, as /sparql does. A larger body — here a
// valid request padded with a 2 MB comment — is a 400 about the body, and
// its query is never parsed.
func TestAPIBodyCapped(t *testing.T) {
	s := newStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	query := "# " + strings.Repeat("x", 2<<20) + "\n" + workload.Figure1Query(0)
	for _, path := range []string{"/api/rewrite", "/api/plan"} {
		body, err := json.Marshal(map[string]string{"query": query, "source": rdf.AKTNS, "target": workload.KistiVoidURI})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "request body too large") {
			t.Errorf("%s with a %d-byte body: %d %.200s, want 400 about the body", path, len(body), resp.StatusCode, raw)
		}
	}
}
