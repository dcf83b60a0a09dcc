package mediate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// servingStack is the serving-tier test deployment: the usual generated
// two-repository universe, but with every endpoint round trip counted
// and the serving tier enabled.
type servingStack struct {
	u          *workload.Universe
	mediator   *Mediator
	dsKB       *voidkb.KB
	roundTrips atomic.Int64
	inFlight   atomic.Int64 // endpoint requests arrived and not yet answered
	sotonURL   string
	kistiURL   string
}

func newServingStack(t testing.TB, opts serve.Options) *servingStack {
	t.Helper()
	s := &servingStack{}
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	s.u = workload.Generate(cfg)

	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.roundTrips.Add(1)
			s.inFlight.Add(1)
			defer s.inFlight.Add(-1)
			h.ServeHTTP(w, r)
		})
	}
	sotonSrv := httptest.NewServer(count(endpoint.NewServer("southampton", s.u.Southampton)))
	t.Cleanup(sotonSrv.Close)
	kistiSrv := httptest.NewServer(count(endpoint.NewServer("kisti", s.u.KISTI)))
	t.Cleanup(kistiSrv.Close)
	s.sotonURL, s.kistiURL = sotonSrv.URL, kistiSrv.URL

	s.dsKB = voidkb.NewKB()
	if err := s.dsKB.Add(s.sotonDataset()); err != nil {
		t.Fatal(err)
	}
	if err := s.dsKB.Add(&voidkb.Dataset{
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
	s.mediator = New(s.dsKB, alignKB, s.u.Coref,
		WithRewriteFilters(true), WithServing(opts))
	return s
}

// settle waits until the endpoints have answered every request that
// reached them and none has arrived for 100 ms: a sub-query an answer
// abandoned can reach an endpoint after that answer is complete.
func (s *servingStack) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := s.roundTrips.Load(); ; {
		time.Sleep(100 * time.Millisecond)
		now := s.roundTrips.Load()
		if now == n && s.inFlight.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint requests still arriving: %d in flight", s.inFlight.Load())
		}
		n = now
	}
}

func (s *servingStack) sotonDataset() *voidkb.Dataset {
	return &voidkb.Dataset{
		URI: workload.SotonVoidURI, Title: "Southampton RKB",
		SPARQLEndpoint: s.sotonURL,
		URISpace:       workload.SotonURIPattern,
		Vocabularies:   []string{rdf.AKTNS},
	}
}

func (s *servingStack) query(t *testing.T, req QueryRequest) *FederatedResult {
	t.Helper()
	res, err := s.mediator.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := res.Bindings().Collect()
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestResultCacheHitZeroRoundTrips pins the cache's core promise: a
// repeated SELECT serves entirely from memory, with zero endpoint round
// trips, and yields the same answer.
func TestResultCacheHitZeroRoundTrips(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	req := QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	}
	first := s.query(t, req)
	cold := s.roundTrips.Load()
	if cold == 0 {
		t.Fatal("cold query made no endpoint round trips")
	}

	second := s.query(t, req)
	if got := s.roundTrips.Load(); got != cold {
		t.Fatalf("cache hit made %d endpoint round trips", got-cold)
	}
	if len(second.Solutions) != len(first.Solutions) {
		t.Fatalf("cached answer has %d solutions, want %d", len(second.Solutions), len(first.Solutions))
	}
	m := s.mediator.Serve.Cache.Metrics()
	if m.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", m.Hits)
	}
}

// TestResultCacheSameAsAliasKey pins the owl:sameAs canonicalised key:
// the same query spelled with an entity's KISTI alias shares the cache
// entry its Southampton spelling filled.
func TestResultCacheSameAsAliasKey(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	canon := federate.NewRepCache(s.mediator.Coref)
	soton, kisti := workload.SotonPerson(0), workload.KistiPerson(0)
	if canon.Term(soton) != canon.Term(kisti) {
		t.Skip("person 0 has no cross-dataset sameAs link in this universe")
	}
	mk := func(person rdf.Term) QueryRequest {
		return QueryRequest{
			Query: fmt.Sprintf(`PREFIX akt:<%s>
SELECT DISTINCT ?a WHERE { ?paper akt:has-author <%s> . ?paper akt:has-author ?a . }`,
				rdf.AKTNS, person.Value),
			Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
		}
	}
	s.query(t, mk(soton))
	cold := s.roundTrips.Load()
	s.query(t, mk(kisti))
	if got := s.roundTrips.Load(); got != cold {
		t.Fatalf("alias spelling missed the cache (%d extra round trips)", got-cold)
	}
}

// TestResultCacheAliasAnswersWhole: the result cache keys a query's
// owl:sameAs spellings alike, so the answer an alias spelling fills must be
// the whole canonical answer. The cross-vocabulary query naming person 0 by
// its KISTI URI once pruned Southampton (7 rows of 30), and the
// Southampton-spelled query was then served those 7 from the cache.
func TestResultCacheAliasAnswersWhole(t *testing.T) {
	const person = 0
	plain := exampleFederation(t, nil)
	cached := exampleFederation(t, nil, WithServing(serve.Options{}))
	base := workload.CrossVocabularyQuery(person)
	alias := strings.ReplaceAll(base, workload.SotonPerson(person).Value, workload.KistiPerson(person).Value)
	if canon := federate.NewRepCache(cached.Coref); canon.Term(workload.SotonPerson(person)) != canon.Term(workload.KistiPerson(person)) {
		t.Fatalf("person %d has no KISTI alias", person)
	}
	want := sortRows(selectRows(t, plain, base))
	if len(want) != 30 {
		t.Fatalf("the plain mediator answers %d rows, want person %d's 30", len(want), person)
	}
	for _, c := range []struct{ name, query string }{{"alias", alias}, {"canonical, from the cache", base}} {
		if got := sortRows(selectRows(t, cached, c.query)); !equalRows(got, want) {
			t.Errorf("%s: %d rows, want the plain mediator's %d", c.name, len(got), len(want))
		}
	}
	if hits := cached.Serve.Cache.Metrics().Hits; hits != 1 {
		t.Errorf("%d cache hits, want the canonical query served from the alias's entry", hits)
	}
}

// TestResultCacheInvalidatedByKBUpdate pins the Subscribe wiring: a voiD
// description change drops every entry, so the next query goes back to
// the endpoints.
func TestResultCacheInvalidatedByKBUpdate(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	req := QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	}
	s.query(t, req)
	if s.mediator.Serve.Cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.mediator.Serve.Cache.Len())
	}

	// Republish the Southampton voiD description: the subscription hook
	// must invalidate the entry.
	if err := s.dsKB.Add(s.sotonDataset()); err != nil {
		t.Fatal(err)
	}
	if s.mediator.Serve.Cache.Len() != 0 {
		t.Fatal("voiD update left the dependent entry cached")
	}

	cold := s.roundTrips.Load()
	s.query(t, req)
	if got := s.roundTrips.Load(); got == cold {
		t.Fatal("query after invalidation did not return to the endpoints")
	}
	if m := s.mediator.Serve.Cache.Metrics(); m.Invalidations == 0 {
		t.Fatalf("invalidations = %d, want > 0", m.Invalidations)
	}
}

// TestResultCacheStaleInFlightFillNotCached pins the version-epoch
// guard: a KB change that lands while a query is executing (after the
// cache epoch was snapshotted, before the stream finished) must prevent
// that answer — computed against pre-invalidation state — from landing
// in the cache.
func TestResultCacheStaleInFlightFillNotCached(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	req := QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	}
	res, err := s.mediator.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is live but unconsumed; the KB changes under it.
	if err := s.dsKB.Add(s.sotonDataset()); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Bindings().Collect(); err != nil {
		t.Fatal(err)
	}
	if n := s.mediator.Serve.Cache.Len(); n != 0 {
		t.Fatalf("stale in-flight fill was cached (%d entries)", n)
	}

	// An alignment change flushes in the same way.
	s.query(t, req)
	if s.mediator.Serve.Cache.Len() != 1 {
		t.Fatal("fresh fill should have cached")
	}
	if err := s.mediator.Alignments.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	if s.mediator.Serve.Cache.Len() != 0 {
		t.Fatal("alignment update did not flush the cache")
	}
}

// TestResultCacheLimitCutNotCached: a stream the client abandons at its
// LIMIT is incomplete and must not fill the cache.
func TestResultCacheLimitCutNotCached(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	req := QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
		Limit:   1,
	}
	fr := s.query(t, req)
	if len(fr.Solutions) > 1 {
		t.Fatalf("limit ignored: %d solutions", len(fr.Solutions))
	}
	// The full (unlimited) answer had more rows than the limit let
	// through, so the fill never saw upstream EOF.
	if n := s.mediator.Serve.Cache.Len(); n != 0 {
		t.Fatalf("limit-cut stream was cached (%d entries)", n)
	}
}

// --- per-tenant policy enforcement ---

func TestTenantDatasetAllowlist(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	tenant := &serve.Tenant{ID: "soton-only", Policy: &serve.Policy{
		Datasets: []string{workload.SotonVoidURI},
	}}

	// An explicit out-of-list target is refused outright.
	_, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.KistiVoidURI},
		Tenant:  tenant,
	})
	if !errors.Is(err, serve.ErrDenied) {
		t.Fatalf("out-of-list target: err = %v, want ErrDenied", err)
	}

	// The planner considers only the source set: only the allowed data
	// set is consulted, and the plan reports no dispatch to the others.
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:  workload.Figure1Query(0),
		Tenant: tenant,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, dec := range res.Decomposition().Decisions {
		if dec.Dataset == workload.SotonVoidURI {
			continue
		}
		if dec.Relevant || slices.Contains(res.Decomposition().Datasets(), dec.Dataset) {
			t.Errorf("plan reports %s relevant or dispatches to it, outside the allowlist", dec.Dataset)
		}
		if slices.Contains(dec.Reasons, "outside the request's source set (dataset allowlist or named targets)") {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("no decision names the source set as its reason")
	}
	fr, err := res.Bindings().Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, da := range fr.PerDataset {
		if da.Dataset != workload.SotonVoidURI {
			t.Fatalf("restricted plan consulted %s", da.Dataset)
		}
	}
}

// TestTenantURISpaceRestriction proves a graph-restricted tenant cannot
// read triples outside its subject URI space: the injected filter
// excludes every row of the out-of-space repository, and ground
// out-of-space subjects are refused before any endpoint is contacted.
func TestTenantURISpaceRestriction(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	tenant := &serve.Tenant{ID: "kisti-space", Policy: &serve.Policy{
		URISpaces: []string{workload.KistiIDSpace},
	}}
	req := func(tn *serve.Tenant) QueryRequest {
		return QueryRequest{
			Query: fmt.Sprintf(`PREFIX akt:<%s>
SELECT ?paper ?a WHERE { ?paper akt:has-author ?a . }`, rdf.AKTNS),
			Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
			Tenant:  tn,
		}
	}

	open := s.query(t, req(nil))
	restricted := s.query(t, req(tenant))

	// The Southampton repository holds only Southampton-space subjects;
	// the restricted tenant's rewritten query must match none of them.
	perDS := func(fr *FederatedResult, uri string) int {
		for _, da := range fr.PerDataset {
			if da.Dataset == uri {
				return da.Solutions
			}
		}
		return -1
	}
	if n := perDS(open, workload.SotonVoidURI); n == 0 {
		t.Fatal("unrestricted query found nothing in Southampton (test universe broken)")
	}
	if n := perDS(restricted, workload.SotonVoidURI); n != 0 {
		t.Fatalf("restricted tenant read %d Southampton-space rows", n)
	}
	if n := perDS(restricted, workload.KistiVoidURI); n == 0 {
		t.Fatal("restricted tenant should still read its own space")
	}

	// A ground out-of-space subject never reaches an endpoint.
	_, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: fmt.Sprintf(`PREFIX akt:<%s>
SELECT ?a WHERE { <%s> akt:has-author ?a . }`, rdf.AKTNS, workload.SotonPaper(0).Value),
		Targets: []string{workload.SotonVoidURI},
		Tenant:  tenant,
	})
	if !errors.Is(err, serve.ErrDenied) {
		t.Fatalf("ground out-of-space subject: err = %v, want ErrDenied", err)
	}
}

// --- the HTTP admission surface ---

// TestProtocolAdmission pins the /sparql admission behaviour: a tenant
// over its rate quota gets a deterministic 429 carrying Retry-After,
// the standard JSON error document and X-Trace-Id; a policy denial maps
// to 403.
func TestProtocolAdmission(t *testing.T) {
	cfg, err := serve.ParseTenants([]byte(fmt.Sprintf(`{"tenants": [
		{"id": "quota", "keys": ["quota-key"], "ratePerSec": 0.001, "burst": 1},
		{"id": "restricted", "keys": ["restricted-key"],
		 "policy": {"uriSpaces": [%q]}}
	]}`, workload.KistiIDSpace)))
	if err != nil {
		t.Fatal(err)
	}
	s := newServingStack(t, serve.Options{Tenants: cfg})
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	do := func(key, query string) *http.Response {
		t.Helper()
		body := url.Values{"query": {query}, "target": {workload.SotonVoidURI}}
		hreq, _ := http.NewRequest("POST", srv.URL+"/sparql",
			strings.NewReader(body.Encode()))
		hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		hreq.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	errorDoc := func(resp *http.Response) string {
		t.Helper()
		defer resp.Body.Close()
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("error response is not the JSON error document: %v", err)
		}
		if doc.Error == "" {
			t.Fatal("error document has empty error member")
		}
		return doc.Error
	}

	q := workload.Figure1Query(0)

	// First request spends the only token.
	resp := do("quota-key", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Second is deterministically rate limited.
	resp = do("quota-key", q)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("429 without X-Trace-Id")
	}
	errorDoc(resp)

	// The quota is per tenant: another tenant still gets through.
	resp = do("restricted-key", fmt.Sprintf(`PREFIX akt:<%s>
SELECT ?a WHERE { <%s> akt:has-author ?a . }`, rdf.AKTNS, workload.SotonPaper(0).Value))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("policy denial: %d, want 403", resp.StatusCode)
	}
	if msg := errorDoc(resp); !strings.Contains(msg, "denied") {
		t.Fatalf("403 error document: %q", msg)
	}
}

// TestProtocolConcurrencyShed pins the 503 path: with the only
// concurrency slot held and no queue, the next request is shed.
func TestProtocolConcurrencyShed(t *testing.T) {
	cfg, err := serve.ParseTenants([]byte(`{"anonymous": {"maxConcurrent": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := newServingStack(t, serve.Options{Tenants: cfg})
	anon := s.mediator.Serve.Tenants.Anonymous()
	release, rej := s.mediator.Serve.Admission.Admit(context.Background(), anon)
	if rej != nil {
		t.Fatal(rej)
	}
	defer release()

	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {workload.Figure1Query(0)}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestResultCacheHitRequestAllocations pins what a /sparql request the
// result cache answers costs the whole process: the text-key lookup and
// the replay through the response encoder. A repeated request is found by
// its text, with no parse, policy restriction, source set or canonical
// key. They measure 43 (Figure 1) and 44 (cross-vocabulary); the ceilings
// are those plus 7 %. They measured 44 and 45 while the request read
// header keys in non-canonical spelling, resolved its route counter per
// request and allocated its response encoder's buffer apart (the replay's
// push sequence costs three allocations its pull source did not). While
// every hit parsed and wrote its canonical key from the parsed query, they
// cost 80 and 85; while that key was a canonicalised clone of the query,
// formatted, 100 each.
func TestResultCacheHitRequestAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		name    string
		query   string
		ceiling float64
	}{
		{"fig1-coauthors", workload.Figure1Query(2), 46},
		{"xvocab-join", workload.CrossVocabularyQuery(2), 47},
	} {
		t.Run(c.name, func(t *testing.T) {
			var requests atomic.Int64
			m := exampleFederation(t, func(_ string, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					requests.Add(1)
					h.ServeHTTP(w, r)
				})
			}, WithServing(serve.Options{}))
			h := Handler(m)
			target := "/sparql?query=" + url.QueryEscape(c.query)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
			r0, rows := requests.Load(), 0
			got := testing.AllocsPerRun(50, func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
				rows = strings.Count(w.Body.String(), `"a":{`)
			})
			t.Logf("result-cache hit: %.0f allocations per request, %d rows", got, rows)
			if rows < 2 || requests.Load() != r0 || m.Serve.Cache.Metrics().Hits != 51 {
				t.Fatalf("%d rows, %d endpoint requests, %+v: not 51 cache hits", rows, requests.Load()-r0, m.Serve.Cache.Metrics())
			}
			if got > c.ceiling {
				t.Errorf("%.0f allocations per cache-answered request, want at most %.0f", got, c.ceiling)
			}
		})
	}
}
