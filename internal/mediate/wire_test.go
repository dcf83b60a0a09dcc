package mediate

// What reaches the endpoints' wire is what the stages built: every
// execution path hands parsed queries from stage to stage, and this table
// records the texts the endpoints receive on each of them and holds them
// against the queries the decomposer's plan and its join engine, the
// policy restriction and the form derivations produced. Each request runs
// after one of the same shape about other instances, so the rewrites it
// sends are bound from cached plans.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/decompose"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/workload"
)

// wireTap records the query texts each data set's endpoint receives.
type wireTap struct {
	mu   sync.Mutex
	seen map[string][]string // data set URI -> texts
}

func (w *wireTap) wrap(dataset string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		text := tappedQuery(r)
		w.mu.Lock()
		w.seen[dataset] = append(w.seen[dataset], text)
		w.mu.Unlock()
		h.ServeHTTP(rw, r)
	})
}

// tappedQuery returns the query text a SPARQL 1.1 Protocol POST carries —
// its body, sent directly as application/sparql-query, or its form's query
// parameter — and leaves the request for the endpoint behind the tap to
// read as it arrived.
func tappedQuery(r *http.Request) string {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-query") {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		return string(body)
	}
	r.ParseForm() // cached on r: the endpoint still sees the form
	return r.PostForm.Get("query")
}

// recordingDispatcher notes the requests the join engine hands the
// executor: the queries a plan's fragments and stages built.
type recordingDispatcher struct {
	exec *federate.Executor
	mu   sync.Mutex
	reqs []federate.Request
}

func (d *recordingDispatcher) Select(ctx context.Context, req federate.Request) federate.Fanout {
	d.mu.Lock()
	d.reqs = append(d.reqs, req)
	d.mu.Unlock()
	return d.exec.Select(ctx, req)
}

// sorted returns the per-data-set text lists in a comparable order.
func sorted(byDataset map[string][]string) map[string][]string {
	for _, texts := range byDataset {
		sort.Strings(texts)
	}
	return byDataset
}

// wireCase is one execution path of TestWireCarriesWhatTheStagesBuilt.
type wireCase struct {
	name string
	// dec is the case's decompose options.
	dec decompose.Options
	req QueryRequest
	// derived is the SELECT the plan's whole fragment should send, before
	// rewriting, when the case gives it; the join engine's requests say
	// what went to each endpoint.
	derived string
	// hashJoin says how a case the join engine ran must have joined.
	hashJoin bool
}

// wireCases returns the execution paths, asking about Southampton person
// i and papers first to first+4.
func wireCases(t *testing.T, i, first int) []wireCase {
	akt := "PREFIX akt:<" + rdf.AKTNS + ">\n"
	person := "<" + workload.SotonPerson(i).Value + ">"
	coauthors := "{ ?paper akt:has-author " + person + " . ?paper akt:has-author ?a }"
	both := []string{workload.SotonVoidURI, workload.KistiVoidURI}
	values := "VALUES ?paper {"
	for j := first; j < first+5; j++ {
		values += " <" + workload.SotonPaper(j).Value + ">"
	}
	values += " }"
	sotonOnly := &serve.Tenant{ID: "soton-space", Policy: &serve.Policy{URISpaces: []string{workload.SotonIDSpace}}}
	restricted, _, err := serve.Restrict(sparql.MustParse(workload.Figure1Query(i)), sotonOnly.Policy)
	if err != nil {
		t.Fatal(err)
	}
	return []wireCase{
		{name: "select, explicit targets",
			req:     QueryRequest{Query: workload.Figure1Query(i), Targets: both},
			derived: workload.Figure1Query(i)},
		{name: "ask, explicit targets",
			req:     QueryRequest{Query: akt + "ASK " + coauthors, Targets: both},
			derived: akt + "SELECT * WHERE " + coauthors + " LIMIT 1"},
		{name: "construct, explicit targets",
			req:     QueryRequest{Query: akt + "CONSTRUCT { ?paper akt:has-author ?a } WHERE " + coauthors, Targets: both},
			derived: akt + "SELECT DISTINCT ?paper ?a WHERE " + coauthors},
		{name: "describe, explicit targets",
			req: QueryRequest{Query: "DESCRIBE " + person, Targets: both}},
		{name: "describe, planned",
			req: QueryRequest{Query: akt + "DESCRIBE ?paper WHERE " + coauthors}},
		{name: "restricted tenant, explicit targets",
			req:     QueryRequest{Query: workload.Figure1Query(i), Targets: both, Tenant: sotonOnly},
			derived: sparql.Format(restricted)},
		{name: "planned, one source, slice above merge",
			req: QueryRequest{Query: "PREFIX m:<" + workload.MetricsNS + ">\nSELECT ?p ?c WHERE { ?p m:citationCount ?c } ORDER BY ?c LIMIT 5 OFFSET 2"}},
		{name: "planned, VALUES-sharded",
			dec: decompose.Options{ValuesBatch: 2},
			req: QueryRequest{Query: akt + "SELECT ?paper ?a WHERE { " + values + " ?paper akt:has-author ?a }"}},
		{name: "decomposed, bound join",
			req: QueryRequest{Query: workload.CrossVocabularyQuery(i)}},
		{name: "decomposed, hash fallback",
			dec:      decompose.Options{MaxBindRows: -1},
			req:      QueryRequest{Query: workload.CrossVocabularyQuery(i)},
			hashJoin: true},
	}
}

func TestWireCarriesWhatTheStagesBuilt(t *testing.T) {
	warmups := wireCases(t, 3, 5)
	for n, tc := range wireCases(t, 2, 0) {
		t.Run(tc.name, func(t *testing.T) {
			tap := &wireTap{seen: map[string][]string{}}
			m := exampleFederation(t, tap.wrap, WithDecomposer(tc.dec))
			disp := &recordingDispatcher{exec: m.Exec}
			m.JoinEngine = decompose.NewEngine(disp, m.Coref, tc.dec)
			run := func(req QueryRequest) (*Result, *FederatedResult) {
				t.Helper()
				res, err := m.Query(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { res.Close() })
				sum, err := res.Summary()
				if err != nil {
					t.Fatal(err)
				}
				return res, sum
			}
			// The same shape about other instances fills the plan cache;
			// what it sent and built is not this request's.
			run(warmups[n].req)
			tap.seen, disp.reqs = map[string][]string{}, nil
			warm := m.Stats().Federation.CacheHits

			res, sum := run(tc.req)
			received := sorted(tap.seen)
			if len(received) == 0 {
				t.Fatal("no endpoint received anything")
			}

			// What the stages built, as the executor requests the join
			// engine made: a whole fragment's, a decomposition's stages, a
			// DESCRIBE's description fetch.
			built := disp.reqs
			dcm := res.Decomposition()
			if res.Form() == sparql.Describe || dcm != nil && dcm.Whole() == nil {
				if st := m.JoinEngine.Stats(); (st.HashJoinStages > 0) != tc.hashJoin || (st.BoundJoinStages > 0) == tc.hashJoin {
					t.Errorf("join stages = %+v, want hash join: %v", st, tc.hashJoin)
				}
			}
			if want := tc.derived; want != "" {
				if dcm == nil || dcm.Whole() == nil {
					t.Fatalf("no whole fragment; want one fanning out\n%s", want)
				}
				if got, want := sparql.Format(dcm.Whole().Query), sparql.Format(sparql.MustParse(want)); got != want {
					t.Errorf("planned\n%s\nwant the derived SELECT\n%s", got, want)
				}
			}
			want := map[string][]string{}
			rewritten := 0
			for _, freq := range built {
				for _, target := range freq.Targets {
					text := sparql.Format(target.Query)
					if target.NeedsRewrite {
						rr, err := m.Rewrite(text, "", target.Dataset)
						if err != nil {
							t.Fatal(err)
						}
						text = rr.Query
						rewritten++
					}
					want[target.Dataset] = append(want[target.Dataset], text)
				}
			}
			if !reflect.DeepEqual(received, sorted(want)) {
				t.Errorf("endpoints received\n%v\nthe stages built (rewritten as Mediator.Rewrite does)\n%v", received, want)
			}
			hits := m.Stats().Federation.CacheHits - warm
			t.Logf("%d sub-queries, %d of them rewritten, %d from cached plans", len(sum.PerDataset), rewritten, hits)
			if rewritten > 0 && hits == 0 {
				t.Errorf("%d rewritten sub-queries and no plan-cache hit after a request of the same shape", rewritten)
			}

			// Every text is the serialiser's own output, so it parses back
			// to the query it was formatted from.
			for dataset, texts := range received {
				for _, text := range texts {
					q, err := sparql.Parse(text)
					if err != nil || sparql.Format(q) != text {
						t.Errorf("%s received text that is not Format's: %v\n%s", dataset, err, text)
					}
				}
			}

			// The summary reports the texts that were sent.
			reported := map[string][]string{}
			for _, da := range sum.PerDataset {
				if da.Err != nil {
					t.Errorf("%s: %v", da.Dataset, da.Err)
				}
				reported[da.Dataset] = append(reported[da.Dataset], da.Query)
			}
			if !reflect.DeepEqual(sorted(reported), received) {
				t.Errorf("DatasetAnswer.Query reports\n%v\nthe endpoints received\n%v", reported, received)
			}
		})
	}
}

// TestPlanQueryExplainsTheWire: PlanQuery explains the route a query
// takes, so the sub-queries it reports — each shard of the whole fragment
// for each target, rewritten as Mediator.Rewrite does where a target needs
// it — are exactly the texts the endpoints receive. The wire loses the
// solution modifiers that run above the merge, and a VALUES block shards
// once its slice is gone.
func TestPlanQueryExplainsTheWire(t *testing.T) {
	values := "VALUES ?paper {"
	for j := range 5 {
		values += " <" + workload.SotonPaper(j).Value + ">"
	}
	values += " }"
	for _, tc := range []struct {
		name, query string
		opts        []Option
		dispatches  int
	}{
		{name: "slice above merge", dispatches: 1,
			query: "PREFIX m:<" + workload.MetricsNS + ">\nSELECT ?p ?c WHERE { ?p m:citationCount ?c } ORDER BY ?c LIMIT 5 OFFSET 2"},
		{name: "VALUES-sharded", dispatches: 6, // 3 shards to Southampton and KISTI
			opts:  []Option{WithDecomposer(decompose.Options{ValuesBatch: 2})},
			query: "PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?paper ?a WHERE { " + values + " ?paper akt:has-author ?a } ORDER BY ?a LIMIT 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tap := &wireTap{seen: map[string][]string{}}
			m := exampleFederation(t, tap.wrap, tc.opts...)
			dcm, err := m.PlanQuery(tc.query, "")
			if err != nil {
				t.Fatal(err)
			}
			whole := dcm.Whole()
			if whole == nil {
				t.Fatalf("plan = %+v, want one whole fragment", dcm)
			}
			subs := whole.Shards
			if subs == nil {
				subs = []*sparql.Query{whole.Query}
			}
			planned, n := map[string][]string{}, 0
			for _, target := range whole.Targets {
				for _, sub := range subs {
					text := sparql.Format(sub)
					if target.NeedsRewrite {
						rr, err := m.Rewrite(text, "", target.Dataset)
						if err != nil {
							t.Fatal(err)
						}
						text = rr.Query
					}
					planned[target.Dataset] = append(planned[target.Dataset], text)
					n++
				}
			}
			if n != tc.dispatches {
				t.Errorf("PlanQuery reports %d sub-queries, want %d", n, tc.dispatches)
			}
			if _, err := mediatorRows(m, QueryRequest{Query: tc.query}); err != nil {
				t.Fatal(err)
			}
			if received := sorted(tap.seen); !reflect.DeepEqual(received, sorted(planned)) {
				t.Errorf("endpoints received\n%v\nPlanQuery explained\n%v", received, planned)
			}
		})
	}
}
