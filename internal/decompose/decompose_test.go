package decompose

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sparqlrw/internal/algebra"
	"sparqlrw/internal/align"
	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/store"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// storeClient routes executor dispatches to in-memory stores, recording
// every query text per endpoint, so tests see exactly what each
// repository was asked without HTTP in the way.
type storeClient struct {
	mu      sync.Mutex
	stores  map[string]*store.Store
	queries map[string][]string
	// gate, when set for an endpoint, blocks its dispatches until the
	// request context dies (cancellation tests).
	gate map[string]bool
}

func newStoreClient() *storeClient {
	return &storeClient{
		stores:  map[string]*store.Store{},
		queries: map[string][]string{},
		gate:    map[string]bool{},
	}
}

func (c *storeClient) SelectRowStream(ctx context.Context, url, query string) (eval.RowStream, error) {
	c.mu.Lock()
	c.queries[url] = append(c.queries[url], query)
	st := c.stores[url]
	gated := c.gate[url]
	c.mu.Unlock()
	if gated {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if st == nil {
		return nil, fmt.Errorf("no store for %s", url)
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("endpoint %s: %v in:\n%s", url, err, query)
	}
	res, err := eval.New(st).Select(q)
	if err != nil {
		return nil, err
	}
	return &resultStream{sols: res.Solutions}, nil
}

// resultStream serves an evaluated result as the executor reads an
// endpoint: positional rows over the reader's slot table.
type resultStream struct {
	sols []eval.Solution
	i    int
}

func (s *resultStream) NextRow(vars []string, row eval.Row) error {
	if s.i >= len(s.sols) {
		return io.EOF
	}
	for i, v := range vars {
		row[i] = s.sols[s.i][v]
	}
	s.i++
	return nil
}

func (s *resultStream) RowBuffered() bool { return s.i < len(s.sols) }
func (s *resultStream) Close() error      { return nil }

func (c *storeClient) queriesFor(url string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.queries[url]...)
}

const (
	sotonURL   = "http://soton.test/sparql"
	metricsURL = "http://metrics.test/sparql"
	dbpURL     = "http://dbp.test/sparql"
	ecsURL     = "http://ecs.test/sparql"
)

// fixture wires the 4-endpoint cross-vocabulary stack: Southampton (AKT)
// and metrics hold joinable data in different vocabularies; the DBpedia
// and ECS stand-ins speak unrelated vocabularies. No alignments, so each
// pattern is answerable by exactly one repository.
type fixture struct {
	u      *workload.Universe
	client *storeClient
	kb     *voidkb.KB
	plnr   *plan.Planner
	dec    *Decomposer
	engine *Engine
	exec   *federate.Executor
}

func newFixture(t testing.TB, opts Options) *fixture {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 30, 90
	u := workload.Generate(cfg)

	client := newStoreClient()
	client.stores[sotonURL] = u.Southampton
	client.stores[metricsURL] = workload.MetricsStore(u)
	client.stores[dbpURL] = store.New()
	client.stores[ecsURL] = store.New()

	kb := voidkb.NewKB()
	add := func(d *voidkb.Dataset) {
		if err := kb.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	add(&voidkb.Dataset{URI: workload.SotonVoidURI, SPARQLEndpoint: sotonURL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
		Triples:            1000,
		PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: 400, rdf.AKTHasTitle: 90}})
	add(&voidkb.Dataset{URI: workload.MetricsVoidURI, SPARQLEndpoint: metricsURL,
		URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
		Triples:            180,
		PropertyPartitions: map[string]int64{workload.MetricsCitationCount: 90, workload.MetricsVenue: 90}})
	add(&voidkb.Dataset{URI: workload.DBPVoidURI, SPARQLEndpoint: dbpURL,
		URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}})
	add(&voidkb.Dataset{URI: workload.ECSVoidURI, SPARQLEndpoint: ecsURL,
		URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}})

	// No co-reference source: these tests compare against a local join
	// over the raw URIs, so the merge must not canonicalise them
	// (owl:sameAs handling has its own test below).
	plnr := plan.New(kb, align.NewKB(), nil, nil, plan.Options{})
	exec := federate.NewExecutor(client, nil, nil, federate.Options{MaxRetries: -1})
	return &fixture{
		u:      u,
		client: client,
		kb:     kb,
		plnr:   plnr,
		dec:    New(plnr, opts),
		engine: NewEngine(exec, nil, opts),
		exec:   exec,
	}
}

// groundTruth evaluates the query over the union of all stores locally.
func (f *fixture) groundTruth(t testing.TB, query string) []eval.Solution {
	t.Helper()
	merged := store.New()
	merged.AddGraph(f.u.Southampton.Triples())
	merged.AddGraph(workload.MetricsStore(f.u).Triples())
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.New(merged).Select(q)
	if err != nil {
		t.Fatal(err)
	}
	eval.SortSolutions(res.Solutions)
	return res.Solutions
}

func (f *fixture) run(t testing.TB, query string) ([]eval.Solution, *Plan) {
	t.Helper()
	dec, err := f.dec.Decompose(query, "")
	if err != nil {
		t.Fatal(err)
	}
	p := f.engine.Plan(dec, nil, 0)
	sols, err := solutions(context.Background(), p.Op, dec.Vars)
	if err != nil {
		t.Fatal(err)
	}
	return sols, p
}

// solutions runs a plan as the mediator does — compiled by the evaluator,
// under ctx — and returns its answer, sorted.
func solutions(ctx context.Context, op algebra.Op, vars []string) ([]eval.Solution, error) {
	rows, err := (&eval.Engine{}).Open(ctx, op, vars)
	if err != nil {
		return nil, err
	}
	var sols []eval.Solution
	for row, err := range rows {
		if err != nil {
			return sols, err
		}
		sols = append(sols, eval.RowSolution(vars, row))
	}
	eval.SortSolutions(sols)
	return sols, nil
}

// TestExclusiveGroupExtraction pins the decomposition shape on the
// 4-endpoint fixture: the two AKT patterns form one exclusive group for
// Southampton, the metrics pattern one for the metrics repository; the
// bound-author group (cheaper by voiD statistics) seeds the join and the
// metrics fragment joins on ?paper.
func TestExclusiveGroupExtraction(t *testing.T) {
	f := newFixture(t, Options{})
	dec, err := f.dec.Decompose(workload.CrossVocabularyQuery(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Fragments) != 2 {
		t.Fatalf("fragments = %d, want 2: %+v", len(dec.Fragments), dec.Fragments)
	}
	if len(dec.Datasets()) < 2 {
		t.Fatalf("decomposition spans %v, want more than one data set", dec.Datasets())
	}
	first, second := dec.Fragments[0], dec.Fragments[1]
	if !first.Exclusive || !second.Exclusive {
		t.Fatalf("fragments not exclusive: %+v", dec.Fragments)
	}
	if len(first.Targets) != 1 || first.Targets[0].Dataset != workload.SotonVoidURI {
		t.Fatalf("first fragment targets = %+v, want southampton", first.Targets)
	}
	if len(first.patterns) != 2 {
		t.Fatalf("southampton group has %d patterns, want 2: %v", len(first.patterns), first.patterns)
	}
	if len(second.Targets) != 1 || second.Targets[0].Dataset != workload.MetricsVoidURI {
		t.Fatalf("second fragment targets = %+v, want metrics", second.Targets)
	}
	if len(second.JoinVars) != 1 || second.JoinVars[0] != "paper" {
		t.Fatalf("join vars = %v, want [paper]", second.JoinVars)
	}
	if first.EstCard <= 0 || second.EstCard <= 0 {
		t.Fatalf("cardinalities not estimated: %d %d", first.EstCard, second.EstCard)
	}
	// The bound-author group estimates below the metrics extent, so it
	// runs first.
	if first.EstCard >= second.EstCard {
		t.Fatalf("join order not cheapest-first: %d then %d", first.EstCard, second.EstCard)
	}
	if len(dec.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", dec.Warnings)
	}
	st := f.dec.Stats()
	if st.Decompositions != 1 || st.ExclusiveGroups != 2 || st.SharedFragments != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBoundJoinValuesRoundTrip is the engine's correctness pin: the
// decomposed execution returns exactly the local join of both stores, the
// metrics endpoint receives a VALUES-bound sub-query (never the AKT
// patterns), and Southampton never sees the metrics vocabulary.
func TestBoundJoinValuesRoundTrip(t *testing.T) {
	f := newFixture(t, Options{})
	query := workload.CrossVocabularyQuery(1)
	got, r := f.run(t, query)
	want := f.groundTruth(t, query)
	if len(got) == 0 {
		t.Fatal("decomposed query returned nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("decomposed = %d solutions, local join = %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("solution %d: got %v, want %v", i, got[i], want[i])
		}
	}

	sotonQs := f.client.queriesFor(sotonURL)
	metricsQs := f.client.queriesFor(metricsURL)
	if len(sotonQs) == 0 || len(metricsQs) == 0 {
		t.Fatalf("round trips: soton=%d metrics=%d", len(sotonQs), len(metricsQs))
	}
	for _, q := range sotonQs {
		if strings.Contains(q, workload.MetricsCitationCount) {
			t.Fatalf("southampton received the metrics pattern:\n%s", q)
		}
	}
	for _, q := range metricsQs {
		if strings.Contains(q, rdf.AKTHasAuthor) {
			t.Fatalf("metrics received the AKT pattern:\n%s", q)
		}
		if !strings.Contains(q, "VALUES") {
			t.Fatalf("metrics sub-query not VALUES-bound:\n%s", q)
		}
	}
	if len(f.client.queriesFor(dbpURL)) != 0 || len(f.client.queriesFor(ecsURL)) != 0 {
		t.Fatal("irrelevant endpoints were queried")
	}

	res, _ := r.Summary()
	if res.Partial {
		t.Fatalf("clean run marked partial: %+v", res.PerDataset)
	}
	if len(res.PerDataset) < 2 {
		t.Fatalf("per-dataset answers = %+v", res.PerDataset)
	}
	st := f.engine.Stats()
	if st.Runs != 1 || st.BoundJoinStages != 1 || st.ValuesRows == 0 || st.SolutionsTransferred == 0 {
		t.Fatalf("engine stats = %+v", st)
	}
}

// TestValuesSharding: a bind batch smaller than the binding set splits
// the bound stage into several VALUES shards whose union is still the
// exact join.
func TestValuesSharding(t *testing.T) {
	f := newFixture(t, Options{BindBatch: 2})
	// Unselective seed: all papers of the universe bind ?paper.
	query := fmt.Sprintf(`PREFIX akt:<%s>
PREFIX m:<%s>
SELECT ?paper ?c WHERE {
  ?paper akt:has-title ?ti .
  ?paper m:citationCount ?c .
}`, rdf.AKTNS, workload.MetricsNS)
	got, _ := f.run(t, query)
	want := f.groundTruth(t, query)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("sharded bound join: got %d, want %d", len(got), len(want))
	}
	metricsQs := f.client.queriesFor(metricsURL)
	if len(metricsQs) < 2 {
		t.Fatalf("metrics round trips = %d, want several VALUES shards", len(metricsQs))
	}
	for _, q := range metricsQs {
		if !strings.Contains(q, "VALUES") {
			t.Fatalf("shard without VALUES:\n%s", q)
		}
	}
}

// TestValuesShardingRespectsMaxShards: a whole fragment's VALUES block is
// cut into ValuesBatch-row batches, but into no more than MaxShards
// shards, each dispatched to the cover as its own numbered sub-query; a
// ValuesBatch of -1 leaves it whole.
func TestValuesShardingRespectsMaxShards(t *testing.T) {
	f := newFixture(t, Options{})
	plnr := plan.New(f.kb, align.NewKB(), nil, nil, plan.Options{})
	f.dec = New(plnr, Options{ValuesBatch: 1, MaxShards: 2})
	var sb strings.Builder
	sb.WriteString("PREFIX akt:<" + rdf.AKTNS + ">\nSELECT ?a WHERE { VALUES ?p {")
	for i := 0; i < 9; i++ {
		sb.WriteString(" <" + workload.SotonPaper(i).Value + ">")
	}
	sb.WriteString(" } ?p akt:has-author ?a }")
	dec, err := f.dec.Decompose(sb.String(), "")
	if err != nil {
		t.Fatal(err)
	}
	whole := dec.Whole()
	if whole == nil || len(whole.Shards) != 2 {
		t.Fatalf("decomposition = %+v, want one whole fragment in 2 shards (capped)", dec.Fragments)
	}
	req := request(dec, whole, nil)
	for i, target := range req.Targets {
		if target.Query != whole.Shards[i] || target.Shard != i+1 || target.Shards != 2 {
			t.Fatalf("target %d = %+v, want shard %d/2", i, target, i+1)
		}
	}
	if len(req.Targets) != 2 {
		t.Fatalf("sub-queries = %d, want 2 shards to the one covering data set", len(req.Targets))
	}
	dec, err = New(plnr, Options{ValuesBatch: -1}).Decompose(sb.String(), "")
	if err != nil || dec.Whole() == nil || dec.Whole().Shards != nil {
		t.Fatalf("ValuesBatch -1: %v, %+v, want one unsharded whole fragment", err, dec)
	}
}

// TestHashFallback: bindings beyond MaxBindRows switch the stage to an
// unbound fetch hash-joined at the mediator — same answers, one
// VALUES-free round trip.
func TestHashFallback(t *testing.T) {
	f := newFixture(t, Options{MaxBindRows: -1})
	query := workload.CrossVocabularyQuery(1)
	got, _ := f.run(t, query)
	want := f.groundTruth(t, query)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("hash fallback: got %d, want %d", len(got), len(want))
	}
	metricsQs := f.client.queriesFor(metricsURL)
	if len(metricsQs) != 1 {
		t.Fatalf("metrics round trips = %d, want 1 unbound fetch", len(metricsQs))
	}
	if strings.Contains(metricsQs[0], "VALUES") {
		t.Fatalf("fallback fetch still VALUES-bound:\n%s", metricsQs[0])
	}
	if st := f.engine.Stats(); st.HashJoinStages != 1 || st.BoundJoinStages != 0 {
		t.Fatalf("engine stats = %+v", st)
	}
}

// TestLeftOperandSeedsFirstFragment: a left operand handed to Plan joins
// ahead of fragment 0 and seeds it as a bound join, the way a DESCRIBE
// joins its resources with the description fetch.
func TestLeftOperandSeedsFirstFragment(t *testing.T) {
	f := newFixture(t, Options{})
	dec, err := f.dec.Decompose(fmt.Sprintf("PREFIX m:<%s>\nSELECT ?paper ?c WHERE { ?paper m:citationCount ?c }",
		workload.MetricsNS), "")
	if err != nil {
		t.Fatal(err)
	}
	papers := &algebra.Table{Vars: []string{"paper"}, Rows: [][]rdf.Term{{workload.SotonPaper(3)}, {workload.SotonPaper(5)}}}
	got, err := solutions(context.Background(), f.engine.Plan(dec, papers, 0).Op, dec.Vars)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("joined %v, want the two papers' counts", got)
	}
	if qs := f.client.queriesFor(metricsURL); len(qs) != 1 || !strings.Contains(qs[0], "VALUES") {
		t.Fatalf("metrics received %q, want one VALUES-bound fetch", qs)
	}
	if st := f.engine.Stats(); st.BoundJoinStages != 1 || st.ValuesRows != 2 {
		t.Fatalf("engine stats = %+v, want one bound stage shipping two rows", st)
	}
}

// TestEmptyFragmentEarlyExit: when the seed fragment produces no
// bindings the join is empty and the remaining fragments are never
// dispatched.
func TestEmptyFragmentEarlyExit(t *testing.T) {
	f := newFixture(t, Options{})
	// A bound author URI in Southampton's URI space that no paper has.
	query := fmt.Sprintf(`PREFIX akt:<%s>
PREFIX m:<%s>
SELECT ?paper ?c WHERE {
  ?paper akt:has-author <%sperson-99999> .
  ?paper m:citationCount ?c .
}`, rdf.AKTNS, workload.MetricsNS, workload.SotonIDSpace)
	got, r := f.run(t, query)
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %d", len(got))
	}
	if n := len(f.client.queriesFor(metricsURL)); n != 0 {
		t.Fatalf("metrics dispatched %d times after an empty seed fragment", n)
	}
	if res, _ := r.Summary(); res.Partial {
		t.Fatal("empty join marked partial")
	}
}

// TestCancellationMidJoin: cancelling the run's context while the second
// fragment is in flight unblocks the consumer promptly and tears the
// sub-query down.
func TestCancellationMidJoin(t *testing.T) {
	f := newFixture(t, Options{})
	f.client.mu.Lock()
	f.client.gate[metricsURL] = true
	f.client.mu.Unlock()

	dec, err := f.dec.Decompose(workload.CrossVocabularyQuery(1), "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := f.engine.Plan(dec, nil, 0)
	done := make(chan int, 1)
	go func() {
		sols, _ := solutions(ctx, r.Op, dec.Vars)
		done <- len(sols)
	}()
	// Wait until the gated endpoint has the sub-query in flight, then
	// cancel mid-join.
	waitFor(t, func() bool { return len(f.client.queriesFor(metricsURL)) > 0 })
	cancel()
	if n := <-done; n != 0 {
		t.Fatalf("gated join yielded %d solutions", n)
	}
	res, _ := r.Summary()
	if !res.Partial {
		t.Fatalf("cancelled join not reported partial: %+v", res.PerDataset)
	}
}

// TestLimitStopsUpstream: a LIMIT on the decomposed path ends the stream
// after the requested rows.
func TestLimitStopsUpstream(t *testing.T) {
	f := newFixture(t, Options{})
	query := fmt.Sprintf(`PREFIX akt:<%s>
PREFIX m:<%s>
SELECT ?paper ?c WHERE {
  ?paper akt:has-title ?ti .
  ?paper m:citationCount ?c .
} LIMIT 3`, rdf.AKTNS, workload.MetricsNS)
	got, _ := f.run(t, query)
	if len(got) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(got))
	}
}

// TestRejectsUnsupportedShapes: shapes the join engine cannot decompose
// soundly are refused (the caller stays on the whole-query path).
func TestRejectsUnsupportedShapes(t *testing.T) {
	f := newFixture(t, Options{})
	for _, q := range []string{
		"SELECT ?s WHERE { OPTIONAL { ?s <http://p.example/x> ?o } }",
		"ASK { ?s ?p ?o }",
		// A pattern no registered data set can answer.
		"SELECT ?s WHERE { ?s <http://nowhere.example/ont#p> ?o }",
	} {
		if _, err := f.dec.Decompose(q, ""); err == nil {
			t.Fatalf("decomposed unsupported query:\n%s", q)
		}
	}
	if st := f.dec.Stats(); st.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", st.Rejected)
	}
}

// TestResidualFilterAcrossFragments: a FILTER whose variables span
// fragments is evaluated at the mediator; one local to a fragment is
// pushed into its sub-query.
func TestResidualFilterAcrossFragments(t *testing.T) {
	f := newFixture(t, Options{})
	query := fmt.Sprintf(`PREFIX akt:<%s>
PREFIX m:<%s>
SELECT ?paper ?a ?c WHERE {
  ?paper akt:has-author <%s> .
  ?paper akt:has-author ?a .
  ?paper m:citationCount ?c .
  FILTER (?c > 50)
  FILTER (!(?a = <%s>))
}`, rdf.AKTNS, workload.MetricsNS, workload.SotonPerson(1).Value, workload.SotonPerson(1).Value)
	dec, err := f.dec.Decompose(query, "")
	if err != nil {
		t.Fatal(err)
	}
	// Both filters are single-fragment, so both push down.
	pushed := 0
	for _, fr := range dec.Fragments {
		pushed += len(fr.Filters)
	}
	if pushed != 2 || len(dec.ResidualFilters) != 0 {
		t.Fatalf("pushed=%d residual=%v", pushed, dec.ResidualFilters)
	}
	got, _ := f.run(t, query)
	want := f.groundTruth(t, query)
	if len(got) != len(want) {
		t.Fatalf("filtered join: got %d, want %d", len(got), len(want))
	}
	for _, sol := range got {
		if c, ok := sol["c"].Int(); !ok || c <= 50 {
			t.Fatalf("filter not applied: %v", sol)
		}
	}
}

// capturingDispatcher records every federate request it forwards.
type capturingDispatcher struct {
	exec *federate.Executor
	mu   sync.Mutex
	reqs []federate.Request
}

func (c *capturingDispatcher) Select(ctx context.Context, req federate.Request) federate.Fanout {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	return c.exec.Select(ctx, req)
}

// TestRewriteFragmentUsesPatternVocabulary: a fragment whose patterns
// are written in a vocabulary its data set does not declare is rewritten
// for that data set alone, through the alignment from the pattern's own
// vocabulary that made the data set a candidate, in a query whose other
// patterns use a third vocabulary. The bound shard's shape is rewritten
// once, then served from the rewrite-plan cache.
func TestRewriteFragmentUsesPatternVocabulary(t *testing.T) {
	const (
		v1   = "http://v1.example/ont#"
		v2   = "http://v2.example/ont#"
		v3   = "http://v3.example/ont#"
		aURL = "http://va.test/sparql"
		cURL = "http://vc.test/sparql"
		cURI = "http://vc.example/void"
	)
	// C's triple is about y, which lies in C's URI space.
	x := rdf.NewIRI("http://va.example/id/x")
	y := rdf.NewIRI("http://vc.example/id/y")
	client := newStoreClient()
	sa, sc := store.New(), store.New()
	sa.Add(rdf.Triple{S: x, P: rdf.NewIRI(v1 + "p"), O: y})
	// Endpoint C speaks v3: the v2 pattern only matches after rewriting.
	sc.Add(rdf.Triple{S: y, P: rdf.NewIRI(v3 + "q"), O: rdf.NewLiteral("z")})
	client.stores[aURL] = sa
	client.stores[cURL] = sc

	kb := voidkb.NewKB()
	if err := kb.Add(&voidkb.Dataset{URI: "http://va.example/void", SPARQLEndpoint: aURL,
		URISpace: `http://va\.example/id/\S*`, Vocabularies: []string{v1}, Triples: 1}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Add(&voidkb.Dataset{URI: cURI, SPARQLEndpoint: cURL,
		URISpace: `http://vc\.example/id/\S*`, Vocabularies: []string{v3}, Triples: 10}); err != nil {
		t.Fatal(err)
	}
	v2to3 := align.PropertyAlignment("http://align.example/v2to3#q", v2+"q", v3+"q")
	alignKB := align.NewKB()
	if err := alignKB.Add(&align.OntologyAlignment{
		URI:              "http://align.example/v2to3",
		SourceOntologies: []string{v2},
		TargetOntologies: []string{v3},
		TargetDatasets:   []string{cURI},
		Alignments:       []*align.EntityAlignment{v2to3},
	}); err != nil {
		t.Fatal(err)
	}

	var rwMu sync.Mutex
	var rewritten []string
	rw := core.New([]*align.EntityAlignment{v2to3}, nil)
	rewrite := func(q *sparql.Query, lifted int, dataset string) (*core.Template, error) {
		rwMu.Lock()
		rewritten = append(rewritten, dataset)
		rwMu.Unlock()
		return rw.RewriteShape(q, lifted)
	}
	exec := federate.NewExecutor(client, rewrite, nil, federate.Options{MaxRetries: -1})
	disp := &capturingDispatcher{exec: exec}
	plnr := plan.New(kb, alignKB, nil, nil, plan.Options{})
	dcm := New(plnr, Options{})
	engine := NewEngine(disp, nil, Options{})

	query := fmt.Sprintf("SELECT ?x ?y ?z WHERE { ?x <%sp> ?y . ?y <%sq> ?z . }", v1, v2)
	dec, err := dcm.Decompose(query, "")
	if err != nil {
		t.Fatal(err)
	}
	var frag2 *Fragment
	for _, f := range dec.Fragments {
		if len(f.Targets) == 1 && f.Targets[0].Dataset == cURI {
			frag2 = f
		}
	}
	if frag2 == nil || !frag2.Targets[0].NeedsRewrite {
		t.Fatalf("v2 fragment not marked for rewriting: %+v", frag2)
	}
	// Twice: the bound shard's shape (one VALUES row, its IRI lifted) is
	// rewritten once, then served from the plan cache.
	for run := 0; run < 2; run++ {
		sols, err := solutions(context.Background(), engine.Plan(dec, nil, 0).Op, dec.Vars)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 1 || sols[0]["z"].Value != "z" {
			t.Fatalf("cross-ontology rewrite join = %v, want one row binding ?z", sols)
		}
	}
	if st := exec.Stats(); st.CacheEntries != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("plan cache after two runs = %d entries, %d misses, %d hits; want the shard's shape cached once and hit once",
			st.CacheEntries, st.CacheMisses, st.CacheHits)
	}
	rwMu.Lock()
	defer rwMu.Unlock()
	if len(rewritten) == 0 {
		t.Fatal("rewriter never invoked")
	}
	for _, ds := range rewritten {
		if ds != cURI {
			t.Fatalf("rewritten for %s, want only %s", ds, cURI)
		}
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestBoundJoinAcrossURISpaces pins the owner lookup on a bound join: the
// seed fragment binds ?p to an entity whose canonical representative lives
// in endpoint A's URI space, while endpoint B stores the same entity under
// its own URI. B must receive that URI and no spelling of A's, however
// many of them sort ahead of it (a hub entity's class once lost B's
// spelling past a four-alias cap), and the canonicalising merge must line
// the join keys up.
func TestBoundJoinAcrossURISpaces(t *testing.T) {
	const (
		aURL  = "http://a.test/sparql"
		bURL  = "http://b.test/sparql"
		aNS   = "http://a.example/ont#"
		bNS   = "http://b.example/ont#"
		aURI  = "http://a.example/id/p1" // lexicographically smallest: the representative
		bURI  = "http://b.example/id/p1"
		title = aNS + "title"
		count = bNS + "count"
	)
	for name, aliases := range map[string]int{"one alias": 0, "hub": 4} {
		t.Run(name, func(t *testing.T) {
			client := newStoreClient()
			sa, sb := store.New(), store.New()
			sa.Add(rdf.Triple{S: rdf.NewIRI(aURI), P: rdf.NewIRI(title), O: rdf.NewLiteral("t")})
			sb.Add(rdf.Triple{S: rdf.NewIRI(bURI), P: rdf.NewIRI(count), O: rdf.NewTypedLiteral("5", rdf.XSDInteger)})
			client.stores[aURL] = sa
			client.stores[bURL] = sb

			kb := voidkb.NewKB()
			if err := kb.Add(&voidkb.Dataset{URI: "http://a.example/void", SPARQLEndpoint: aURL,
				URISpace: `http://a\.example/id/\S*`, Vocabularies: []string{aNS}, Triples: 1}); err != nil {
				t.Fatal(err)
			}
			if err := kb.Add(&voidkb.Dataset{URI: "http://b.example/void", SPARQLEndpoint: bURL,
				URISpace: `http://b\.example/id/\S*`, Vocabularies: []string{bNS}, Triples: 10}); err != nil {
				t.Fatal(err)
			}
			cs := coref.NewStore()
			cs.Add(aURI, bURI)
			for i := range aliases { // A's spellings, all sorting ahead of B's
				cs.Add(aURI, fmt.Sprintf("%s-alias%d", aURI, i))
			}
			if n := len(cs.Equivalents(aURI)); n != 2+aliases {
				t.Fatalf("class of %d members, want %d", n, 2+aliases)
			}

			plnr := plan.New(kb, align.NewKB(), cs, nil, plan.Options{})
			exec := federate.NewExecutor(client, nil, cs, federate.Options{MaxRetries: -1})
			dcm := New(plnr, Options{})
			engine := NewEngine(exec, cs, Options{})

			query := fmt.Sprintf("SELECT ?p ?t ?c WHERE { ?p <%s> ?t . ?p <%s> ?c . }", title, count)
			dec, err := dcm.Decompose(query, "")
			if err != nil {
				t.Fatal(err)
			}
			sols, err := solutions(context.Background(), engine.Plan(dec, nil, 0).Op, dec.Vars)
			if err != nil {
				t.Fatal(err)
			}
			if len(sols) != 1 {
				t.Fatalf("cross-URI-space bound join returned %d solutions, want 1", len(sols))
			}
			if got := sols[0]["p"].Value; got != aURI {
				t.Fatalf("join key not canonicalised: ?p = %s", got)
			}
			bQs := client.queriesFor(bURL)
			if len(bQs) != 1 || !strings.Contains(bQs[0], bURI) || strings.Contains(bQs[0], "a.example/id/") {
				t.Fatalf("endpoint B received %v, want its own spelling and none of A's", bQs)
			}
			if st := engine.Stats(); st.ValuesRows != 1 {
				t.Fatalf("%d VALUES rows shipped, want B's one", st.ValuesRows)
			}
		})
	}
}

// scribbled is a fragment leaf that hands the plan each row in a buffer
// of its own and overwrites it as soon as the yield returns — the hard
// form of "a yielded row is valid only during its yield".
type scribbled struct{ eval.Remote }

func (s scribbled) Fetch(ctx context.Context, seed *eval.Seed, yield func(eval.Row) bool) error {
	return s.Remote.Fetch(ctx, seed, func(row eval.Row) bool {
		own := append(eval.Row(nil), row...)
		more := yield(own)
		for i := range own {
			own[i] = rdf.NewLiteral("scribbled over")
		}
		return more
	})
}

// TestJoinStageRetainsCopies extends eval.TestRetainedRowsAreCopies to
// the plan of a decomposition: the left rows a join stage buckets (and
// ships as VALUES) and the rows the final DISTINCT keys on must be the
// plan's own copies, since the fragment leaves reuse the row they yield.
// In both join strategies.
func TestJoinStageRetainsCopies(t *testing.T) {
	for name, opts := range map[string]Options{"bound": {}, "hash": {MaxBindRows: -1}} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, opts)
			query := strings.Replace(workload.CrossVocabularyQuery(1), "SELECT", "SELECT DISTINCT", 1)
			d, err := f.dec.Decompose(query, "")
			if err != nil || len(d.Fragments) != 2 {
				t.Fatalf("decomposition = %+v, %v", d, err)
			}
			p := f.engine.Plan(d, nil, 0)
			if n := scribbleLeaves(p.Op); n != 2 {
				t.Fatalf("the plan has %d remote leaves, want one a fragment", n)
			}
			got, err := solutions(context.Background(), p.Op, d.Vars)
			if err != nil {
				t.Fatal(err)
			}
			if want := f.groundTruth(t, query); len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("joined over row-reusing leaves = %v\nwant %v", got, want)
			}
			if st := f.engine.Stats(); (st.HashJoinStages > 0) != (name == "hash") {
				t.Fatalf("engine stats = %+v, want the %s strategy", st, name)
			}
		})
	}
}

// scribbleLeaves wraps every remote leaf of a plan in scribbled and
// returns how many there were.
func scribbleLeaves(op algebra.Op) int {
	switch o := op.(type) {
	case *algebra.Remote:
		o.Source = scribbled{o.Source.(eval.Remote)}
		return 1
	case *algebra.Join:
		return scribbleLeaves(o.L) + scribbleLeaves(o.R)
	case *algebra.LeftJoin:
		return scribbleLeaves(o.L) + scribbleLeaves(o.R)
	case *algebra.Union:
		return scribbleLeaves(o.L) + scribbleLeaves(o.R)
	case *algebra.Filter:
		return scribbleLeaves(o.Input)
	case *algebra.Project:
		return scribbleLeaves(o.Input)
	case *algebra.Distinct:
		return scribbleLeaves(o.Input)
	case *algebra.Reduced:
		return scribbleLeaves(o.Input)
	case *algebra.OrderBy:
		return scribbleLeaves(o.Input)
	case *algebra.Slice:
		return scribbleLeaves(o.Input)
	}
	return 0
}

// heldDispatcher holds the first request it forwards until release is
// closed, announcing it on held.
type heldDispatcher struct {
	exec          *federate.Executor
	once          sync.Once
	held, release chan struct{}
}

func (h *heldDispatcher) Select(ctx context.Context, req federate.Request) federate.Fanout {
	h.once.Do(func() {
		close(h.held)
		<-h.release
	})
	return h.exec.Select(ctx, req)
}

// TestCardObservationRacingInvalidationDropped: the seed fragment's fetch
// is held while the voiD hook invalidates its data set; the actual it
// then brings back was taken against the old data, so the store records
// no cell for it — while the q-error histogram still counts the sample,
// and an unraced run of the same plan does record the cell.
func TestCardObservationRacingInvalidationDropped(t *testing.T) {
	reg := obs.NewRegistry()
	cards := obs.NewCardStore(obs.CardStoreOptions{Registry: reg})
	f := newFixture(t, Options{Cards: cards})
	disp := &heldDispatcher{exec: f.exec, held: make(chan struct{}), release: make(chan struct{})}
	engine := NewEngine(disp, nil, Options{Cards: cards})
	dec, err := f.dec.Decompose(workload.CrossVocabularyQuery(1), "")
	if err != nil {
		t.Fatal(err)
	}
	seed := dec.Fragments[0]
	ds := seed.Targets[0].Dataset
	run := func() error {
		_, err := solutions(context.Background(), engine.Plan(dec, nil, 0).Op, dec.Vars)
		return err
	}

	done := make(chan error, 1)
	go func() { done <- run() }()
	<-disp.held
	cards.Invalidate(ds)
	close(disp.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if card, _, ok := cards.Lookup(ds, seed.statTerm, seed.statShape); ok {
		t.Fatalf("observation that raced an invalidation was stored: card %v", card)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `sparqlrw_estimate_qerror_count{dataset="`+ds+`"} 1`) {
		t.Fatalf("the raced fetch's q-error sample is missing:\n%s", out.String())
	}

	if err := run(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cards.Lookup(ds, seed.statTerm, seed.statShape); !ok {
		t.Fatal("an unraced fetch recorded no cell")
	}
}

// TestFragmentBGPRejectsNonCoverableShapes: only a plain BGP — a group's
// patterns without a FILTER, or a whole fragment whose query has nothing
// but triple patterns — is a shape a materialized view answers.
func TestFragmentBGPRejectsNonCoverableShapes(t *testing.T) {
	for _, text := range []string{
		`SELECT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } }`,
		`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?v } }`,
		`SELECT ?s WHERE { VALUES ?s { <http://e/s> } ?s ?p ?o }`,
		`SELECT ?s WHERE { { ?s ?p ?o } }`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER (?o > 3) ?s ?q 1 }`,
	} {
		if got := (&Fragment{Query: sparql.MustParse(text)}).BGP(); got != nil {
			t.Errorf("BGP of %s = %v, want none", text, got)
		}
	}
	whole := &Fragment{Query: sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o . ?s ?q 1 }`)}
	patterns := whole.BGP()
	if len(patterns) != 2 {
		t.Errorf("BGP of a plain BGP = %v, want its two patterns", patterns)
	}
	if got := (&Fragment{patterns: patterns[:1]}).BGP(); len(got) != 1 {
		t.Errorf("BGP of a group = %v, want its pattern", got)
	}
	flt := sparql.MustParse(`SELECT ?s WHERE { ?s ?p ?o FILTER (?o > 3) }`).Where.Elements[1].(*sparql.Filter)
	filtered := &Fragment{patterns: patterns[:1], filters: []sparql.Expression{flt.Expr}}
	if got := filtered.BGP(); got != nil {
		t.Errorf("BGP of a filtered group = %v, want none", got)
	}
}

// seededTable is an in-process leaf over fixed rows that records the seed
// it is handed and yields every row, which the join above must cut to the
// matching ones.
type seededTable struct {
	rows eval.RowBuf
	seed *eval.Seed
}

func (s *seededTable) Fetch(_ context.Context, seed *eval.Seed, yield func(eval.Row) bool) (int, error) {
	s.seed = seed
	for i := range s.rows.N {
		if !yield(s.rows.Row(i)) {
			return i + 1, nil
		}
	}
	return s.rows.N, nil
}

// TestFragmentAnsweredInProcess: a fragment handed to an in-process leaf
// (AnswerFrom) dispatches nothing and marshals as a view leaf. The plan
// hands the leaf the bound join's seed and joins the rows it yields —
// here over the columns in another order than the fragment's — to the
// answer the endpoints give.
func TestFragmentAnsweredInProcess(t *testing.T) {
	f := newFixture(t, Options{})
	query := workload.CrossVocabularyQuery(1)
	dec, err := f.dec.Decompose(query, "")
	if err != nil {
		t.Fatal(err)
	}
	last := dec.Fragments[len(dec.Fragments)-1]
	if len(last.Targets) != 1 || last.Targets[0].Dataset != workload.MetricsVoidURI || last.BGP() == nil {
		t.Fatalf("last fragment %+v, want the metrics group", last)
	}
	leaf := &seededTable{rows: eval.RowBuf{Width: 2}}
	metrics := workload.MetricsStore(f.u)
	metrics.Match(rdf.Triple{P: rdf.NewIRI(workload.MetricsCitationCount)}, func(tr rdf.Triple) bool {
		leaf.rows.Append(eval.Row{tr.O, tr.S})
		return true
	})
	dec.AnswerFrom(len(dec.Fragments)-1, "v1", []string{"c", "paper"}, leaf)
	explained, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(explained), `"leaf":"endpoints"`); n != len(dec.Fragments)-1 ||
		!strings.Contains(string(explained), `"leaf":"view","exclusive":true,"targets":[{"dataset":"`+workload.MetricsVoidURI) ||
		!strings.Contains(string(explained), `"view":"v1"`) {
		t.Fatalf("explained %s, want the last fragment's leaf view v1, the others' endpoints", explained)
	}
	p := f.engine.Plan(dec, nil, 0)
	got, err := solutions(context.Background(), p.Op, dec.Vars)
	if err != nil {
		t.Fatal(err)
	}
	want := f.groundTruth(t, query)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("in-process fragment joined %d rows, the local join %d:\n%v\n%v", len(got), len(want), got, want)
	}
	if leaf.seed == nil || !slices.Equal(leaf.seed.Vars, []string{"paper"}) || leaf.seed.Keys.N == 0 {
		t.Errorf("leaf seed %+v, want the left side's ?paper keys", leaf.seed)
	}
	if q := f.client.queriesFor(metricsURL); len(q) != 0 {
		t.Errorf("the metrics endpoint received %d sub-queries, want none", len(q))
	}
	if sum, _ := p.Summary(); sum.PerDataset[len(sum.PerDataset)-1].Dataset != "view:v1" {
		t.Errorf("summary %+v, want the view's rows last, under view:v1", sum.PerDataset)
	}
}
