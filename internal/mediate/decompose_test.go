package mediate

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
	"strings"
	"sync"
	"testing"

	"sparqlrw/internal/align"
	"sparqlrw/internal/decompose"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/store"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// recordingServer wraps a SPARQL endpoint, recording every query text it
// receives so tests can assert what each repository was actually asked.
func recordingServer(t *testing.T, name string, st *store.Store) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var queries []string
	h := endpoint.NewServer(name, st)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		text := tappedQuery(r)
		mu.Lock()
		queries = append(queries, text)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), queries...)
	}
}

// crossVocabStack wires the acceptance fixture: four endpoints where the
// AKT data (Southampton) and the citation metrics live in different
// vocabularies with no alignment between them — no single repository can
// answer a query spanning both, so Mediator.Query must decompose.
type crossVocabStack struct {
	u        *workload.Universe
	mediator *Mediator
	queries  map[string]func() []string
}

func newCrossVocabStack(t *testing.T) *crossVocabStack {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 30, 90
	u := workload.Generate(cfg)

	s := &crossVocabStack{u: u, queries: map[string]func() []string{}}
	soton, sotonQ := recordingServer(t, "southampton", u.Southampton)
	s.queries[workload.SotonVoidURI] = sotonQ
	metrics, metricsQ := recordingServer(t, "metrics", workload.MetricsStore(u))
	s.queries[workload.MetricsVoidURI] = metricsQ
	dbp, dbpQ := recordingServer(t, "dbpedia", store.New())
	s.queries[workload.DBPVoidURI] = dbpQ
	ecs, ecsQ := recordingServer(t, "ecs", store.New())
	s.queries[workload.ECSVoidURI] = ecsQ

	dsKB := voidkb.NewKB()
	for _, d := range []*voidkb.Dataset{
		{URI: workload.SotonVoidURI, Title: "Southampton RKB", SPARQLEndpoint: soton.URL,
			URISpace: workload.SotonURIPattern, Vocabularies: []string{rdf.AKTNS},
			Triples:            1000,
			PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: 400}},
		{URI: workload.MetricsVoidURI, Title: "Citation metrics", SPARQLEndpoint: metrics.URL,
			URISpace: workload.SotonURIPattern, Vocabularies: []string{workload.MetricsNS},
			Triples:            180,
			PropertyPartitions: map[string]int64{workload.MetricsCitationCount: 90}},
		{URI: workload.DBPVoidURI, Title: "DBpedia", SPARQLEndpoint: dbp.URL,
			URISpace: workload.DBPURIPattern, Vocabularies: []string{rdf.DBONS}},
		{URI: workload.ECSVoidURI, Title: "ECS", SPARQLEndpoint: ecs.URL,
			URISpace: workload.ECSURIPattern, Vocabularies: []string{rdf.ECSNS}},
	} {
		if err := dsKB.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	// Only the (irrelevant) ECS→DBpedia alignment is registered: nothing
	// reaches the metrics vocabulary, so decomposition is the only path.
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.ECS2DBpedia()); err != nil {
		t.Fatal(err)
	}
	m := New(dsKB, alignKB, nil)
	t.Cleanup(m.Close)
	s.mediator = m
	return s
}

// groundTruth joins both data sets locally.
func (s *crossVocabStack) groundTruth(t *testing.T, query string) []eval.Solution {
	t.Helper()
	merged := store.New()
	merged.AddGraph(s.u.Southampton.Triples())
	merged.AddGraph(workload.MetricsStore(s.u).Triples())
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

// TestQueryDecomposesAcrossVocabularies is the tentpole's acceptance
// test: a BGP whose patterns are answerable only by different
// repositories returns the correct joined result through Mediator.Query,
// without any endpoint ever receiving the full pattern.
func TestQueryDecomposesAcrossVocabularies(t *testing.T) {
	s := newCrossVocabStack(t)
	query := workload.CrossVocabularyQuery(2)

	res, err := s.mediator.Query(context.Background(), QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	qs := res.Bindings()
	dcm := qs.Decomposition()
	if dcm == nil || len(dcm.Decisions) == 0 {
		t.Fatal("decomposed query carries no plan")
	}
	if len(dcm.Datasets()) < 2 || len(dcm.Fragments) != 2 {
		t.Fatalf("decomposition = %+v", dcm)
	}
	var got []eval.Solution
	for sol, err := range qs.Solutions() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, sol)
	}
	eval.SortSolutions(got)
	want := s.groundTruth(t, query)
	if len(want) == 0 {
		t.Fatal("fixture ground truth is empty; pick another person index")
	}
	if len(got) != len(want) {
		t.Fatalf("decomposed join = %d solutions, local join = %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("solution %d: got %v, want %v", i, got[i], want[i])
		}
	}
	sum, err := qs.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Partial {
		t.Fatalf("clean decomposed run marked partial: %+v", sum.PerDataset)
	}

	// No endpoint saw the full pattern: Southampton never received the
	// metrics predicate, metrics never received an AKT predicate, and the
	// irrelevant endpoints received nothing.
	for _, q := range s.queries[workload.SotonVoidURI]() {
		if strings.Contains(q, workload.MetricsCitationCount) {
			t.Fatalf("southampton received the metrics pattern:\n%s", q)
		}
	}
	mQs := s.queries[workload.MetricsVoidURI]()
	if len(mQs) == 0 {
		t.Fatal("metrics endpoint never queried")
	}
	for _, q := range mQs {
		if strings.Contains(q, rdf.AKTHasAuthor) {
			t.Fatalf("metrics received the AKT pattern:\n%s", q)
		}
		if !strings.Contains(q, "VALUES") {
			t.Fatalf("metrics sub-query not bound:\n%s", q)
		}
	}
	if n := len(s.queries[workload.DBPVoidURI]()); n != 0 {
		t.Fatalf("pruned endpoint received %d queries", n)
	}

	// The buffered Collect convenience takes the same path.
	fr, err := federatedSelect(s.mediator, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Solutions) != len(want) {
		t.Fatalf("collected = %d solutions, want %d", len(fr.Solutions), len(want))
	}

	st := s.mediator.Stats().Decompose
	if st == nil || st.Decompositions == 0 || st.Engine.Runs == 0 || st.Engine.BoundJoinStages == 0 {
		t.Fatalf("decompose stats not recorded: %+v", st)
	}
}

// TestAPIQueryDecomposedExplain: /api/plan surfaces the decomposition
// (groups, cardinalities, join order), /sparql executes it, and
// /api/stats carries the decompose counters.
func TestAPIQueryDecomposedExplain(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()
	query := workload.CrossVocabularyQuery(3)

	// /api/plan explains without executing.
	body, _ := json.Marshal(apiQueryRequest{Query: query, Source: rdf.AKTNS})
	resp, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	explained, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ex decompose.Decomposition
	var patterns struct{ Fragments []struct{ Patterns []string } }
	if err := json.Unmarshal(explained, &ex); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(explained, &patterns); err != nil {
		t.Fatal(err)
	}
	if len(ex.Decisions) != 4 || ex.Whole() != nil {
		t.Fatalf("plan = %+v", ex)
	}
	if len(ex.Fragments) != 2 {
		t.Fatalf("decomposition missing from /api/plan: %+v", ex)
	}
	for k, f := range ex.Fragments {
		if f.EstCard <= 0 || len(patterns.Fragments[k].Patterns) == 0 || len(f.Targets) == 0 {
			t.Fatalf("fragment not explained: %s", explained)
		}
	}
	if jv := ex.Fragments[1].JoinVars; len(jv) != 1 || jv[0] != "paper" {
		t.Fatalf("join order not explained: %+v", ex.Fragments[1])
	}

	// A query that runs neither way is explained as the query path refuses
	// it: with the decomposer's reason, not as a plan with nothing to run.
	optional := strings.Replace(query, "?paper m:citationCount ?c .", "OPTIONAL { ?paper m:citationCount ?c }", 1)
	body, _ = json.Marshal(apiQueryRequest{Query: optional, Source: rdf.AKTNS})
	resp, err = http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "does not decompose") {
		t.Fatalf("/api/plan of an undecomposable query: %d %s", resp.StatusCode, raw)
	}

	// /sparql executes the decomposed query end to end.
	form := url.Values{"query": {query}}
	resp, err = http.PostForm(srv.URL+"/sparql", form)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	sres, _, err := srjson.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Solutions) == 0 {
		t.Fatal("no rows over the decomposed HTTP path")
	}

	// /api/stats exposes the decompose counters.
	sresp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Decompose == nil || st.Decompose.Decompositions == 0 || st.Decompose.Engine.Runs == 0 {
		t.Fatalf("decompose stats = %+v", st.Decompose)
	}
}

// TestAPIQueryNDJSON: Accept: application/x-ndjson streams one binding
// object per line, on both the single-source and the decomposed path.
func TestAPIQueryNDJSON(t *testing.T) {
	s := newCrossVocabStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	for name, query := range map[string]string{
		"single-source": workload.Figure1Query(2),
		"decomposed":    workload.CrossVocabularyQuery(2),
	} {
		form := url.Values{"query": {query}}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/sparql",
			strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: Content-Type = %q", name, ct)
		}
		rows := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var binding map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			}
			if err := json.Unmarshal(line, &binding); err != nil {
				t.Fatalf("%s: line %d not a binding object: %v\n%s", name, rows, err, line)
			}
			for v, term := range binding {
				if term.Type == "" || term.Value == "" {
					t.Fatalf("%s: malformed term for ?%s: %s", name, v, line)
				}
			}
			rows++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rows == 0 {
			t.Fatalf("%s: no NDJSON rows", name)
		}
	}
}

// joinSpans returns the attributes of a trace's "join" spans, in order.
func joinSpans(s obs.SpanJSON) []map[string]any {
	var out []map[string]any
	if s.Name == "join" {
		out = append(out, s.Attrs)
	}
	for _, c := range s.Children {
		out = append(out, joinSpans(c)...)
	}
	return out
}

// TestBoundJoinSpanRecordsShipping: each bound-join span records the
// VALUES rows it shipped, summed over its targets as the engine's counter
// is, and why it skipped a target: here KISTI, asked to describe a paper
// it does not mirror, holds none of the keys' spellings, while
// Southampton and the metrics each receive the paper's one spelling; and
// the cross-vocabulary query's authorship stage ships nothing, since both
// of its targets answered every key in stage 0's sub-query, which it
// travelled in.
func TestBoundJoinSpanRecordsShipping(t *testing.T) {
	u := exampleUniverse()
	paper := workload.SotonPaper(51)
	if len(u.Coref.Equivalents(paper.Value)) != 1 {
		t.Fatalf("KISTI mirrors %s", paper.Value)
	}
	m := federationOver(t, u, nil)
	const answered = "answered in stage 0's sub-query"
	var shipped int64
	for _, c := range []struct {
		query    string
		rows     []int64 // per join span
		skipped  int     // join spans skipping KISTI, which holds none of the keys' spellings
		answered int     // targets skipped as answered
	}{
		{"DESCRIBE <" + paper.Value + ">", []int64{2}, 1, 0},
		{workload.CrossVocabularyQuery(2), nil, 0, 2},
	} {
		res, err := m.Query(context.Background(), QueryRequest{Query: c.query})
		if err != nil {
			t.Fatal(err)
		}
		if res.Form() == sparql.Describe {
			_, err = res.Graph().Collect()
		} else {
			_, err = res.Bindings().Collect()
		}
		if err != nil {
			t.Fatal(err)
		}
		var rows []int64
		skipped, wasAnswered := 0, 0
		for _, attrs := range joinSpans(res.Trace().View().Root) {
			n, ok := attrs["valuesRows"].(int64)
			for k, why := range attrs {
				if strings.HasPrefix(k, "skipped ") && why == answered {
					wasAnswered++
				}
			}
			if !ok || n <= 0 && wasAnswered == 0 {
				t.Errorf("%s: join span records no VALUES rows: %v", c.query, attrs)
			}
			rows = append(rows, n)
			shipped += n
			if why, ok := attrs["skipped "+workload.KistiVoidURI]; ok && why != answered {
				skipped++
				if why != "holds none of the keys' spellings" {
					t.Errorf("%s: KISTI skipped because %q", c.query, why)
				}
			}
		}
		if len(rows) == 0 || c.rows != nil && !slices.Equal(rows, c.rows) || skipped != c.skipped || wasAnswered != c.answered {
			t.Errorf("%s: join spans shipped %v VALUES rows, skipped KISTI %d times and %d targets as answered, want %v, %d and %d",
				c.query, rows, skipped, wasAnswered, c.rows, c.skipped, c.answered)
		}
	}
	if got := m.Stats().Decompose.Engine.ValuesRows; got != uint64(shipped) {
		t.Errorf("the engine counted %d VALUES rows, the spans %d", got, shipped)
	}
}

// TestMaxBindRowsBoundsEachTarget: MaxBindRows bounds the VALUES rows any
// one target receives, not their sum. Describing a paper KISTI mirrors
// ships one spelling to each of the three data sets, three rows in all,
// and under a cap of two the stage stays a bound join.
func TestMaxBindRowsBoundsEachTarget(t *testing.T) {
	paper := workload.SotonPaper(1)
	m := exampleFederation(t, nil, WithDecomposer(decompose.Options{MaxBindRows: 2}))
	if len(m.Coref.Equivalents(paper.Value)) != 2 {
		t.Fatalf("KISTI does not mirror %s", paper.Value)
	}
	res, err := m.Query(context.Background(), QueryRequest{Query: "DESCRIBE <" + paper.Value + ">"})
	if err != nil {
		t.Fatal(err)
	}
	if g, err := res.Graph().Collect(); err != nil || len(g) == 0 {
		t.Fatalf("description = %v, %v", g, err)
	}
	if st := m.Stats().Decompose.Engine; st.BoundJoinStages != 1 || st.HashJoinStages != 0 || st.ValuesRows != 3 {
		t.Errorf("engine stats = %+v, want one bound join shipping a row to each of three targets", st)
	}
}

// TestGroupRewritesEveryForeignVocabulary: KISTI is reached from two
// vocabularies, AKT through its alignments and a bibliographic one
// through a second ontology alignment into KISTI. With Southampton out of
// the source set, KISTI alone answers the query's AKT and bibliographic
// patterns, so they form one exclusive group, joined with the metrics
// pattern. The group's sub-query must be rewritten through both
// alignments: KISTI receives neither foreign vocabulary, and the answer
// is the oracle's for the same query written with kisti:title.
func TestGroupRewritesEveryForeignVocabulary(t *testing.T) {
	const bib = "http://bib.example/ontology#"
	tap := &wireTap{seen: map[string][]string{}}
	m := exampleFederation(t, tap.wrap)
	if err := m.Alignments.Add(&align.OntologyAlignment{
		URI:              "http://bib.example/align/bib2kisti",
		SourceOntologies: []string{bib},
		TargetOntologies: []string{rdf.KISTINS},
		TargetDatasets:   []string{workload.KistiVoidURI},
		Alignments:       []*align.EntityAlignment{align.PropertyAlignment("http://bib.example/align/bib2kisti#title", bib+"title", rdf.KISTITitle)},
	}); err != nil {
		t.Fatal(err)
	}
	query := func(title string) string {
		return "PREFIX akt:<" + rdf.AKTNS + ">\nPREFIX m:<" + workload.MetricsNS + ">\n" +
			"SELECT ?paper ?t ?c WHERE { ?paper akt:has-author <" + workload.SotonPerson(2).Value + "> . " +
			"?paper <" + title + "> ?t . ?paper m:citationCount ?c }"
	}
	targets := []string{workload.KistiVoidURI, workload.MetricsVoidURI}
	text := query(bib + "title")

	res, err := m.Query(context.Background(), QueryRequest{Query: text, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var group *decompose.Fragment
	for _, f := range res.Decomposition().Fragments {
		if len(f.Targets) == 1 && f.Targets[0].Dataset == workload.KistiVoidURI {
			group = f
		}
	}
	if group == nil || !group.Exclusive || len(group.BGP()) != 2 || !group.Targets[0].NeedsRewrite {
		t.Fatalf("plan = %+v, want KISTI's rewritten group of the AKT and bibliographic patterns", res.Decomposition().Fragments)
	}
	fr, err := res.Bindings().Collect()
	if err != nil {
		t.Fatal(err)
	}
	var got [][]rdf.Term
	for _, sol := range fr.Solutions {
		got = append(got, []rdf.Term{sol["paper"], sol["t"], sol["c"]})
	}
	src := voidkb.Sources{workload.KistiVoidURI: true, workload.MetricsVoidURI: true}
	checkAgainstOracle(t, "two foreign vocabularies", text, got, newOracle(t, exampleUniverse(), src).answer(t, query(rdf.KISTITitle)))
	if len(tap.seen[workload.KistiVoidURI]) == 0 {
		t.Fatal("KISTI received no query")
	}
	for _, sent := range tap.seen[workload.KistiVoidURI] {
		if strings.Contains(sent, bib) || strings.Contains(sent, rdf.AKTNS) {
			t.Errorf("KISTI received a foreign vocabulary:\n%s", sent)
		}
	}
}
