package mediate

// Tests of the mediator's row lane as a whole: what a /sparql request
// costs per additional row, and that every stage which keeps rows past
// their iteration keeps copies.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/store"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// bulkQuery is the benchmark's bulk-stream query shape.
const bulkQuery = "PREFIX akt:<" + rdf.AKTNS + ">\n" +
	"SELECT ?paper ?a ?t WHERE { ?paper akt:has-author ?a . ?paper akt:has-title ?t }"

// discardResponse is a ResponseWriter that counts and drops the body.
type discardResponse struct {
	h http.Header
	n int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (*discardResponse) WriteHeader(int)               {}

// bulkMediator serves rows (paper, author, title) rows from two in-process
// AKT repositories, half each, the second half's people known to the
// first under other URIs (so the merge has representatives to find).
func bulkMediator(t testing.TB, rows int, opts ...Option) *Mediator {
	t.Helper()
	return bulkFederation(t, rows, nil, opts...)
}

// bulkFederation is bulkMediator with wrap, when not nil, around each
// repository's primary endpoint. Each repository is also served by a
// replica over the same store, which only hedged dispatch reaches.
func bulkFederation(t testing.TB, rows int, wrap func(http.Handler) http.Handler, opts ...Option) *Mediator {
	t.Helper()
	cs := coref.NewStore()
	kb := voidkb.NewKB()
	for half, name := range []string{"bulk-a", "bulk-b"} {
		st := store.New()
		for i := half * rows / 2; i < (half+1)*rows/2; i++ {
			paper := rdf.NewIRI(fmt.Sprintf("http://%s.example/id/paper-%05d", name, i))
			person := fmt.Sprintf("http://%s.example/id/person-%05d", name, i%40)
			cs.Add(person, fmt.Sprintf("http://bulk-a.example/id/person-%05d", i%40))
			st.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.AKTHasAuthor), rdf.NewIRI(person)))
			st.Add(rdf.NewTriple(paper, rdf.NewIRI(rdf.AKTHasTitle), rdf.NewLiteral(fmt.Sprintf("Paper Title %d", i))))
		}
		local := fmt.Sprintf("%s-%d-%s", name, rows, strings.ReplaceAll(t.Name(), "/", "-"))
		var h http.Handler = endpoint.NewServer(name, st)
		if wrap != nil {
			h = wrap(h)
		}
		replica := local + "-replica"
		endpoint.RegisterLocal(local, h)
		endpoint.RegisterLocal(replica, endpoint.NewServer(replica, st))
		t.Cleanup(func() {
			endpoint.UnregisterLocal(local)
			endpoint.UnregisterLocal(replica)
		})
		if err := kb.Add(&voidkb.Dataset{
			URI: "http://" + name + ".example/void", Title: name,
			SPARQLEndpoint: endpoint.LocalURL(local),
			Replicas:       []string{endpoint.LocalURL(replica)},
			URISpace:       "http://" + name + `\.example/id/.*`,
			Vocabularies:   []string{rdf.AKTNS},
		}); err != nil {
			t.Fatal(err)
		}
	}
	m := New(kb, align.NewKB(), cs, opts...)
	t.Cleanup(m.Close)
	return m
}

// bulkAnswer is the answer bulkMediator's federation of n rows gives
// bulkQuery, in paper order: every author as its representative, the
// first repository's spelling.
func bulkAnswer(n int) [][]rdf.Term {
	out := make([][]rdf.Term, n)
	for i := range out {
		name := "bulk-a"
		if i >= n/2 {
			name = "bulk-b"
		}
		out[i] = []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://%s.example/id/paper-%05d", name, i)),
			rdf.NewIRI(fmt.Sprintf("http://bulk-a.example/id/person-%05d", i%40)),
			rdf.NewLiteral(fmt.Sprintf("Paper Title %d", i)),
		}
	}
	return out
}

// sparqlRows sends query to h's /sparql and decodes the SRJ answer into
// rows over vars, in the order they came.
func sparqlRows(t *testing.T, h http.Handler, query string, vars ...string) [][]rdf.Term {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(query), nil))
	res, _, err := srjson.Decode(w.Body.Bytes())
	if w.Code != http.StatusOK || err != nil {
		t.Fatalf("/sparql: %d, %v\n%.300s", w.Code, err, w.Body.String())
	}
	rows := make([][]rdf.Term, len(res.Solutions))
	for i, sol := range res.Solutions {
		for _, v := range vars {
			rows[i] = append(rows[i], sol[v])
		}
	}
	return rows
}

// TestHandlerRowAllocations pins what one more row of a bulk-stream
// answer costs the whole process — both endpoints' evaluation and
// encoding, the pipes, decode, merge and the /sparql encoder — and that a
// result-cache replay costs nothing per row. The federated ceiling is the
// measured 0.058 (go1.24, linux/amd64) plus a little: 0.114 while every
// worker slab was new and the encoders wrote a row at a time.
func TestHandlerRowAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	target := "/sparql?query=" + url.QueryEscape(bulkQuery)
	allocs := func(rows int, opts ...Option) float64 {
		h := Handler(bulkMediator(t, rows, opts...))
		return testing.AllocsPerRun(10, func() {
			w := &discardResponse{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.n < 100*rows {
				t.Fatalf("%d-row answer is %d bytes", rows, w.n)
			}
		})
	}
	noCache := WithServing(serve.Options{CacheSize: -1})
	small, big := allocs(10, noCache), allocs(1000, noCache)
	if perRow := (big - small) / 990; perRow > 0.07 {
		t.Errorf("federated: %.3f allocations per additional row (%.0f for 10 rows, %.0f for 1000), want at most 0.07", perRow, small, big)
	}
	// AllocsPerRun's warm-up run fills the cache; the measured ones replay.
	cache := WithServing(serve.Options{})
	small, big = allocs(10, cache), allocs(1000, cache)
	if perRow := (big - small) / 990; perRow > 0.001 {
		t.Errorf("cache replay: %.3f allocations per additional row (%.0f for 10 rows, %.0f for 1000), want 0", perRow, small, big)
	}
}

// TestBulkAnswerOnEveryConsumer holds every consumer of a fan-out's rows
// to the row contract with a bulk answer — 1000 rows, so each worker's
// full-size slabs go back to it and are decoded over again while the
// answer streams: a consumer that kept a row past its yield would read
// later rows in it. The bound join's left side (every authorship of the
// example federation) is over a hundred rows, so its fan-out recycles
// slabs too.
func TestBulkAnswerOnEveryConsumer(t *testing.T) {
	const rows = 1000
	want := bulkAnswer(rows)
	vars := []string{"paper", "a", "t"}
	noCache := WithServing(serve.Options{CacheSize: -1})
	check := func(t *testing.T, what string, got [][]rdf.Term, ordered bool) {
		t.Helper()
		if !ordered {
			got = sortedRows(got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d rows, want the %d of the answer", what, len(got), len(want))
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: first difference at row %d: %v, want %v", what, i, got[i], want[i])
				}
			}
		}
	}
	t.Run("srj", func(t *testing.T) {
		h := Handler(bulkMediator(t, rows, noCache))
		check(t, "/sparql", sparqlRows(t, h, bulkQuery, vars...), false)
	})
	t.Run("result cache fill, then replay", func(t *testing.T) {
		m := bulkMediator(t, rows, WithServing(serve.Options{}))
		h := Handler(m)
		check(t, "the fill", sparqlRows(t, h, bulkQuery, vars...), false)
		check(t, "the replay", sparqlRows(t, h, bulkQuery, vars...), false)
		if hits := m.Serve.Cache.Metrics().Hits; hits != 1 {
			t.Errorf("%d cache hits, want the replay's", hits)
		}
	})
	t.Run("distinct", func(t *testing.T) {
		h := Handler(bulkMediator(t, rows, noCache))
		query := strings.Replace(bulkQuery, "SELECT", "SELECT DISTINCT", 1)
		check(t, "DISTINCT", sparqlRows(t, h, query, vars...), false)
	})
	t.Run("order by", func(t *testing.T) {
		h := Handler(bulkMediator(t, rows, noCache))
		check(t, "ORDER BY", sparqlRows(t, h, bulkQuery+" ORDER BY ?paper", vars...), true)
	})
	t.Run("hedged", func(t *testing.T) {
		// Each primary writes its blocks slowly, so the replica's hedge
		// streams into the same fan-out while the primary still does.
		slow := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(slowWriter{w}, r)
			})
		}
		m := bulkFederation(t, rows, slow, noCache,
			WithFederation(federate.Options{Hedge: true, HedgeMinDelay: 2 * time.Millisecond}))
		check(t, "hedged", sparqlRows(t, Handler(m), bulkQuery, vars...), false)
		if st := m.Stats().Federation; st.Hedges == 0 {
			t.Error("no dispatch was hedged")
		}
	})
	t.Run("bound join", func(t *testing.T) {
		u := exampleUniverse()
		if n := u.Southampton.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor)); n < 64 {
			t.Fatalf("%d authorships: too few for a full-size slab", n)
		}
		m := federationOver(t, u, nil, noCache)
		query := "PREFIX akt:<" + rdf.AKTNS + ">\nPREFIX m:<" + workload.MetricsNS + ">\n" +
			"SELECT ?paper ?a ?c WHERE { ?paper akt:has-author ?a . ?paper m:citationCount ?c }"
		got := sparqlRows(t, Handler(m), query, "paper", "a", "c")
		checkAgainstOracle(t, "bound join", query, got, newOracle(t, u, nil).answer(t, query))
		if st := m.JoinEngine.Stats(); st.BoundJoinStages == 0 {
			t.Errorf("engine stats = %+v, want a bound join", st)
		}
	})
}

// slowWriter pauses before each write: an endpoint that streams slowly.
type slowWriter struct{ http.ResponseWriter }

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return w.ResponseWriter.Write(p)
}

func (w slowWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// writeCounter counts the Write calls that reach the ResponseWriter it
// wraps; it flushes through.
type writeCounter struct {
	http.ResponseWriter
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseWriter.Write(p)
}

func (w *writeCounter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestSparqlAnswerIsWrittenInBlocks: over real net/http, a 1000-row
// /sparql answer reaches the ResponseWriter in one Write per flush point,
// not one per row: as SRJ, and as NDJSON, whose bytes are the lines
// srjson.AppendRow makes of the rows, one a row, as when each line took a
// Write of its own.
func TestSparqlAnswerIsWrittenInBlocks(t *testing.T) {
	const rows = 1000
	h := Handler(bulkMediator(t, rows, WithServing(serve.Options{CacheSize: -1})))
	writes := make(chan int, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &writeCounter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		writes <- cw.writes
	}))
	defer srv.Close()
	var lines []byte
	for _, row := range bulkAnswer(rows) {
		var err error
		if lines, err = srjson.AppendRow(lines, []string{"paper", "a", "t"}, row); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, '\n')
	}
	for _, accept := range []string{ctSRJ, ctNDJSON} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/sparql?query="+url.QueryEscape(bulkQuery+" ORDER BY ?paper"), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch accept {
		case ctNDJSON:
			if !bytes.Equal(body, lines) {
				t.Errorf("the NDJSON blocks make a different answer:\n%.300s\nwant\n%.300s", body, lines)
			}
		default:
			if res, _, err := srjson.Decode(body); err != nil || len(res.Solutions) != rows {
				t.Errorf("decoded %v, want %d rows", err, rows)
			}
		}
		if n, limit := <-writes, (rows+srjson.FlushEvery-1)/srjson.FlushEvery+3; n > limit {
			t.Errorf("%s: a %d-row answer took %d writes, want at most %d", accept, rows, n, limit)
		}
	}
}

// exampleUniverse is the generated data behind exampleFederation; the
// generator is deterministic, so a test regenerates it to reason about
// what the federation holds.
func exampleUniverse() *workload.Universe {
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	return workload.Generate(cfg)
}

// exampleFederation is the benchmark's three-repository deployment over
// in-process endpoints: Southampton (AKT), KISTI (its own vocabulary,
// reached by rewriting) and the citation metrics, described with the voiD
// statistics the decomposer orders fragments by. Each data set is also
// served by a second endpoint over the same store, its one replica, which
// only hedged dispatch reaches. wrap, when not nil, goes around each data
// set's primary endpoint handler.
func exampleFederation(t testing.TB, wrap func(dataset string, h http.Handler) http.Handler, opts ...Option) *Mediator {
	t.Helper()
	return federationOver(t, exampleUniverse(), wrap, opts...)
}

// federationOver is exampleFederation over the universe u.
func federationOver(t testing.TB, u *workload.Universe, wrap func(dataset string, h http.Handler) http.Handler, opts ...Option) *Mediator {
	t.Helper()
	return federationWith(t, u, u.Coref, wrap, opts...)
}

// federationWith is federationOver with src as the mediator's co-reference
// source in place of u's store.
func federationWith(t testing.TB, u *workload.Universe, src funcs.CorefSource, wrap func(dataset string, h http.Handler) http.Handler, opts ...Option) *Mediator {
	t.Helper()
	metrics := workload.MetricsStore(u)
	kb := voidkb.NewKB()
	for _, d := range []struct {
		ds *voidkb.Dataset
		st *store.Store
	}{
		{&voidkb.Dataset{URI: workload.SotonVoidURI, URISpace: workload.SotonURIPattern,
			Vocabularies: []string{rdf.AKTNS}, Triples: int64(u.Southampton.Size()),
			PropertyPartitions: map[string]int64{rdf.AKTHasAuthor: int64(u.Southampton.PredicateCount(rdf.NewIRI(rdf.AKTHasAuthor)))}}, u.Southampton},
		{&voidkb.Dataset{URI: workload.KistiVoidURI, URISpace: workload.KistiURIPattern,
			Vocabularies: []string{rdf.KISTINS}, Triples: int64(u.KISTI.Size())}, u.KISTI},
		{&voidkb.Dataset{URI: workload.MetricsVoidURI, URISpace: workload.SotonURIPattern,
			Vocabularies: []string{workload.MetricsNS}, Triples: int64(metrics.Size()),
			PropertyPartitions: map[string]int64{workload.MetricsCitationCount: int64(u.Cfg.Papers)}}, metrics},
	} {
		local := fmt.Sprintf("example-%d-%s", kb.Len(), strings.ReplaceAll(t.Name(), "/", "-"))
		var h http.Handler = endpoint.NewServer(local, d.st)
		if wrap != nil {
			h = wrap(d.ds.URI, h)
		}
		replica := local + "-replica"
		endpoint.RegisterLocal(local, h)
		endpoint.RegisterLocal(replica, endpoint.NewServer(replica, d.st))
		t.Cleanup(func() {
			endpoint.UnregisterLocal(local)
			endpoint.UnregisterLocal(replica)
		})
		d.ds.SPARQLEndpoint = endpoint.LocalURL(local)
		d.ds.Replicas = []string{endpoint.LocalURL(replica)}
		if err := kb.Add(d.ds); err != nil {
			t.Fatal(err)
		}
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}
	m := New(kb, alignKB, src, append([]Option{WithRewriteFilters(true)}, opts...)...)
	t.Cleanup(m.Close)
	return m
}

// TestHandlerRequestAllocations pins what one small /sparql request costs
// the whole process on the two request-bound shapes of the benchmark: the
// Figure-1 query when its rewrite for KISTI is not in the plan cache (the
// cache is off, so every request rewrites), and the cross-vocabulary query
// that runs as decomposed bound joins. With answers this small the cost is
// the request's own — parse, plan, rewrite, format, dispatch — so a stage
// that goes back to re-parsing or re-formatting its query shows up here:
// the ceilings are the measured figures plus about 7 %: 568 for Figure 1
// and 974 for the cross-vocabulary query, whose authorship stage travels
// inside its first stage's sub-query, three endpoint round trips where it
// took five (1288 before; 1294 when Figure 1's was 568), since the
// mediator's one
// co-reference cache serves every owl:sameAs lookup warm, with no
// representative map per fan-out and no class copy per owner lookup, a
// sub-query's header values are shared slices and the SRJ writer takes
// its rows through an explicit callback (581 and 1333 while each fan-out
// filled a cache of its own), since a fan-out runs on its
// caller's goroutine and its workers canonicalise their own rows (587 and
// 1352 while the fan-out and its merge ran on goroutines of their own and
// the in-process transport, which now watches the request's context for
// one allocation a round trip, did not), since a fan-out is one push
// call (Fanout.Run) with no pull stream to close or drain and no
// fail-fast lock of its own (591 and 1364 while each fragment's rows came
// through federate.Stream and its draining Close), every request's rows
// are one push sequence — a whole fragment a plan of one leaf, no plan
// pulled through iter.Pull2 — its header keys are read in canonical
// spelling, its route counter is resolved once and a response encoder is
// one allocation (594 and 1400 while a whole fragment had a pull stream of
// its own and every other plan ran on a coroutine; 595 and 1401 while a
// request without a limit parameter built strconv.Atoi's error), since each
// sub-query goes as the protocol's direct POST, its text the body (642 and
// 1616 while it was form-encoded), and a hash join's table and a
// decomposition's fragments
// take a few allocations, not a few a row or a fragment (603 and 1524
// before). They sit below what the same requests cost while every
// bound-join target received every alias (1723 for the cross-vocabulary
// query), while spans boxed their attributes and wrapped their contexts
// (733 and 1962), while the lexer built every value (807 and 2204) and
// while every stage took text (940 and 2480).
//
// The third case prices the plan cache's hit: the Figure-1 query about 300
// persons in turn, more than the default 256-entry cache holds, so only a
// cache keyed by the query's shape serves them, each from the one rewrite
// of its shape. Its ceiling is the measured figure (449, at 19 rows a
// request; 454 with a co-reference cache per fan-out, 460 with the
// fan-out's goroutines, 464 through federate.Stream,
// 467 with a pull stream of its own, 515 form-encoded) plus 7 %, below the
// miss case's (568 at 11 rows) and
// below the 606 it cost before spans were cheap.
func TestHandlerRequestAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	noCaches := func(t *testing.T) http.Handler {
		return Handler(exampleFederation(t, nil,
			WithServing(serve.Options{CacheSize: -1}), WithFederation(federate.Options{CacheSize: -1})))
	}
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 300, 900
	planCache := func(t *testing.T) http.Handler {
		return Handler(federationOver(t, workload.Generate(cfg), nil, WithServing(serve.Options{CacheSize: -1})))
	}
	for _, shape := range []struct {
		name    string
		handler func(t *testing.T) http.Handler
		query   func(i int) string
		persons []int
		ceiling float64
	}{
		{"fig1-coauthors", noCaches, workload.Figure1Query, []int{2}, 610},
		{"xvocab-join", noCaches, workload.CrossVocabularyQuery, []int{2}, 1042},
		{"fig1-coauthors, plan cache on", planCache, workload.Figure1Query, rand.New(rand.NewSource(1)).Perm(cfg.Persons), 483},
	} {
		t.Run(shape.name, func(t *testing.T) {
			h := shape.handler(t)
			targets := make([]string, len(shape.persons))
			for i, person := range shape.persons {
				targets[i] = "/sparql?source=" + url.QueryEscape(rdf.AKTNS) + "&query=" + url.QueryEscape(shape.query(person))
			}
			var body bytes.Buffer
			rows, n := 0, 0
			got := testing.AllocsPerRun(max(20, len(targets)), func() {
				body.Reset()
				w := httptest.NewRecorder()
				w.Body = &body
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, targets[n%len(targets)], nil))
				rows += strings.Count(body.String(), `"a":{`) // every row of either shape binds ?a
				n++
			})
			perRequest := float64(rows) / float64(n)
			t.Logf("%.0f allocations per request, %.1f rows", got, perRequest)
			if perRequest < 2 || perRequest > 20 {
				t.Errorf("%.1f rows per request, want a small answer (2 to 20)", perRequest)
			}
			if got > shape.ceiling {
				t.Errorf("%.0f allocations per request, want at most %.0f", got, shape.ceiling)
			}
		})
	}
}

// scribble holds a consumer to the row contract the hard way: each row is
// handed out from one reused buffer that is overwritten as soon as its
// iteration returns, as a producer recycling its batch would.
func scribble(rows iter.Seq2[eval.Row, error]) iter.Seq2[eval.Row, error] {
	return func(yield func(eval.Row, error) bool) {
		var buf eval.Row
		for row, err := range rows {
			if err != nil {
				yield(nil, err)
				return
			}
			buf = append(buf[:0], row...)
			more := yield(buf, nil)
			for i := range buf {
				buf[i] = rdf.NewLiteral("scribbled over")
			}
			if !more {
				return
			}
		}
	}
}

// TestRetainedMediatorRowsAreCopies extends eval.TestRetainedRowsAreCopies
// to the mediator's lane: Collect, the result-cache fill and a view
// materialisation all keep rows past their iteration, and all must have
// copied them by then.
func TestRetainedMediatorRowsAreCopies(t *testing.T) {
	s := newServingStack(t, serve.Options{})
	req := QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{workload.SotonVoidURI, workload.KistiVoidURI},
	}
	want := s.query(t, req).Solutions // fills the cache through an honest stream
	if len(want) < 2 {
		t.Fatalf("only %d co-authors: nothing to overwrite", len(want))
	}
	s.mediator.Serve.Cache.Flush()
	keyed := req // as queryParsed keys it: over the targets' source set
	keyed.sources, _, _ = s.mediator.sourceSet(nil, req.Targets)
	q := sparql.MustParse(req.Query)
	start := func() *QueryStream {
		t.Helper()
		qs, err := s.mediator.selectStream(context.Background(), keyed, q)
		if err != nil {
			t.Fatal(err)
		}
		// Scribble below the fill (what it retains) and above it (what
		// the stream's consumer retains).
		qs.rows = scribble(qs.rows)
		s.mediator.cacheFill(keyed, q, "", nil).fillRows(qs)
		qs.rows = scribble(qs.rows)
		return qs
	}

	fr, err := start().Collect()
	if err != nil || !reflect.DeepEqual(fr.Solutions, want) {
		t.Errorf("Collect over a row-reusing source = %v, %v\nwant %v", fr.Solutions, err, want)
	}
	e, ok := s.mediator.Serve.Cache.Get(s.mediator.resultCacheKey(keyed, q))
	if !ok {
		t.Fatal("the drained stream did not fill the cache")
	}
	var cached []eval.Solution
	for i := range e.Rows.N {
		cached = append(cached, eval.RowSolution(e.Vars, e.Rows.Row(i)))
	}
	eval.SortSolutions(cached)
	if !reflect.DeepEqual(cached, want) {
		t.Errorf("cache entry filled from a row-reusing source = %v\nwant %v", cached, want)
	}

	s.mediator.Serve.Cache.Flush()
	mr, err := materialized(start())
	if err != nil || !mr.Complete || mr.Rows.N != len(want) {
		t.Fatalf("materialized = %+v, %v", mr, err)
	}
	var built []eval.Solution
	for i := range mr.Rows.N {
		built = append(built, eval.RowSolution(mr.Vars, mr.Rows.Row(i)))
	}
	eval.SortSolutions(built)
	if !reflect.DeepEqual(built, want) {
		t.Errorf("view rows materialised from a row-reusing source = %v\nwant %v", built, want)
	}
}
