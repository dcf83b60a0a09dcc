package mediate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/endpoint"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/voidkb"
	"sparqlrw/internal/workload"
)

// streamStack wires a mediator to four endpoints over one universe: three
// fast Southampton replicas and one whose responses are gated by the
// test.
type streamStack struct {
	mediator *Mediator
	targets  []string
	// slowGate holds the fourth endpoint's response until closed.
	slowGate chan struct{}
	// slowResponded flips once the gated endpoint finished its response.
	slowResponded atomic.Bool
	// slowStarted counts requests that reached the gated endpoint.
	slowStarted atomic.Int64
	// slowCancelled flips when a gated request's context is cancelled
	// (client disconnect reaching the endpoint sub-query).
	slowCancelled chan struct{}
}

func newStreamStack(t testing.TB) *streamStack {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Persons, cfg.Papers = 40, 120
	u := workload.Generate(cfg)
	s := &streamStack{
		slowGate:      make(chan struct{}),
		slowCancelled: make(chan struct{}),
	}

	fast := endpoint.NewServer("southampton", u.Southampton)
	var fastSrvs []*httptest.Server
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(fast)
		t.Cleanup(srv.Close)
		fastSrvs = append(fastSrvs, srv)
	}
	var cancelOnce atomic.Bool
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body before blocking: a Go HTTP server only notices a
		// client disconnect (and cancels r.Context()) once the request
		// body has been consumed.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.slowStarted.Add(1)
		select {
		case <-s.slowGate:
		case <-r.Context().Done():
			if cancelOnce.CompareAndSwap(false, true) {
				close(s.slowCancelled)
			}
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		fast.ServeHTTP(w, r)
		s.slowResponded.Store(true)
	}))
	t.Cleanup(slowSrv.Close)

	dsKB := voidkb.NewKB()
	urls := append(append([]*httptest.Server(nil), fastSrvs...), slowSrv)
	for i, srv := range urls {
		uri := fmt.Sprintf("http://replica%d.example/void", i)
		if err := dsKB.Add(&voidkb.Dataset{
			URI: uri, Title: fmt.Sprintf("Replica %d", i),
			SPARQLEndpoint: srv.URL,
			URISpace:       workload.SotonURIPattern,
			Vocabularies:   []string{rdf.AKTNS},
		}); err != nil {
			t.Fatal(err)
		}
		s.targets = append(s.targets, uri)
	}
	alignKB := align.NewKB()
	if err := alignKB.Add(workload.AKT2KISTI()); err != nil {
		t.Fatal(err)
	}
	// A generous attempt deadline so only the test's gate (or a client
	// disconnect) can end the slow endpoint's request.
	m := New(dsKB, alignKB, u.Coref,
		WithRewriteFilters(true),
		WithFederation(federate.Options{EndpointTimeout: time.Minute, MaxRetries: -1}))
	t.Cleanup(m.Close)
	s.mediator = m
	return s
}

// postSparql posts a protocol query with explicit targets and the given
// Accept header.
func postSparql(t *testing.T, base, query, accept string, targets []string) *http.Response {
	t.Helper()
	form := url.Values{"query": {query}, "target": targets}
	req, err := http.NewRequest(http.MethodPost, base+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSparqlStreamsFirstRowBeforeSlowEndpoint is the streaming path's
// end-to-end acceptance: a federated SELECT over four endpoints, one of
// which is stalled, must deliver its first binding over /sparql while the
// stalled endpoint still has not responded.
func TestSparqlStreamsFirstRowBeforeSlowEndpoint(t *testing.T) {
	s := newStreamStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	resp := postSparql(t, srv.URL, workload.Figure1Query(0), "", s.targets)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	type firstRow struct {
		row eval.Solution
		// slowDone records whether the gated endpoint had responded at
		// the moment the first binding was decoded.
		slowDone bool
	}
	dec, err := srjson.NewStreamDecoder(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan firstRow, 1)
	go func() {
		sol, err := dec.Next()
		if err != nil {
			t.Errorf("first binding: %v", err)
		}
		got <- firstRow{row: sol, slowDone: s.slowResponded.Load()}
	}()
	var fr firstRow
	select {
	case fr = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no first binding while the slow endpoint is stalled")
	}
	if fr.slowDone {
		t.Fatal("slow endpoint responded before the first binding: response was buffered, not streamed")
	}
	if len(fr.row) == 0 {
		t.Fatalf("first binding = %v", fr.row)
	}

	// Release the gate; the rest of the document must complete cleanly.
	close(s.slowGate)
	rows := 1
	for {
		_, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("remaining bindings: %v", err)
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("no bindings")
	}
	if !s.slowResponded.Load() {
		t.Fatal("slow endpoint never completed after the gate opened")
	}
}

// hungStack is a mediator one of whose endpoints holds some sub-queries
// until their context ends: started reports that one is held, cancelled
// is closed once a held one's context ended.
type hungStack struct {
	m         *Mediator
	targets   []string
	started   func() bool
	cancelled <-chan struct{}
}

// slowReplica is the stream stack: its fourth Southampton replica holds
// every sub-query until the test ends.
func slowReplica(t *testing.T) hungStack {
	s := newStreamStack(t)
	return hungStack{m: s.mediator, targets: s.targets,
		started: func() bool { return s.slowStarted.Load() > 0 }, cancelled: s.slowCancelled}
}

// kistiShards is the example federation with KISTI holding every bound-join
// shard (a sub-query carrying VALUES): of the cross-vocabulary query's
// plan, the last stage's KISTI half hangs while Southampton's rows join.
func kistiShards(t *testing.T) hungStack {
	var held atomic.Bool
	cancelled := make(chan struct{})
	var once sync.Once
	m := exampleFederation(t, func(dataset string, h http.Handler) http.Handler {
		if dataset != workload.KistiVoidURI {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil || !strings.Contains(string(body), "VALUES") {
				r.Body = io.NopCloser(bytes.NewReader(body))
				h.ServeHTTP(w, r)
				return
			}
			held.Store(true)
			<-r.Context().Done()
			once.Do(func() { close(cancelled) })
		})
	})
	return hungStack{m: m, started: held.Load, cancelled: cancelled}
}

// hungCases are a whole fragment, whose rows stream while the slow
// replica holds its sub-query; its ORDER BY variant, a planned request
// whose sort holds every row back until all endpoints answered; and the
// cross-vocabulary query's bound joins, whose rows stream while a KISTI
// shard is held.
var hungCases = []struct {
	name     string
	stack    func(t *testing.T) hungStack
	query    string
	firstRow bool // a row arrives while the sub-query is held
}{
	{"whole fragment", slowReplica, workload.Figure1Query(0), true},
	{"ORDER BY", slowReplica, workload.Figure1Query(0) + " ORDER BY ?a", false},
	{"cross-vocabulary", kistiShards, workload.CrossVocabularyQuery(2), true},
}

// waitGoroutines waits for the goroutine count to come back to the
// baseline: the fan-outs' workers and the connections' loops must all
// have exited.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the query:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCancelled fails unless the held sub-query's context ends.
func waitCancelled(t *testing.T, s hungStack) {
	t.Helper()
	select {
	case <-s.cancelled:
		// The stop travelled: mediator -> executor -> endpoint client ->
		// the held request's context.
	case <-time.After(10 * time.Second):
		t.Fatal("the held endpoint sub-query was never cancelled")
	}
}

// TestSparqlClientDisconnectCancelsSubQueries: dropping the /sparql
// connection must propagate cancellation down to the endpoint sub-queries
// (the held one sees its request context die) — mid-stream, or before the
// first row where the plan holds rows back — and every goroutine the
// request started must end.
func TestSparqlClientDisconnectCancelsSubQueries(t *testing.T) {
	for _, c := range hungCases {
		baseline := runtime.NumGoroutine()
		t.Run(c.name, func(t *testing.T) {
			s := c.stack(t)
			srv := httptest.NewServer(Handler(s.m))
			defer srv.Close()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()

			form := url.Values{"query": {c.query}, "target": s.targets}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				srv.URL+"/sparql", strings.NewReader(form.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			first, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				resp, err := client.Do(req)
				if err != nil {
					return // cancelled before the response began
				}
				defer resp.Body.Close()
				dec, err := srjson.NewStreamDecoder(resp.Body)
				if err != nil {
					return
				}
				// Read the first streamed binding, so the fan-out is
				// demonstrably live, then hold the connection open.
				if _, err := dec.Next(); err != nil && c.firstRow {
					t.Errorf("first binding: %v", err)
				}
				close(first)
				<-ctx.Done()
			}()
			if c.firstRow {
				select {
				case <-first:
				case <-done:
					t.Fatal("the response ended before its first binding")
				}
			}
			for !s.started() {
				time.Sleep(5 * time.Millisecond)
			}
			cancel()
			waitCancelled(t, s)
			<-done
		})
		waitGoroutines(t, baseline)
	}
}

// TestBreakAfterFirstSolutionStopsUpstream: a Solutions loop broken after
// its first row stops the held sub-query and everything else the query
// started, on a whole fragment and on the cross-vocabulary query's plan.
func TestBreakAfterFirstSolutionStopsUpstream(t *testing.T) {
	for _, c := range hungCases {
		if !c.firstRow {
			continue
		}
		baseline := runtime.NumGoroutine()
		t.Run(c.name, func(t *testing.T) {
			s := c.stack(t)
			res, err := s.m.Query(context.Background(), QueryRequest{Query: c.query, Targets: s.targets})
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			n := 0
			for sol, err := range res.Bindings().Solutions() {
				if err != nil || len(sol) == 0 {
					t.Fatalf("first solution = %v, %v", sol, err)
				}
				for !s.started() { // the held sub-query is in flight too
					time.Sleep(5 * time.Millisecond)
				}
				n++
				break
			}
			if n != 1 {
				t.Fatal("no solution")
			}
			waitCancelled(t, s)
			sum, err := res.Summary()
			if err != nil || sum.Partial {
				t.Errorf("summary after the break = %+v, %v: abandonment is not a failure", sum, err)
			}
		})
		waitGoroutines(t, baseline)
	}
}

// TestMediatorQueryStreamAPI exercises Query directly: plan surfacing,
// limits cancelling upstream, and Summary bookkeeping.
func TestMediatorQueryStreamAPI(t *testing.T) {
	s := newStack(t)
	// Planner-selected targets surface the plan on the result.
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: workload.Figure1Query(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Bindings()
	if res.Decomposition() == nil || qs.Decomposition() == nil {
		t.Fatal("planner-selected query carries no plan")
	}
	n := 0
	for sol, err := range qs.Solutions() {
		if err != nil {
			t.Fatal(err)
		}
		if len(sol) == 0 {
			t.Fatal("empty solution")
		}
		n++
	}
	sum, err := qs.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no solutions streamed")
	}
	if sum.Solutions != nil {
		t.Fatal("streaming summary must not buffer solutions")
	}
	res.Close()

	// The buffered Collect convenience must agree with the streamed count.
	fr, err := federatedSelect(s.mediator, workload.Figure1Query(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Solutions) != n {
		t.Fatalf("collected=%d streamed=%d", len(fr.Solutions), n)
	}

	// Limit: the rows end after one solution, and the summary does not
	// misreport the deliberate cancellation of the leftover work as
	// upstream failure.
	res2, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: workload.Figure1Query(0), Limit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	qs2 := res2.Bindings()
	rows := 0
	for _, err := range qs2.Rows() {
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != 1 {
		t.Fatalf("%d rows under a limit of 1", rows)
	}
	sum2, err := qs2.Summary()
	if err != nil {
		t.Fatalf("limit summary error: %v", err)
	}
	if sum2.Partial {
		t.Fatalf("limit marked the result partial: %+v", sum2.PerDataset)
	}
	for _, da := range sum2.PerDataset {
		if da.Err != nil && !errors.Is(da.Err, federate.ErrStreamClosed) {
			t.Fatalf("limit reported an upstream failure: %v", da.Err)
		}
	}

	// An unknown target is refused before any stream starts.
	if _, err := s.mediator.Query(context.Background(), QueryRequest{
		Query:   workload.Figure1Query(0),
		Targets: []string{"http://nope.example/void", workload.SotonVoidURI},
	}); err == nil || !strings.Contains(err.Error(), "http://nope.example/void") {
		t.Fatalf("unknown target: %v, want an error naming it", err)
	}
}
