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
	"strings"
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
	form := url.Values{"query": {query}, "source": {rdf.AKTNS}, "target": targets}
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

// TestSparqlClientDisconnectCancelsSubQueries: dropping the /sparql
// connection mid-stream must propagate cancellation down to the endpoint
// sub-queries (the gated endpoint sees its request context die).
func TestSparqlClientDisconnectCancelsSubQueries(t *testing.T) {
	s := newStreamStack(t)
	srv := httptest.NewServer(Handler(s.mediator))
	defer srv.Close()

	form := url.Values{"query": {workload.Figure1Query(0)},
		"source": {rdf.AKTNS}, "target": s.targets}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/sparql", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first streamed binding so the fan-out is demonstrably live
	// (the slow sub-query is in flight), then drop the connection.
	dec, err := srjson.NewStreamDecoder(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	for s.slowStarted.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	select {
	case <-s.slowCancelled:
		// The disconnect travelled: mediator handler ctx -> executor ->
		// endpoint client -> slow endpoint's request context.
	case <-time.After(10 * time.Second):
		t.Fatal("client disconnect did not cancel the in-flight endpoint sub-query")
	}
}

// TestMediatorQueryStreamAPI exercises Query directly: plan surfacing,
// limits cancelling upstream, and Summary bookkeeping.
func TestMediatorQueryStreamAPI(t *testing.T) {
	s := newStack(t)
	// Planner-selected targets surface the plan on the result.
	res, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: workload.Figure1Query(0), SourceOnt: rdf.AKTNS,
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
	fr, err := federatedSelect(s.mediator, workload.Figure1Query(0), rdf.AKTNS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Solutions) != n {
		t.Fatalf("collected=%d streamed=%d", len(fr.Solutions), n)
	}

	// Limit: the stream ends after one solution and reports io.EOF, and
	// the summary does not misreport the deliberate cancellation of the
	// leftover work as upstream failure.
	res2, err := s.mediator.Query(context.Background(), QueryRequest{
		Query: workload.Figure1Query(0), SourceOnt: rdf.AKTNS, Limit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Close()
	qs2 := res2.Bindings()
	if _, err := qs2.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := qs2.Next(); err != io.EOF {
		t.Fatalf("post-limit Next = %v", err)
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
		Query: workload.Figure1Query(0), SourceOnt: rdf.AKTNS,
		Targets: []string{"http://nope.example/void", workload.SotonVoidURI},
	}); err == nil || !strings.Contains(err.Error(), "http://nope.example/void") {
		t.Fatalf("unknown target: %v, want an error naming it", err)
	}
}
