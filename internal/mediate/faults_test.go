package mediate

// Fault tests for the batched lane: an endpoint that stalls inside a
// batch, one that truncates its JSON inside a row, one that answers only
// after the consumer has gone, and a consumer that leaves after the first
// row of a long answer. Each ends with the process back at its starting
// goroutine count and nothing in the result cache.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sparqlrw/internal/align"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/federate"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/serve"
	"sparqlrw/internal/voidkb"
)

const stubHead = `{"head":{"vars":["a"]},"results":{"bindings":[`

func stubRow(i int) string {
	return fmt.Sprintf(`{"a":{"type":"uri","value":"http://stub.example/id/%d"}}`, i)
}

// stubHandler is one scripted endpoint answer: script writes the body.
func stubHandler(script func(w http.ResponseWriter, r *http.Request, flush func())) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read the request first: a Go server only notices the client
		// going away (and cancels r.Context()) once the body is consumed.
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/sparql-results+json")
		script(w, r, w.(http.Flusher).Flush)
	})
}

// faultStack is a mediator over one stub data set (and its replica, both
// running the same script), result cache on.
type faultStack struct {
	m      *Mediator
	closed bool
	close  func()
}

func newFaultStack(t *testing.T, fed federate.Options, script func(w http.ResponseWriter, r *http.Request, flush func())) *faultStack {
	t.Helper()
	primary, replica := httptest.NewServer(stubHandler(script)), httptest.NewServer(stubHandler(script))
	kb := voidkb.NewKB()
	if err := kb.Add(&voidkb.Dataset{
		URI: "http://stub.example/void", Title: "stub",
		SPARQLEndpoint: primary.URL, Replicas: []string{replica.URL},
		URISpace:     `http://stub\.example/id/.*`,
		Vocabularies: []string{rdf.AKTNS},
	}); err != nil {
		t.Fatal(err)
	}
	fed.MaxRetries = -1
	m := New(kb, align.NewKB(), coref.NewStore(), WithFederation(fed), WithServing(serve.Options{}))
	s := &faultStack{m: m}
	s.close = func() {
		if !s.closed {
			s.closed = true
			m.Close()
			primary.Close()
			replica.Close()
		}
	}
	t.Cleanup(s.close)
	return s
}

func (s *faultStack) start(t *testing.T) *QueryStream {
	t.Helper()
	res, err := s.m.Query(context.Background(), QueryRequest{
		Query:   `PREFIX akt:<` + rdf.AKTNS + `> SELECT ?a WHERE { ?p akt:has-author ?a }`,
		Targets: []string{"http://stub.example/void"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Bindings()
}

// within fails the test if f takes longer than d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// settle shuts the stack down and waits for the goroutine count to come
// back to the baseline: the fan-out, its workers, the merger, a hedge
// arm, Close's drainer and the connections' loops must all have exited.
func (s *faultStack) settle(t *testing.T, baseline int) {
	t.Helper()
	if n := s.m.Serve.Cache.Len(); n != 0 {
		t.Errorf("%d entries reached the result cache", n)
	}
	s.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the query:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalledEndpointDeliversPartialBatch: six rows arrive — a batch of
// one, a batch of two and three quarters of a batch of four — and the
// endpoint goes quiet. The rows must reach the consumer now, not when the
// batch they sit in fills; the stall outlasts the hedge delay, so a
// backup arm is racing (and stalling) too when the consumer closes.
func TestStalledEndpointDeliversPartialBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	s := newFaultStack(t, federate.Options{Hedge: true, HedgeMinDelay: 20 * time.Millisecond},
		func(w http.ResponseWriter, r *http.Request, flush func()) {
			body := stubHead + stubRow(0)
			for i := 1; i < 6; i++ {
				body += "," + stubRow(i)
			}
			_, _ = io.WriteString(w, body)
			flush()
			select {
			case <-release:
			case <-r.Context().Done():
			}
		})
	qs := s.start(t)
	for i := range 6 {
		within(t, 5*time.Second, "Next during the stall", func() {
			if row, err := qs.Next(); err != nil || row[0].Value != fmt.Sprintf("http://stub.example/id/%d", i) {
				t.Errorf("row %d = %v, %v", i, row, err)
			}
		})
	}
	time.Sleep(60 * time.Millisecond) // past the hedge delay: the backup arm is up
	within(t, 2*time.Second, "Close during the stall", func() { qs.Close() })
	close(release)
	s.settle(t, baseline)
}

// TestTruncatedRowSurfacesFromNext: the answer breaks off inside its
// third row. Under fail-fast Next returns the decode error — after the
// whole rows the merge got through before the abort, never after a row
// made of the broken one — and the partial answer is not cached.
func TestTruncatedRowSurfacesFromNext(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newFaultStack(t, federate.Options{FailFast: true},
		func(w http.ResponseWriter, r *http.Request, flush func()) {
			_, _ = io.WriteString(w, stubHead+stubRow(0)+","+stubRow(1)+`,{"a":{"type":"uri","val`)
		})
	qs := s.start(t)
	for i := 0; ; i++ {
		row, err := qs.Next()
		if err != nil {
			if err == io.EOF {
				t.Fatal("the truncated answer ended cleanly")
			}
			break
		}
		if i == 2 || row[0].Value != fmt.Sprintf("http://stub.example/id/%d", i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	if _, err := qs.Summary(); err == nil {
		t.Error("Summary reports no error")
	}
	qs.Close()
	s.settle(t, baseline)
}

// TestLateAnswerAfterClose: the consumer gives up before the endpoint has
// written a byte; the endpoint then answers in full regardless.
func TestLateAnswerAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	started, release, answered := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s := newFaultStack(t, federate.Options{},
		func(w http.ResponseWriter, r *http.Request, flush func()) {
			defer close(answered)
			close(started)
			<-release
			_, _ = io.WriteString(w, stubHead+stubRow(0)+","+stubRow(1)+"]}}")
		})
	qs := s.start(t)
	<-started
	within(t, 2*time.Second, "Close before the answer", func() { qs.Close() })
	close(release)
	<-answered
	if row, err := qs.Next(); err == nil {
		t.Errorf("Next after Close = %v", row)
	}
	if sum, err := qs.Summary(); err != nil || sum.Partial {
		t.Errorf("Summary after Close = %+v, %v: abandonment is not a failure", sum, err)
	}
	s.settle(t, baseline)
}

// TestCloseAfterFirstRowOfLongAnswer: the endpoint streams many batches'
// worth of rows as fast as they are taken; the consumer reads one and
// closes. Close must not wait for the answer to end.
func TestCloseAfterFirstRowOfLongAnswer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newFaultStack(t, federate.Options{},
		func(w http.ResponseWriter, r *http.Request, flush func()) {
			_, _ = io.WriteString(w, stubHead+stubRow(0))
			for i := 1; r.Context().Err() == nil; i++ { // until the client goes away
				if _, err := io.WriteString(w, ","+stubRow(i)); err != nil {
					return
				}
			}
		})
	qs := s.start(t)
	if row, err := qs.Next(); err != nil || row[0].Value != "http://stub.example/id/0" {
		t.Fatalf("first row = %v, %v", row, err)
	}
	within(t, 2*time.Second, "Close mid-answer", func() { qs.Close() })
	s.settle(t, baseline)
}
