package endpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
)

func localDemoStore() *store.Store {
	st := store.New()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	st.Add(rdf.Triple{S: ex("p1"), P: ex("author"), O: ex("alice")})
	st.Add(rdf.Triple{S: ex("p1"), P: ex("author"), O: ex("bob")})
	st.Add(rdf.Triple{S: ex("p2"), P: ex("author"), O: ex("alice")})
	return st
}

func TestLocalEndpointSelect(t *testing.T) {
	RegisterLocal("local-select", NewServer("local-select", localDemoStore()))
	defer UnregisterLocal("local-select")
	c := NewClient()
	res, err := collect(c, LocalURL("local-select"), `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ex:p1 ex:author ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("solutions = %v", res)
	}
}

func TestLocalEndpointStreamsIncrementally(t *testing.T) {
	RegisterLocal("local-stream", NewServer("local-stream", localDemoStore()))
	defer UnregisterLocal("local-stream")
	c := NewClient()
	st, err := c.SelectStreamContext(context.Background(), LocalURL("local-stream"), `
PREFIX ex: <http://example.org/>
SELECT ?p ?a WHERE { ?p ex:author ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n, row := 0, make(eval.Row, 2)
	for {
		err := st.NextRow([]string{"p", "a"}, row)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d solutions, want 3", n)
	}
}

func TestLocalEndpointAskAndErrors(t *testing.T) {
	RegisterLocal("local-ask", NewServer("local-ask", localDemoStore()))
	defer UnregisterLocal("local-ask")
	c := NewClient()
	yes, err := c.AskContext(context.Background(), LocalURL("local-ask"), `PREFIX ex: <http://example.org/> ASK { ex:p1 ex:author ex:bob }`)
	if err != nil || !yes {
		t.Fatalf("ask = %v, %v", yes, err)
	}
	// A malformed query must surface the handler's 400 as a client error.
	if _, err := collect(c, LocalURL("local-ask"), "SELECT WHERE {"); err == nil {
		t.Fatal("malformed query over local:// did not error")
	}
	// An unregistered name fails the round trip cleanly.
	if _, err := collect(c, LocalURL("never-registered"), "SELECT * WHERE { ?s ?p ?o }"); err == nil {
		t.Fatal("unregistered local endpoint did not error")
	}
}

func TestLocalEndpointReplacement(t *testing.T) {
	// Re-registering a name must route new requests to the new handler —
	// the view refresh path swaps stores this way.
	st1 := localDemoStore()
	RegisterLocal("local-swap", NewServer("local-swap", st1))
	defer UnregisterLocal("local-swap")
	c := NewClient()
	q := `PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:p1 ex:author ?a }`
	res, err := collect(c, LocalURL("local-swap"), q)
	if err != nil || len(res) != 2 {
		t.Fatalf("before swap: %v, %v", res, err)
	}
	st2 := store.New()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	st2.Add(rdf.Triple{S: ex("p1"), P: ex("author"), O: ex("carol")})
	RegisterLocal("local-swap", NewServer("local-swap", st2))
	res, err = collect(c, LocalURL("local-swap"), q)
	if err != nil || len(res) != 1 {
		t.Fatalf("after swap: %v, %v", res, err)
	}
}

// TestLocalEndpointHandlerPanicDoesNotHang guards the transport against
// a panicking handler: net/http recovers handler panics, and so must the
// in-process pipe transport, or RoundTrip blocks on w.ready forever.
func TestLocalEndpointHandlerPanicDoesNotHang(t *testing.T) {
	RegisterLocal("local-panic", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	}))
	defer UnregisterLocal("local-panic")
	done := make(chan error, 1)
	go func() {
		c := NewClient()
		_, err := collect(c, LocalURL("local-panic"), "SELECT * WHERE { ?s ?p ?o }")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("panicking handler produced a successful response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RoundTrip hung on a panicking handler")
	}
}

// TestLocalEndpointHonoursContext: the in-process transport holds the
// request's context as the network one does. A handler that stalls
// before its first byte does not hold the caller past its deadline, and a
// response cut short by cancellation reads as the cancellation, not as a
// truncated document; a request already cancelled reaches no handler.
func TestLocalEndpointHonoursContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	RegisterLocal("local-stall", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-release
	}))
	defer UnregisterLocal("local-stall")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := NewClient().SelectStreamContext(ctx, LocalURL("local-stall"), "SELECT * WHERE { ?s ?p ?o }")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled handler: %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a handler stalled before its first byte held the caller past its 50 ms deadline")
	}

	// A request whose context is already done reaches no handler.
	RegisterLocal("local-unreached", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("handler reached by a cancelled request")
	}))
	defer UnregisterLocal("local-unreached")
	if _, err := NewClient().SelectStreamContext(ctx, LocalURL("local-unreached"), "SELECT * WHERE { ?s ?p ?o }"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request: %v, want context.DeadlineExceeded", err)
	}

	RegisterLocal("local-cut", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		fmt.Fprint(w, `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri","value":"http://x/1"}}`)
		<-r.Context().Done()
	}))
	defer UnregisterLocal("local-cut")
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	st, err := NewClient().SelectStreamContext(ctx, LocalURL("local-cut"), "SELECT ?a WHERE { ?s ?p ?a }")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	row := make(eval.Row, 1)
	if err := st.NextRow([]string{"a"}, row); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := st.NextRow([]string{"a"}, row); !errors.Is(err, context.Canceled) {
		t.Fatalf("body cut short by cancellation: %v, want context.Canceled", err)
	}
}
