package endpoint

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

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
	n := 0
	for {
		_, err := st.Next()
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
