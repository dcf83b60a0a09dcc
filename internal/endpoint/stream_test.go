package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/store"
)

// TestSelectStreamIncremental drives the client against a handler that
// writes one binding, flushes, then holds the connection: the first
// solution must be decodable while the response is still in flight.
func TestSelectStreamIncremental(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		fmt.Fprint(w, `{"head":{"vars":["a"]},"results":{"bindings":[`)
		fmt.Fprint(w, `{"a":{"type":"uri","value":"http://x/first"}}`)
		w.(http.Flusher).Flush()
		<-release
		fmt.Fprint(w, `,{"a":{"type":"uri","value":"http://x/second"}}]}}`)
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient()
	st, err := c.SelectStreamContext(context.Background(), srv.URL, "SELECT ?a WHERE { ?s ?p ?a }")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	firstCh := make(chan error, 1)
	go func() {
		row := make(eval.Row, 1)
		err := st.NextRow([]string{"a"}, row)
		if err == nil && row[0].Value != "http://x/first" {
			err = fmt.Errorf("first solution = %v", row)
		}
		firstCh <- err
	}()
	select {
	case err := <-firstCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first solution not decoded while response in flight")
	}
}

// TestSelectStreamEarlyClose closes a stream after the first solution;
// the remaining (large) body must not be read.
func TestSelectStreamEarlyClose(t *testing.T) {
	st := store.New()
	for i := 0; i < 500; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i)),
			P: rdf.NewIRI("http://example.org/p"),
			O: rdf.NewLiteral("v"),
		})
	}
	srv := httptest.NewServer(NewServer("big", st))
	defer srv.Close()
	c := NewClient()
	stream, err := c.SelectStreamContext(context.Background(), srv.URL,
		`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p "v" }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.NextRow([]string{"s"}, make(eval.Row, 1)); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is fine.
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSelectStreamContextCancelMidBody cancels the context between rows
// and expects the in-flight NextRow to fail promptly.
func TestSelectStreamContextCancelMidBody(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		fmt.Fprint(w, `{"head":{"vars":["a"]},"results":{"bindings":[`)
		fmt.Fprint(w, `{"a":{"type":"uri","value":"http://x/1"}}`)
		w.(http.Flusher).Flush()
		<-release // never released with a row; the client must cancel out
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	c := NewClient()
	st, err := c.SelectStreamContext(ctx, srv.URL, "SELECT ?a WHERE { ?s ?p ?a }")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	row := make(eval.Row, 1)
	if err := st.NextRow([]string{"a"}, row); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- st.NextRow([]string{"a"}, row)
	}()
	cancel()
	select {
	case err := <-errCh:
		if err == nil || err == io.EOF {
			t.Fatalf("cancelled mid-body Next = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream did not unblock")
	}
}

// TestServerRequestBodyLimit checks the configurable POST cap.
func TestServerRequestBodyLimit(t *testing.T) {
	s := NewServer("demo", store.New())
	s.MaxRequestBody = 64
	srv := httptest.NewServer(s)
	defer srv.Close()
	long := "SELECT ?s WHERE { ?s ?p ?o } # " + strings.Repeat("x", 1024)
	resp, err := http.Post(srv.URL, "application/sparql-query", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("oversized body accepted (status %d)", resp.StatusCode)
	}
	// The form-encoded path is capped too.
	form := url.Values{"query": {long}}
	resp, err = http.Post(srv.URL, "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("oversized form accepted (status %d)", resp.StatusCode)
	}
	// Small queries still pass under the small cap.
	resp, err = http.Post(srv.URL, "application/sparql-query",
		strings.NewReader("ASK { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body status = %d", resp.StatusCode)
	}
}

// TestClientResponseBodyUncappedStreaming: a SELECT response larger than
// MaxResponseBody still streams through, because the streaming path needs
// no whole-body cap.
func TestClientResponseBodyUncappedStreaming(t *testing.T) {
	st := store.New()
	for i := 0; i < 200; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://example.org/s%04d", i)),
			P: rdf.NewIRI("http://example.org/p"),
			O: rdf.NewLiteral(strings.Repeat("v", 50)),
		})
	}
	srv := httptest.NewServer(NewServer("big", st))
	defer srv.Close()
	c := NewClient()
	c.MaxResponseBody = 512 // far smaller than the ~20 KB response
	res, err := collect(c, srv.URL, `PREFIX ex: <http://example.org/> SELECT ?s ?o WHERE { ?s ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 200 {
		t.Fatalf("solutions = %d", len(res))
	}
}

// discardWriter is a ResponseWriter that keeps only the body's length.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (*discardWriter) WriteHeader(int)               {}

// TestServerRowAllocations pins what the server spends per row of the
// benchmark's bulk-stream query shape at zero: parsing the request and
// compiling the query may allocate, but the evaluator's row goes to the
// wire through the encoder's reused buffer without a solution map, a
// string or a closure per row. The only growth with the answer is the
// store's id snapshot of the outer pattern (a handful of doublings).
func TestServerRowAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const query = `SELECT ?paper ?a ?t WHERE { ?paper <http://ex/has-author> ?a . ?paper <http://ex/has-title> ?t }`
	allocs := func(rows int) float64 {
		st := store.New()
		for i := range rows {
			p := rdf.NewIRI(fmt.Sprintf("http://ex/paper-%05d", i))
			st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/has-author"), rdf.NewIRI(fmt.Sprintf("http://ex/person-%05d", i%40))))
			st.Add(rdf.NewTriple(p, rdf.NewIRI("http://ex/has-title"), rdf.NewLiteral(fmt.Sprintf("Paper Title %d", i))))
		}
		srv := NewServer("alloc", st)
		body := url.Values{"query": {query}}.Encode()
		return testing.AllocsPerRun(20, func() {
			req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			w := &discardWriter{h: http.Header{}}
			srv.ServeHTTP(w, req)
			if w.n < 100*rows {
				t.Fatalf("%d-row answer is %d bytes", rows, w.n)
			}
		})
	}
	small, big := allocs(10), allocs(1000)
	if perRow := (big - small) / 990; perRow >= 0.02 {
		t.Errorf("%.3f allocations per additional row (%.0f for 10 rows, %.0f for 1000), want 0", perRow, small, big)
	}
}
