package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/srjson"
	"sparqlrw/internal/store"
	"sparqlrw/internal/turtle"
)

// collect drains a streamed SELECT at the endpoint URL into its solutions.
func collect(c *Client, endpointURL, queryText string) ([]eval.Solution, error) {
	st, err := c.SelectStreamContext(context.Background(), endpointURL, queryText)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	vars := st.dec.Vars() // every server here writes the head first
	var sols []eval.Solution
	for {
		row := make(eval.Row, len(vars))
		err := st.NextRow(vars, row)
		if err == io.EOF {
			return sols, nil
		}
		if err != nil {
			return nil, err
		}
		sols = append(sols, eval.RowSolution(vars, row))
	}
}

func demoServer(t testing.TB) *httptest.Server {
	t.Helper()
	g, _, err := turtle.Parse(`
@prefix ex: <http://example.org/> .
ex:p1 ex:author ex:alice , ex:bob .
ex:p2 ex:author ex:alice .
ex:alice ex:name "Alice" .
ex:bob ex:name "Bob" .
`)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.AddGraph(g)
	srv := httptest.NewServer(NewServer("demo", st))
	t.Cleanup(srv.Close)
	return srv
}

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

// TestLongAnswerIsWrittenInBlocks: over real net/http, a 1000-row answer
// reaches the ResponseWriter in one Write per flush point, not one per
// row.
func TestLongAnswerIsWrittenInBlocks(t *testing.T) {
	const rows = 1000
	st := store.New()
	for i := range rows {
		st.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i)),
			rdf.NewIRI("http://example.org/p"), rdf.NewLiteral(fmt.Sprintf("object %d", i))))
	}
	h := NewServer("blocks", st)
	writes := make(chan int, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &writeCounter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		writes <- cw.writes
	}))
	defer srv.Close()
	got, err := collect(NewClient(), srv.URL, `SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }`)
	if err != nil || len(got) != rows {
		t.Fatalf("%d solutions, %v; want %d", len(got), err, rows)
	}
	if n, limit := <-writes, (rows+srjson.FlushEvery-1)/srjson.FlushEvery+3; n > limit {
		t.Errorf("a %d-row answer took %d writes, want at most %d", rows, n, limit)
	}
}

func TestSelectOverHTTPPostForm(t *testing.T) {
	srv := demoServer(t)
	c := NewClient()
	res, err := collect(c, srv.URL, `
PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ex:p1 ex:author ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("solutions = %v", res)
	}
}

// TestClientPostsQueryDirectly: the client sends a query as the SPARQL
// 1.1 Protocol's direct POST — the text itself as the body, under
// Content-Type application/sparql-query — with nothing to escape or
// unescape.
func TestClientPostsQueryDirectly(t *testing.T) {
	const text = `PREFIX ex: <http://example.org/>
SELECT ?a WHERE { ex:p1 ex:author ?a FILTER (?a != ex:bob && STR(?a) != "a&b=c%20") }`
	inner := demoServer(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if ct := r.Header.Get("Content-Type"); r.Method != http.MethodPost || ct != "application/sparql-query" || string(body) != text {
			t.Errorf("%s %q with body %q, want a direct POST of the query", r.Method, ct, body)
		}
		proxied, err := http.Post(inner.URL, r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer proxied.Body.Close()
		w.Header().Set("Content-Type", proxied.Header.Get("Content-Type"))
		io.Copy(w, proxied.Body)
	}))
	defer srv.Close()
	res, err := collect(NewClient(), srv.URL, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("solutions = %v, want alice alone", res)
	}
}

// TestClientAsksForJSONResults: SELECT and ASK both ask for SPARQL JSON
// results, so an endpoint whose default is XML or HTML answers in the
// format the decoder reads.
func TestClientAsksForJSONResults(t *testing.T) {
	inner := demoServer(t)
	var asked []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked = append(asked, r.Header.Get("Accept"))
		body, _ := io.ReadAll(r.Body)
		proxied, err := http.Post(inner.URL, r.Header.Get("Content-Type"), bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer proxied.Body.Close()
		w.Header().Set("Content-Type", proxied.Header.Get("Content-Type"))
		io.Copy(w, proxied.Body)
	}))
	defer srv.Close()
	c := NewClient()
	if _, err := collect(c, srv.URL, `SELECT ?s WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AskContext(context.Background(), srv.URL, `ASK { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if want := []string{"application/sparql-results+json", "application/sparql-results+json"}; !slices.Equal(asked, want) {
		t.Fatalf("Accept headers %q, want %q", asked, want)
	}
}

func TestSelectOverHTTPGet(t *testing.T) {
	srv := demoServer(t)
	q := url.QueryEscape(`PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:p2 ex:author ?a }`)
	resp, err := http.Get(srv.URL + "?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestSelectOverHTTPRawBody(t *testing.T) {
	srv := demoServer(t)
	body := `PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:p1 ex:author ?a }`
	resp, err := http.Post(srv.URL, "application/sparql-query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAskOverHTTP(t *testing.T) {
	srv := demoServer(t)
	c := NewClient()
	yes, err := c.AskContext(context.Background(), srv.URL, `PREFIX ex: <http://example.org/> ASK { ex:p1 ex:author ex:bob }`)
	if err != nil || !yes {
		t.Fatalf("ask = %v %v", yes, err)
	}
	no, err := c.AskContext(context.Background(), srv.URL, `PREFIX ex: <http://example.org/> ASK { ex:p2 ex:author ex:bob }`)
	if err != nil || no {
		t.Fatalf("ask = %v %v", no, err)
	}
}

func TestConstructOverHTTP(t *testing.T) {
	srv := demoServer(t)
	resp, err := http.Post(srv.URL, "application/sparql-query", strings.NewReader(`
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
CONSTRUCT { ?p foaf:name ?n } WHERE { ?p ex:name ?n }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || !strings.HasPrefix(ct, "application/n-triples") {
		t.Fatalf("status %d, content type %q", resp.StatusCode, ct)
	}
	g, err := ntriples.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("constructed = %v", g)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := demoServer(t)
	// missing query
	resp, _ := http.Get(srv.URL)
	if resp.StatusCode != 400 {
		t.Fatalf("missing query status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// bad query
	resp, _ = http.Get(srv.URL + "?query=" + url.QueryEscape("SELECT WHERE"))
	if resp.StatusCode != 400 {
		t.Fatalf("bad query status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// bad method
	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != 405 {
		t.Fatalf("bad method status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestClientErrorPaths(t *testing.T) {
	c := NewClient()
	if _, err := collect(c, "http://127.0.0.1:1", "SELECT ?x WHERE { ?x ?p ?o }"); err == nil {
		t.Fatal("unreachable endpoint must error")
	}
	srv := demoServer(t)
	if _, err := collect(c, srv.URL, "NOT SPARQL"); err == nil {
		t.Fatal("server-side parse error must propagate")
	}
	// Ask on a SELECT response type mismatch
	if _, err := c.AskContext(context.Background(), srv.URL, `PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:p1 ex:author ?a }`); err == nil {
		t.Fatal("type mismatch must error")
	}
	if _, err := collect(c, srv.URL, `PREFIX ex: <http://example.org/> ASK { ex:p1 ex:author ex:bob }`); err == nil {
		t.Fatal("type mismatch must error")
	}
}

func BenchmarkEndToEndSelect(b *testing.B) {
	srv := demoServer(b)
	c := NewClient()
	q := `PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:p1 ex:author ?a }`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(c, srv.URL, q); err != nil {
			b.Fatal(err)
		}
	}
}
