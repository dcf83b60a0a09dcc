// Package endpoint implements the SPARQL protocol over HTTP: a server
// exposing a triple store as a query endpoint (standing in for the remote
// SPARQL/HTTP data sets of the paper's Figure 5) and a client used by the
// mediator to execute rewritten queries remotely.
//
// Both sides are streaming-first: the server evaluates SELECT queries
// lazily and writes the solutions as they are produced (chunked, the
// first flushed at once, the rest srjson.FlushEvery at a time), and the
// client's SelectStream decodes response bodies incrementally, so neither
// side ever holds a whole result set (or a whole response body) in
// memory.
package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/ntriples"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
	"sparqlrw/internal/srjson"
)

// DefaultMaxRequestBody caps POST query bodies read by the server.
const DefaultMaxRequestBody = 1 << 20 // 1 MB

// DefaultMaxResponseBody caps the buffered (non-streaming) client paths:
// ASK responses and error bodies. The streaming SELECT path decodes
// incrementally and needs no whole-body cap.
const DefaultMaxResponseBody = 64 << 20 // 64 MB

// Server serves SPARQL queries over one store.
type Server struct {
	Engine *eval.Engine
	// Name labels the endpoint in diagnostics.
	Name string
	// MaxRequestBody caps how many bytes of a POST body are read
	// (0 = DefaultMaxRequestBody; negative = unlimited).
	MaxRequestBody int64
}

// NewServer wraps a triple source (in this repo always a *store.Store)
// as a SPARQL protocol server.
func NewServer(name string, st eval.TripleSource) *Server {
	return &Server{Engine: eval.New(st), Name: name}
}

func (s *Server) maxRequestBody() int64 {
	if s.MaxRequestBody == 0 {
		return DefaultMaxRequestBody
	}
	return s.MaxRequestBody
}

// ServeHTTP handles the SPARQL protocol:
//
//	GET  /sparql?query=...            (query in URL)
//	POST /sparql  application/x-www-form-urlencoded  query=...
//	POST /sparql  application/sparql-query            <body is the query>
//
// SELECT and ASK return application/sparql-results+json; CONSTRUCT and
// DESCRIBE return N-Triples. SELECT responses are streamed: the query is
// compiled once, and each positional row the evaluator yields is encoded
// straight from the evaluator's own (reused) row before the next one is
// asked for — no solution map is built on this path. The encoder writes
// and flushes the first binding at once, so it is on the wire before
// evaluation finishes, and the later ones a block at a time; a cancelled
// request (client disconnect) stops evaluation at the next row.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var queryText string
	switch r.Method {
	case http.MethodGet:
		queryText = r.URL.Query().Get("query")
	case http.MethodPost:
		if limit := s.maxRequestBody(); limit > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		ct := r.Header.Get("Content-Type")
		switch {
		case strings.HasPrefix(ct, "application/sparql-query"):
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "cannot read body", http.StatusBadRequest)
				return
			}
			queryText = string(body)
		default:
			if err := r.ParseForm(); err != nil {
				http.Error(w, "cannot parse form", http.StatusBadRequest)
				return
			}
			queryText = r.PostForm.Get("query")
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if strings.TrimSpace(queryText) == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	q, err := sparql.Parse(queryText)
	if err != nil {
		http.Error(w, fmt.Sprintf("parse error: %v", err), http.StatusBadRequest)
		return
	}
	switch q.Form {
	case sparql.Select:
		rr, err := s.Engine.SelectRows(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		// From here on a write error can no longer change the status line;
		// aborting leaves truncated JSON, which the client's incremental
		// decoder reports as an error.
		enc, err := srjson.NewStreamEncoder(w, rr.Vars)
		if err != nil {
			return
		}
		// The encoder flushes w at its flush points.
		ctx := r.Context()
		for row := range rr.Seq {
			// A cancelled request (client gone) stops evaluation here.
			if ctx.Err() != nil {
				_ = enc.Fail(ctx.Err())
				return
			}
			if enc.EncodeRow(row) != nil {
				return
			}
		}
		_ = enc.Close() // nothing left to tell a client that stopped reading
	case sparql.Ask:
		b, err := s.Engine.Ask(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data, err := srjson.EncodeAsk(b)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		_, _ = w.Write(data)
	case sparql.Construct, sparql.Describe:
		var g rdf.Graph
		if q.Form == sparql.Construct {
			g, err = s.Engine.Construct(q)
		} else {
			g, err = s.Engine.Describe(q)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/n-triples")
		_, _ = w.Write([]byte(ntriples.Format(g.Sort())))
	default:
		http.Error(w, "unsupported query form", http.StatusBadRequest)
	}
}

// Client executes SPARQL queries against remote endpoints via HTTP, the
// "SPARQL/HTTP" arrows of Figure 5.
type Client struct {
	HTTP *http.Client
	// MaxResponseBody caps the buffered response paths — ASK and error
	// bodies (0 = DefaultMaxResponseBody; negative = unlimited).
	// Streaming SELECT responses decode incrementally and are not subject
	// to it.
	MaxResponseBody int64
}

// sharedTransport is the one transport every endpoint.Client shares: the
// mediator fans a query out to many repositories concurrently and on
// every request, so connections must be pooled and kept alive rather
// than re-dialled per call (and per-endpoint limits must not be the Go
// defaults of 2 idle connections per host). Only the transport is shared
// — each Client owns its http.Client, so mutating one client's fields
// cannot affect another's.
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        128,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
	ForceAttemptHTTP2:   true,
}

// defaultTimeout bounds requests whose context carries no deadline. It is
// applied per request rather than as http.Client.Timeout, which would
// silently cap caller-supplied context deadlines. For streams it bounds
// the whole response body read.
const defaultTimeout = 30 * time.Second

// NewClient returns a client backed by the shared pooled transport,
// wrapped so that local:// URLs are dispatched in-process (see
// RegisterLocal) while everything else goes over the network.
func NewClient() *Client {
	return &Client{HTTP: &http.Client{Transport: &localTransport{next: sharedTransport}}}
}

func (c *Client) maxResponseBody() int64 {
	if c.MaxResponseBody == 0 {
		return DefaultMaxResponseBody
	}
	return c.MaxResponseBody
}

// SelectStream is an in-flight SELECT response: solutions decode from the
// wire on demand. Close releases the connection (and any internal
// deadline) and must always be called; it is safe to call twice.
type SelectStream struct {
	endpoint string
	dec      *srjson.StreamDecoder
	body     io.ReadCloser
	counted  *countingReader
	cancel   context.CancelFunc
	closed   bool
}

// countingReader counts the bytes read through it, so the federation
// layer can annotate each sub-query with its transfer size.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// SelectStreamContext opens a streaming SELECT against the endpoint URL.
// The returned stream decodes the response body incrementally: NextRow
// decodes each solution as it arrives, io.EOF ends a well-formed stream,
// and ctx's cancellation tears the transfer down mid-body.
func (c *Client) SelectStreamContext(ctx context.Context, endpointURL, queryText string) (*SelectStream, error) {
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); !ok {
		ctx, cancel = context.WithTimeout(ctx, defaultTimeout)
	}
	resp, err := c.do(ctx, endpointURL, queryText)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	counted := &countingReader{r: resp.Body}
	dec, err := srjson.NewStreamDecoder(counted)
	if err != nil {
		resp.Body.Close()
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	return &SelectStream{endpoint: endpointURL, dec: dec, body: resp.Body, counted: counted, cancel: cancel}, nil
}

// Bytes returns how many response-body bytes have been read so far.
func (s *SelectStream) Bytes() int64 { return s.counted.n.Load() }

// NextRow decodes the next solution into the caller's row over the
// caller's slot table (see srjson.StreamDecoder.NextRow). It returns io.EOF
// at the clean end of the stream, or the decode/transport error that
// terminated it.
func (s *SelectStream) NextRow(vars []string, row eval.Row) error {
	err := s.dec.NextRow(vars, row)
	if err == io.EOF && !s.dec.SawResults() {
		return fmt.Errorf("endpoint: expected SELECT results from %s", s.endpoint)
	}
	return err
}

// RowBuffered reports whether the next row has probably arrived already
// (see srjson.StreamDecoder.RowBuffered).
func (s *SelectStream) RowBuffered() bool { return s.dec.RowBuffered() }

// Close releases the underlying connection. Closing before the stream is
// drained discards the remainder of the body.
func (s *SelectStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	// Drained streams leave the connection reusable; abandoned ones are
	// torn down by the cancel.
	err := s.body.Close()
	if s.cancel != nil {
		s.cancel()
	}
	return err
}

// SelectRowStream opens a streaming SELECT behind the neutral
// eval.RowStream interface; the federation executor type-asserts this
// capability on its client to merge endpoint streams without buffering
// them.
func (c *Client) SelectRowStream(ctx context.Context, endpointURL, queryText string) (eval.RowStream, error) {
	return c.SelectStreamContext(ctx, endpointURL, queryText)
}

// AskContext runs an ASK query, honouring ctx's cancellation and deadline.
func (c *Client) AskContext(ctx context.Context, endpointURL, queryText string) (bool, error) {
	body, err := c.post(ctx, endpointURL, queryText)
	if err != nil {
		return false, err
	}
	_, b, err := srjson.Decode(body)
	if err != nil {
		return false, err
	}
	if b == nil {
		return false, fmt.Errorf("endpoint: expected boolean result from %s", endpointURL)
	}
	return *b, nil
}

// The direct POST's header values: net/http only reads a request's
// header slices, so every request shares these and sets them for free.
var (
	sparqlQueryType   = []string{"application/sparql-query"}
	sparqlResultsJSON = []string{"application/sparql-results+json"}
)

// do issues the protocol's direct POST — the query text as the body,
// unescaped, under Content-Type application/sparql-query, asking for SPARQL
// JSON results (a SELECT's or an ASK's, the only forms the client sends),
// which an endpoint with another default format would otherwise not
// answer in — and returns the (status-checked) response with its body
// still unread, for streaming consumption.
func (c *Client) do(ctx context.Context, endpointURL, queryText string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpointURL, strings.NewReader(queryText))
	if err != nil {
		return nil, fmt.Errorf("endpoint: %w", err)
	}
	req.Header["Content-Type"] = sparqlQueryType
	req.Header["Accept"] = sparqlResultsJSON
	// Propagate W3C Trace Context: when the caller's context carries a
	// span (the executor's per-attempt span), the endpoint receives a
	// child traceparent and can stitch its own trace under ours.
	if tp := obs.TraceparentFrom(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
		if ts := obs.TracestateFrom(ctx); ts != "" {
			req.Header.Set("tracestate", ts)
		}
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("endpoint: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(limitReader(resp.Body, c.maxResponseBody()))
		resp.Body.Close()
		return nil, fmt.Errorf("endpoint: %s returned %d: %s", endpointURL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

// post issues the protocol's direct POST and buffers the whole response
// body, for the non-streaming ASK path.
func (c *Client) post(ctx context.Context, endpointURL, queryText string) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, defaultTimeout)
		defer cancel()
	}
	resp, err := c.do(ctx, endpointURL, queryText)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(limitReader(resp.Body, c.maxResponseBody()))
	if err != nil {
		return nil, fmt.Errorf("endpoint: reading response: %w", err)
	}
	return body, nil
}

func limitReader(r io.Reader, limit int64) io.Reader {
	if limit < 0 {
		return r
	}
	return io.LimitReader(r, limit)
}
