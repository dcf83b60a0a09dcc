package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
)

// The local:// scheme serves a SPARQL endpoint in-process: requests to
// local://<name>/sparql are dispatched straight to a registered
// http.Handler over an io.Pipe instead of a TCP connection. A store
// served this way is addressed by the planner / decomposer / federation
// layers through the exact same client code path as a remote endpoint —
// same streaming decoder, same counting reader, no HTTP hop. Tests and
// the allocation guards federate over it; the view tier does not: it
// evaluates its stores directly.

// localRegistry maps endpoint names (the host part of a local:// URL) to
// in-process handlers.
var (
	localMu       sync.RWMutex
	localRegistry = map[string]http.Handler{}
)

// RegisterLocal installs (or replaces) the in-process handler for
// local://<name>/... URLs issued through clients built by NewClient.
func RegisterLocal(name string, h http.Handler) {
	localMu.Lock()
	defer localMu.Unlock()
	localRegistry[name] = h
}

// UnregisterLocal removes a previously registered in-process handler.
func UnregisterLocal(name string) {
	localMu.Lock()
	defer localMu.Unlock()
	delete(localRegistry, name)
}

// LocalURL returns the endpoint URL addressing the named in-process
// handler, in the shape the rest of the system stores in voiD
// sparqlEndpoint descriptions.
func LocalURL(name string) string { return "local://" + name + "/sparql" }

func lookupLocal(name string) (http.Handler, bool) {
	localMu.RLock()
	defer localMu.RUnlock()
	h, ok := localRegistry[name]
	return h, ok
}

// localTransport routes local:// requests to registered handlers and
// delegates everything else to the wrapped network transport.
type localTransport struct {
	next http.RoundTripper
}

func (t *localTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "local" {
		return t.next.RoundTrip(req)
	}
	h, ok := lookupLocal(req.URL.Host)
	if !ok {
		return nil, fmt.Errorf("endpoint: no local endpoint %q registered", req.URL.Host)
	}
	ctx := req.Context()
	if ctx.Err() != nil { // a request cancelled before it is sent reaches no handler
		return nil, context.Cause(ctx)
	}
	// The handler runs concurrently and streams its response body through
	// a pipe, so the caller's incremental decoder sees solutions as they
	// are produced — the same first-byte behaviour as a flushed chunked
	// HTTP response.
	pr, pw := io.Pipe()
	w := &localResponseWriter{header: make(http.Header), pw: pw, ready: make(chan struct{})}
	w.entered.Add(1)
	inner := req.Clone(ctx)
	inner.URL = &url.URL{Scheme: "http", Host: req.URL.Host, Path: req.URL.Path, RawQuery: req.URL.RawQuery}
	inner.RequestURI = ""
	go func() {
		// net/http recovers handler panics; this in-process transport must
		// too, or RoundTrip blocks on <-w.ready forever and body readers
		// hang on a never-closed pipe.
		defer func() {
			if r := recover(); r != nil {
				w.fail(http.StatusInternalServerError)
				pw.CloseWithError(fmt.Errorf("endpoint: local handler %q panicked: %v", req.URL.Host, r))
				return
			}
			w.finish()
			// A handler that ended because the request was cancelled cut its
			// body short: the reader sees the cancellation's cause, not an
			// unexpected end of the document (nil cause: a clean io.EOF).
			pw.CloseWithError(context.Cause(ctx))
		}()
		w.entered.Done()
		h.ServeHTTP(w, inner)
	}()
	// The caller's deadline holds while the handler has not answered yet:
	// the handler's writes then fail with the same cause. Even so the
	// round trip returns only once its handler has been entered, as a
	// network one returns only once its request was sent: no handler
	// starts after its caller has moved on.
	select {
	case <-w.ready:
	case <-ctx.Done():
		w.entered.Wait()
		pr.CloseWithError(context.Cause(ctx))
		return nil, context.Cause(ctx)
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          pr,
		ContentLength: -1,
		Request:       req,
	}, nil
}

// localResponseWriter adapts the pipe's write end to http.ResponseWriter.
// The response (status + headers) is released to the waiting RoundTrip on
// WriteHeader, first Write, or handler return — whichever comes first.
type localResponseWriter struct {
	header  http.Header
	pw      *io.PipeWriter
	status  int
	once    sync.Once
	ready   chan struct{}
	entered sync.WaitGroup // done as the handler is called
}

func (w *localResponseWriter) Header() http.Header { return w.header }

func (w *localResponseWriter) WriteHeader(code int) {
	w.once.Do(func() {
		w.status = code
		close(w.ready)
	})
}

func (w *localResponseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// Flush is a no-op — pipe writes are visible to the reader immediately —
// but its presence lets streaming handlers take their flushing path.
func (w *localResponseWriter) Flush() {}

func (w *localResponseWriter) finish() { w.WriteHeader(http.StatusOK) }

// fail releases a still-waiting RoundTrip with the given status; if the
// handler already committed a status before panicking, that one stands
// and the error surfaces through the pipe instead.
func (w *localResponseWriter) fail(code int) { w.WriteHeader(code) }
