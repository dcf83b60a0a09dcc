package federate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/core"
	"sparqlrw/internal/coref"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// fakeClient routes dispatches to per-endpoint handlers and counts them;
// it lets the executor be tested without HTTP. A handler's canned result
// is served as a fakeStream.
type fakeClient struct {
	mu       sync.Mutex
	calls    map[string]int
	handlers map[string]func(ctx context.Context, call int) (*eval.Result, error)
}

func newFakeClient() *fakeClient {
	return &fakeClient{
		calls:    map[string]int{},
		handlers: map[string]func(context.Context, int) (*eval.Result, error){},
	}
}

func (f *fakeClient) on(url string, h func(ctx context.Context, call int) (*eval.Result, error)) {
	f.handlers[url] = h
}

func (f *fakeClient) callCount(url string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[url]
}

func (f *fakeClient) stream(ctx context.Context, url string) (*fakeStream, error) {
	f.mu.Lock()
	f.calls[url]++
	call := f.calls[url]
	h := f.handlers[url]
	f.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("no handler for %s", url)
	}
	res, err := h(ctx, call)
	if err != nil {
		return nil, err
	}
	return &fakeStream{vars: res.Vars, sols: res.Solutions, ctx: ctx}, nil
}

func (f *fakeClient) SelectRowStream(ctx context.Context, url, query string) (eval.RowStream, error) {
	s, err := f.stream(ctx, url)
	if err != nil {
		return nil, err // not a typed-nil RowStream
	}
	return s, nil
}

func answers(uris ...string) *eval.Result {
	res := &eval.Result{Vars: []string{"a"}}
	for _, u := range uris {
		res.Solutions = append(res.Solutions, eval.Solution{"a": rdf.NewIRI(u)})
	}
	return res
}

func fastOpts() Options {
	return Options{
		Concurrency:     4,
		EndpointTimeout: time.Second,
		MaxRetries:      -1,
		RetryBackoff:    time.Millisecond,
		BreakerCooldown: time.Hour, // never half-opens unless a test wants it
	}
}

// reqQuery is the query every test request runs, and reqText what a
// target that needs no rewriting receives for it.
var (
	reqQuery = sparql.MustParse("SELECT ?a WHERE { ?p ?x ?a }")
	reqText  = sparql.Format(reqQuery)
)

func req(targets ...Target) Request {
	for i := range targets {
		if targets[i].Query == nil {
			targets[i].Query = reqQuery
		}
	}
	return Request{Vars: []string{"a"}, Targets: targets}
}

// TestFanOutMergesAndDeduplicates: three endpoints answer with
// overlapping entities in different URI spaces; the merge collapses them
// via owl:sameAs and counts the duplicates.
func TestFanOutMergesAndDeduplicates(t *testing.T) {
	cs := coref.NewStore()
	cs.Add("http://a.example/1", "http://b.example/1")
	fc := newFakeClient()
	fc.on("ep1", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/1", "http://a.example/2"), nil
	})
	fc.on("ep2", func(context.Context, int) (*eval.Result, error) {
		return answers("http://b.example/1"), nil // sameAs a.example/1
	})
	fc.on("ep3", func(context.Context, int) (*eval.Result, error) {
		return answers("http://c.example/3"), nil
	})
	e := NewExecutor(fc, nil, cs, fastOpts())
	res, err := e.Select(context.Background(),
		req(Target{Dataset: "d1", Endpoint: "ep1"}, Target{Dataset: "d2", Endpoint: "ep2"},
			Target{Dataset: "d3", Endpoint: "ep3"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %d, want 3 (%v)", len(res.Solutions), res.Solutions)
	}
	if res.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", res.Duplicates)
	}
	if res.Partial {
		t.Fatal("all endpoints healthy: result must not be partial")
	}
	// PerDataset preserves target order.
	for i, want := range []string{"d1", "d2", "d3"} {
		if res.PerDataset[i].Dataset != want {
			t.Fatalf("PerDataset[%d] = %s, want %s", i, res.PerDataset[i].Dataset, want)
		}
	}
	if res.PerDataset[0].Solutions != 2 || res.PerDataset[0].Attempts != 1 {
		t.Fatalf("PerDataset[0] = %+v", res.PerDataset[0])
	}
}

// TestRetryRecovers: an endpoint that fails once then answers is retried
// and contributes its solutions.
func TestRetryRecovers(t *testing.T) {
	fc := newFakeClient()
	fc.on("flaky", func(_ context.Context, call int) (*eval.Result, error) {
		if call == 1 {
			return nil, errors.New("transient")
		}
		return answers("http://a.example/1"), nil
	})
	opts := fastOpts()
	opts.MaxRetries = 2
	e := NewExecutor(fc, nil, nil, opts)
	res, err := e.Select(context.Background(), req(Target{Dataset: "d", Endpoint: "flaky"}))
	if err != nil {
		t.Fatal(err)
	}
	da := res.PerDataset[0]
	if da.Err != nil || da.Attempts != 2 || da.Solutions != 1 {
		t.Fatalf("answer = %+v", da)
	}
	st := e.Stats()
	if len(st.Endpoints) != 1 || st.Endpoints[0].Retries != 1 || st.Endpoints[0].Failures != 1 {
		t.Fatalf("stats = %+v", st.Endpoints)
	}
}

// TestBreakerShieldsDeadEndpoint: after the failure threshold the breaker
// rejects requests without dispatching them.
func TestBreakerShieldsDeadEndpoint(t *testing.T) {
	fc := newFakeClient()
	fc.on("dead", func(context.Context, int) (*eval.Result, error) {
		return nil, errors.New("down")
	})
	opts := fastOpts()
	opts.BreakerFailures = 2
	e := NewExecutor(fc, nil, nil, opts)
	for i := 0; i < 2; i++ {
		if _, err := e.Select(context.Background(), req(Target{Dataset: "d", Endpoint: "dead"})); err != nil {
			t.Fatal(err)
		}
	}
	dispatched := fc.callCount("dead")
	if dispatched != 2 {
		t.Fatalf("dispatched = %d, want 2", dispatched)
	}
	res, err := e.Select(context.Background(), req(Target{Dataset: "d", Endpoint: "dead"}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.PerDataset[0].Err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", res.PerDataset[0].Err)
	}
	if fc.callCount("dead") != dispatched {
		t.Fatal("open breaker still dispatched a request")
	}
	st := e.Stats()
	if st.Endpoints[0].Breaker != "open" || st.Endpoints[0].Rejected == 0 {
		t.Fatalf("stats = %+v", st.Endpoints[0])
	}
}

// TestBreakerRecoversViaHalfOpenProbe: after the cooldown one probe is
// admitted; its success closes the circuit again.
func TestBreakerRecoversViaHalfOpenProbe(t *testing.T) {
	var healthy atomic.Bool
	fc := newFakeClient()
	fc.on("ep", func(context.Context, int) (*eval.Result, error) {
		if healthy.Load() {
			return answers("http://a.example/1"), nil
		}
		return nil, errors.New("down")
	})
	opts := fastOpts()
	opts.BreakerFailures = 1
	opts.BreakerCooldown = 10 * time.Millisecond
	e := NewExecutor(fc, nil, nil, opts)
	r := req(Target{Dataset: "d", Endpoint: "ep"})
	if _, err := e.Select(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Endpoints[0].Breaker; got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}
	healthy.Store(true)
	time.Sleep(20 * time.Millisecond)
	res, err := e.Select(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDataset[0].Err != nil || res.PerDataset[0].Solutions != 1 {
		t.Fatalf("probe answer = %+v", res.PerDataset[0])
	}
	if got := e.Stats().Endpoints[0].Breaker; got != "closed" {
		t.Fatalf("breaker = %s, want closed", got)
	}
}

// TestHangingEndpointTimesOut: a hung endpoint hits its per-attempt
// deadline while the healthy one still answers.
func TestHangingEndpointTimesOut(t *testing.T) {
	fc := newFakeClient()
	fc.on("hang", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	fc.on("ok", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/1"), nil
	})
	opts := fastOpts()
	opts.EndpointTimeout = 30 * time.Millisecond
	e := NewExecutor(fc, nil, nil, opts)
	start := time.Now()
	res, err := e.Select(context.Background(),
		req(Target{Dataset: "hung", Endpoint: "hang"}, Target{Dataset: "good", Endpoint: "ok"}))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fan-out blocked on the hung endpoint for %s", elapsed)
	}
	if !errors.Is(res.PerDataset[0].Err, context.DeadlineExceeded) {
		t.Fatalf("hung answer err = %v", res.PerDataset[0].Err)
	}
	if res.PerDataset[1].Err != nil || len(res.Solutions) != 1 {
		t.Fatalf("healthy endpoint's answers lost: %+v", res)
	}
	if !res.Partial {
		t.Fatal("result must be marked partial")
	}
}

// TestFailFastCancelsFanOut: under fail-fast the first endpoint error
// aborts the call and cancels the in-flight workers.
func TestFailFastCancelsFanOut(t *testing.T) {
	fc := newFakeClient()
	slowStarted := make(chan struct{})
	fc.on("bad", func(ctx context.Context, _ int) (*eval.Result, error) {
		// Fail only once the slow dispatch is in flight, so the
		// cancellation provably reaches an in-flight worker.
		select {
		case <-slowStarted:
		case <-time.After(2 * time.Second):
		}
		return nil, errors.New("boom")
	})
	released := make(chan struct{})
	fc.on("slow", func(ctx context.Context, _ int) (*eval.Result, error) {
		close(slowStarted)
		select {
		case <-ctx.Done():
			close(released)
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return answers("http://a.example/1"), nil
		}
	})
	opts := fastOpts()
	opts.FailFast = true
	opts.EndpointTimeout = 10 * time.Second
	e := NewExecutor(fc, nil, nil, opts)
	_, err := e.Select(context.Background(),
		req(Target{Dataset: "b", Endpoint: "bad"}, Target{Dataset: "s", Endpoint: "slow"}))
	if err == nil {
		t.Fatal("fail-fast must surface the endpoint error")
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight worker was not cancelled")
	}
}

// TestSingleflightRewrite: concurrent identical requests rewrite once.
func TestSingleflightRewrite(t *testing.T) {
	var rewrites atomic.Int64
	rewritten := sparql.MustParse("SELECT ?a WHERE { ?p <http://tgt/x> ?a }")
	rewrite := func(q *sparql.Query, lifted int, ds string) (*core.Template, error) {
		rewrites.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		if got := sparql.Format(q); got != reqText || lifted != 0 {
			t.Errorf("rewriter was handed %q with %d slots, not the request's query (it has no IRIs to lift)", got, lifted)
		}
		return &core.Template{Query: rewritten}, nil
	}
	fc := newFakeClient()
	fc.on("ep", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/1"), nil
	})
	e := NewExecutor(fc, rewrite, nil, fastOpts())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Select(context.Background(),
				req(Target{Dataset: "d", Endpoint: "ep", NeedsRewrite: true}))
			if err != nil {
				t.Error(err)
				return
			}
			if got := res.PerDataset[0].Query; got != sparql.Format(rewritten) {
				t.Errorf("query sent = %q", got)
			}
		}()
	}
	wg.Wait()
	if n := rewrites.Load(); n != 1 {
		t.Fatalf("rewrite ran %d times, want 1", n)
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 7 {
		t.Fatalf("cache hits/misses = %d/%d, want 7/1", st.CacheHits, st.CacheMisses)
	}
}

// TestConcurrencyBound: the worker pool never exceeds Options.Concurrency
// in-flight dispatches.
func TestConcurrencyBound(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	fc := newFakeClient()
	var targets []Target
	for i := 0; i < 12; i++ {
		url := fmt.Sprintf("ep%d", i)
		fc.on(url, func(context.Context, int) (*eval.Result, error) {
			cur := inFlight.Add(1)
			for {
				old := maxInFlight.Load()
				if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return answers(fmt.Sprintf("http://a.example/%d", i)), nil
		})
		targets = append(targets, Target{Dataset: url, Endpoint: url})
	}
	opts := fastOpts()
	opts.Concurrency = 3
	e := NewExecutor(fc, nil, nil, opts)
	if _, err := e.Select(context.Background(), req(targets...)); err != nil {
		t.Fatal(err)
	}
	if m := maxInFlight.Load(); m > 3 {
		t.Fatalf("max in-flight = %d, want <= 3", m)
	}
}

// TestCancellationDoesNotOpenBreakers: a fail-fast abort (or client
// disconnect) cancels healthy endpoints' in-flight requests; those
// cancellations must not count as endpoint failures or open breakers.
func TestCancellationDoesNotOpenBreakers(t *testing.T) {
	fc := newFakeClient()
	fc.on("bad", func(context.Context, int) (*eval.Result, error) {
		return nil, errors.New("boom")
	})
	fc.on("healthy", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-ctx.Done() // in flight until the fail-fast abort cancels it
		return nil, ctx.Err()
	})
	opts := fastOpts()
	opts.FailFast = true
	opts.BreakerFailures = 1
	opts.EndpointTimeout = 10 * time.Second
	e := NewExecutor(fc, nil, nil, opts)
	if _, err := e.Select(context.Background(),
		req(Target{Dataset: "b", Endpoint: "bad"}, Target{Dataset: "h", Endpoint: "healthy"})); err == nil {
		t.Fatal("fail-fast must surface the endpoint error")
	}
	for _, es := range e.Stats().Endpoints {
		if es.Endpoint == "healthy" && (es.Failures != 0 || es.Breaker != "closed") {
			t.Fatalf("healthy endpoint blamed for the abort: %+v", es)
		}
	}
}

// TestRewriteErrorReported: a failing rewrite is reported per data set
// without dispatching to the endpoint.
func TestRewriteErrorReported(t *testing.T) {
	rewrite := func(*sparql.Query, int, string) (*core.Template, error) {
		return nil, errors.New("no alignments")
	}
	fc := newFakeClient()
	e := NewExecutor(fc, rewrite, nil, fastOpts())
	res, err := e.Select(context.Background(),
		req(Target{Dataset: "d", Endpoint: "ep", NeedsRewrite: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDataset[0].Err == nil || res.PerDataset[0].Attempts != 0 {
		t.Fatalf("answer = %+v", res.PerDataset[0])
	}
	if fc.callCount("ep") != 0 {
		t.Fatal("endpoint dispatched despite rewrite failure")
	}
}
