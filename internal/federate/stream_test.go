package federate

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// fakeStream hands out pre-scripted solutions, optionally gating each
// Next on a channel so tests control exactly when solutions "arrive".
type fakeStream struct {
	vars  []string
	sols  []eval.Solution
	gates []chan struct{} // optional; gate[i] blocks solution i
	// failAfter, when non-nil, is returned instead of io.EOF once the
	// scripted solutions are exhausted (a mid-stream transport error).
	failAfter error
	i         int
	ctx       context.Context
	closed    atomic.Bool
}

func (s *fakeStream) NextRow(vars []string, row eval.Row) error {
	if s.i >= len(s.sols) {
		if s.failAfter != nil {
			return s.failAfter
		}
		return io.EOF
	}
	if s.gates != nil && s.gates[s.i] != nil {
		select {
		case <-s.gates[s.i]:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	for i, v := range vars {
		row[i] = s.sols[s.i][v]
	}
	s.i++
	return nil
}

// RowBuffered: a scripted row is "on the wire" unless its gate still holds it.
func (s *fakeStream) RowBuffered() bool {
	return s.i < len(s.sols) && (s.gates == nil || s.gates[s.i] == nil)
}

func (s *fakeStream) Close() error { s.closed.Store(true); return nil }

// fakeStreamClient serves scripted streams, and fakeClient's canned
// results where a URL has none; it records every stream it opens.
type fakeStreamClient struct {
	*fakeClient
	mu      sync.Mutex
	streams map[string]func(ctx context.Context) *fakeStream
	opened  []*fakeStream
}

func newFakeStreamClient() *fakeStreamClient {
	return &fakeStreamClient{
		fakeClient: newFakeClient(),
		streams:    map[string]func(ctx context.Context) *fakeStream{},
	}
}

func (f *fakeStreamClient) onStream(url string, h func(ctx context.Context) *fakeStream) {
	f.streams[url] = h
}

func (f *fakeStreamClient) SelectRowStream(ctx context.Context, url, query string) (eval.RowStream, error) {
	f.mu.Lock()
	h := f.streams[url]
	f.mu.Unlock()
	var s *fakeStream
	if h != nil {
		s = h(ctx)
		s.ctx = ctx
	} else {
		var err error
		if s, err = f.stream(ctx, url); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	f.opened = append(f.opened, s)
	f.mu.Unlock()
	return s, nil
}

// TestSelectStreamFirstSolutionBeforeSlowEndpoint: the merged stream must
// deliver the fast endpoint's solution while the slow endpoint is still
// blocked mid-stream.
func TestSelectStreamFirstSolutionBeforeSlowEndpoint(t *testing.T) {
	fc := newFakeStreamClient()
	slowGate := make(chan struct{})
	fc.onStream("http://fast/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"}, sols: answers("http://x/fast").Solutions}
	})
	fc.onStream("http://slow/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"}, sols: answers("http://x/slow").Solutions,
			gates: []chan struct{}{slowGate}}
	})
	e := NewExecutor(fc, nil, nil, fastOpts())
	s := e.SelectStream(context.Background(), req(
		Target{Dataset: "http://fast/", Endpoint: "http://fast/sparql"},
		Target{Dataset: "http://slow/", Endpoint: "http://slow/sparql"},
	))
	defer s.Close()

	firstCh := make(chan rdf.Term, 1)
	go func() {
		row, err := s.Next()
		if err != nil {
			t.Error(err)
		}
		firstCh <- row[0]
	}()
	select {
	case a := <-firstCh:
		if a.Value != "http://x/fast" {
			t.Fatalf("first solution = %v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no solution while slow endpoint pending")
	}
	close(slowGate)
	if row, err := s.Next(); err != nil || row[0].Value != "http://x/slow" {
		t.Fatalf("second solution = %v %v", row, err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end = %v", err)
	}
	res, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDataset) != 2 || res.PerDataset[0].Err != nil || res.PerDataset[1].Err != nil {
		t.Fatalf("per-dataset = %+v", res.PerDataset)
	}
	if res.Solutions != nil {
		t.Fatalf("streaming summary must not buffer solutions, got %d", len(res.Solutions))
	}
}

// TestSelectStreamCloseCancelsUpstream: closing the stream mid-way tears
// down the in-flight endpoint stream.
func TestSelectStreamCloseCancelsUpstream(t *testing.T) {
	fc := newFakeStreamClient()
	gate := make(chan struct{}) // never released: only cancellation frees it
	fc.onStream("http://a/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"},
			sols:  answers("http://x/1", "http://x/2").Solutions,
			gates: []chan struct{}{nil, gate}}
	})
	e := NewExecutor(fc, nil, nil, fastOpts())
	s := e.SelectStream(context.Background(), req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"}))
	if row, err := s.Next(); err != nil || row[0].Value != "http://x/1" {
		t.Fatalf("first = %v %v", row, err)
	}
	s.Close()
	res, err := s.Summary() // must unblock despite the held gate
	if res == nil || err != nil {
		t.Fatalf("summary after Close = %v %v", res, err)
	}
	// Deliberate abandonment is not an upstream failure.
	if res.Partial {
		t.Fatalf("Close marked the result partial: %+v", res.PerDataset)
	}
	for _, da := range res.PerDataset {
		if da.Err != nil && !errors.Is(da.Err, ErrStreamClosed) {
			t.Fatalf("Close reported an upstream failure: %v", da.Err)
		}
	}
	fc.mu.Lock()
	opened := append([]*fakeStream(nil), fc.opened...)
	fc.mu.Unlock()
	if len(opened) == 0 {
		t.Fatal("no stream opened")
	}
	for _, st := range opened {
		if !st.closed.Load() {
			t.Fatal("endpoint stream not closed after Close")
		}
	}
}

// TestSelectDrainsStreamEquivalently: the buffered Select over a
// streaming client matches the old semantics (merged, deduplicated,
// sorted).
func TestSelectDrainsStreamEquivalently(t *testing.T) {
	fc := newFakeStreamClient()
	fc.on("http://a/sparql", func(ctx context.Context, call int) (*eval.Result, error) {
		return answers("http://x/1", "http://x/2"), nil
	})
	fc.on("http://b/sparql", func(ctx context.Context, call int) (*eval.Result, error) {
		return answers("http://x/2", "http://x/3"), nil
	})
	e := NewExecutor(fc, nil, nil, fastOpts())
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"},
		Target{Dataset: "http://b/", Endpoint: "http://b/sparql"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 || res.Duplicates != 1 {
		t.Fatalf("solutions=%d duplicates=%d", len(res.Solutions), res.Duplicates)
	}
}

// TestPerEndpointConcurrencyBound: six shards against one endpoint with
// PerEndpointConcurrency=2 must never have more than two in flight, even
// though the global pool admits more.
func TestPerEndpointConcurrencyBound(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	fc := newFakeClient()
	fc.on("http://a/sparql", func(ctx context.Context, call int) (*eval.Result, error) {
		n := inFlight.Add(1)
		for {
			old := maxInFlight.Load()
			if n <= old || maxInFlight.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inFlight.Add(-1)
		return answers("http://x/1"), nil
	})
	opts := fastOpts()
	opts.Concurrency = 8
	opts.PerEndpointConcurrency = 2
	e := NewExecutor(fc, nil, nil, opts)
	var targets []Target
	for i := 0; i < 6; i++ {
		targets = append(targets, Target{Dataset: "http://a/", Endpoint: "http://a/sparql",
			Shard: i + 1, Shards: 6})
	}
	if _, err := e.Select(context.Background(), req(targets...)); err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got > 2 {
		t.Fatalf("max in-flight = %d, want <= 2", got)
	}
	if fc.callCount("http://a/sparql") != 6 {
		t.Fatalf("calls = %d", fc.callCount("http://a/sparql"))
	}
}

// TestStreamMidStreamFailureRetries: an endpoint stream that dies after
// yielding one solution is retried, and the merge absorbs the re-pushed
// prefix as duplicates.
func TestStreamMidStreamFailureRetries(t *testing.T) {
	fc := newFakeStreamClient()
	var call atomic.Int64
	fc.onStream("http://flaky/sparql", func(ctx context.Context) *fakeStream {
		if call.Add(1) == 1 {
			// First attempt: one good solution, then a broken connection.
			return &fakeStream{vars: []string{"a"},
				sols:      answers("http://x/1").Solutions,
				failAfter: errors.New("connection reset mid-body")}
		}
		return &fakeStream{vars: []string{"a"},
			sols: answers("http://x/1", "http://x/2").Solutions}
	})
	opts := fastOpts()
	opts.MaxRetries = 1
	e := NewExecutor(fc, nil, nil, opts)
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://flaky/", Endpoint: "http://flaky/sparql"}))
	if err != nil {
		t.Fatal(err)
	}
	if call.Load() != 2 {
		t.Fatalf("attempts = %d", call.Load())
	}
	if res.PerDataset[0].Err != nil || res.PerDataset[0].Attempts != 2 {
		t.Fatalf("per-dataset = %+v", res.PerDataset[0])
	}
	// Both solutions present exactly once; the retried prefix deduped.
	if len(res.Solutions) != 2 || res.Duplicates != 1 {
		t.Fatalf("solutions=%d duplicates=%d", len(res.Solutions), res.Duplicates)
	}
}
