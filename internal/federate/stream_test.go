package federate

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/raceflag"
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

// TestSelectStreamFirstSolutionBeforeSlowEndpoint: Run must push the fast
// endpoint's solution into yield while the slow endpoint is still blocked
// mid-stream.
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
	rows := make(chan string)
	var (
		res *Result
		err error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = e.Select(context.Background(), req(
			Target{Dataset: "http://fast/", Endpoint: "http://fast/sparql"},
			Target{Dataset: "http://slow/", Endpoint: "http://slow/sparql"},
		)).Run(func(row eval.Row) bool {
			rows <- row[0].Value
			return true
		})
	}()
	next := func() string {
		select {
		case a := <-rows:
			return a
		case <-time.After(5 * time.Second):
			t.Fatal("no solution while slow endpoint pending")
			return ""
		}
	}
	if a := next(); a != "http://x/fast" {
		t.Fatalf("first solution = %v", a)
	}
	close(slowGate)
	if a := next(); a != "http://x/slow" {
		t.Fatalf("second solution = %v", a)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDataset) != 2 || res.PerDataset[0].Err != nil || res.PerDataset[1].Err != nil {
		t.Fatalf("per-dataset = %+v", res.PerDataset)
	}
	if res.Solutions != nil {
		t.Fatalf("Run must not buffer solutions, got %d", len(res.Solutions))
	}
}

// TestSelectStreamCloseCancelsUpstream: a yield that returns false
// mid-way tears down the in-flight endpoint stream, and the abandoned
// sub-query is no upstream failure.
func TestSelectStreamCloseCancelsUpstream(t *testing.T) {
	fc := newFakeStreamClient()
	gate := make(chan struct{}) // never released: only cancellation frees it
	fc.onStream("http://a/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"},
			sols:  answers("http://x/1", "http://x/2").Solutions,
			gates: []chan struct{}{nil, gate}}
	})
	e := NewExecutor(fc, nil, nil, fastOpts())
	var got []string
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"})).Run(func(row eval.Row) bool {
		got = append(got, row[0].Value)
		return false
	}) // must return despite the held gate
	if len(got) != 1 || got[0] != "http://x/1" {
		t.Fatalf("rows = %v, want the first only", got)
	}
	if res == nil || err != nil {
		t.Fatalf("Run after a stop = %v %v", res, err)
	}
	// Deliberate abandonment is not an upstream failure.
	if res.Partial {
		t.Fatalf("a stop marked the result partial: %+v", res.PerDataset)
	}
	for _, da := range res.PerDataset {
		if da.Err != nil && !errors.Is(da.Err, ErrStreamClosed) {
			t.Fatalf("a stop reported an upstream failure: %v", da.Err)
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
			t.Fatal("endpoint stream not closed after the stop")
		}
	}
}

// TestRunStopLeavesNothingRunning: a yield that returns false after the
// first row, while a second endpoint holds its answer, makes Run return
// promptly with that sub-query abandoned, not failed, and with no
// goroutine of the fan-out left behind.
func TestRunStopLeavesNothingRunning(t *testing.T) {
	fc := newFakeStreamClient()
	heldOpen := make(chan struct{})
	fc.onStream("http://a/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"}, sols: answers("http://x/1").Solutions}
	})
	fc.onStream("http://held/sparql", func(ctx context.Context) *fakeStream {
		close(heldOpen)
		return &fakeStream{vars: []string{"a"}, sols: answers("http://x/2").Solutions,
			gates: []chan struct{}{make(chan struct{})}} // only cancellation frees it
	})
	e := NewExecutor(fc, nil, nil, fastOpts())
	baseline := runtime.NumGoroutine()
	rows := 0
	var stopped time.Time
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"},
		Target{Dataset: "http://held/", Endpoint: "http://held/sparql"},
	)).Run(func(eval.Row) bool {
		rows++
		<-heldOpen // the held sub-query is in flight when the stop comes
		stopped = time.Now()
		return false
	})
	if took := time.Since(stopped); took > 2*time.Second {
		t.Fatalf("Run returned %v after the stop", took)
	}
	if err != nil || rows != 1 {
		t.Fatalf("Run = %d rows, %v; want 1 row and no error", rows, err)
	}
	if res.Partial {
		t.Fatalf("a stop marked the result partial: %+v", res.PerDataset)
	}
	if held := res.PerDataset[1]; !errors.Is(held.Err, ErrStreamClosed) {
		t.Fatalf("held target = %+v, want ErrStreamClosed", held)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before it", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanoutRunsOnCaller: a fan-out runs on its caller's goroutine. With
// two endpoints each holding its answer after a first row, what runs
// beside the caller inside yield is the two workers and nothing else: no
// fan-out or merge goroutine of its own.
func TestFanoutRunsOnCaller(t *testing.T) {
	fc := newFakeStreamClient()
	var opened atomic.Int64
	bothOpen := make(chan struct{}) // the first rows wait until both workers run
	for _, url := range []string{"http://a/sparql", "http://b/sparql"} {
		fc.onStream(url, func(ctx context.Context) *fakeStream {
			if opened.Add(1) == 2 {
				close(bothOpen)
			}
			return &fakeStream{vars: []string{"a"}, sols: answers("http://x/1", "http://x/2").Solutions,
				gates: []chan struct{}{bothOpen, make(chan struct{})}} // only cancellation frees the second
		})
	}
	e := NewExecutor(fc, nil, nil, fastOpts())
	baseline := runtime.NumGoroutine()
	beside := -1
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"},
		Target{Dataset: "http://b/", Endpoint: "http://b/sparql"},
	)).Run(func(eval.Row) bool {
		beside = runtime.NumGoroutine() - baseline
		return false
	})
	if err != nil || res.Partial {
		t.Fatalf("Run = %+v, %v", res, err)
	}
	if beside != 2 {
		t.Fatalf("%d goroutines beside the caller inside yield, want 2 (one per worker)", beside)
	}
}

// TestFailFastYieldsNoRowAfterAbort: once one endpoint's failure aborts a
// fail-fast fan-out, Run yields no further row, not even one of a batch
// already handed on, and returns the failure.
func TestFailFastYieldsNoRowAfterAbort(t *testing.T) {
	fc := newFakeStreamClient()
	failNow, heldCancelled := make(chan struct{}), make(chan struct{})
	// One batch of three rows, all decoded before the abort.
	fc.onStream("http://good/sparql", func(ctx context.Context) *fakeStream {
		return &fakeStream{vars: []string{"a"}, sols: answers("http://x/1", "http://x/2", "http://x/3").Solutions}
	})
	fc.on("http://bad/sparql", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-failNow
		return nil, errors.New("boom")
	})
	// Announces the abort: its dispatch ends only with the fan-out's context.
	fc.on("http://held/sparql", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-ctx.Done()
		close(heldCancelled)
		return nil, ctx.Err()
	})
	opts := fastOpts()
	opts.FailFast = true
	e := NewExecutor(fc, nil, nil, opts)
	var got []string
	_, err := e.Select(context.Background(), req(
		Target{Dataset: "http://good/", Endpoint: "http://good/sparql"},
		Target{Dataset: "http://bad/", Endpoint: "http://bad/sparql"},
		Target{Dataset: "http://held/", Endpoint: "http://held/sparql"},
	)).Run(func(row eval.Row) bool {
		got = append(got, row[0].Value)
		if len(got) == 1 {
			close(failNow)
			select {
			case <-heldCancelled:
			case <-time.After(5 * time.Second):
				t.Error("the failure did not abort the fan-out")
			}
		}
		return true
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run error = %v, want the fail-fast abort", err)
	}
	if len(got) != 1 {
		t.Fatalf("rows yielded = %v, want only the one before the abort", got)
	}
}

// TestFanoutAllocations: what one two-target fan-out costs the executor
// over a client that allocates little of its own. Measured at 44 (go1.24,
// linux/amd64; 53 while the fan-out and its merge ran on goroutines of
// their own, and the pull stream before that, run to its end through Fetch
// and Summary, took 57); the ceiling is that plus about 5 %.
func TestFanoutAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	fc := newFakeStreamClient()
	sols := answers("http://x/1", "http://x/2").Solutions
	for _, url := range []string{"http://a/sparql", "http://b/sparql"} {
		fc.onStream(url, func(ctx context.Context) *fakeStream {
			return &fakeStream{vars: []string{"a"}, sols: sols}
		})
	}
	e := NewExecutor(fc, nil, nil, fastOpts())
	r := req(
		Target{Dataset: "http://a/", Endpoint: "http://a/sparql"},
		Target{Dataset: "http://b/", Endpoint: "http://b/sparql"},
	)
	rows := 0
	got := testing.AllocsPerRun(200, func() {
		fc.mu.Lock()
		fc.opened = fc.opened[:0]
		fc.mu.Unlock()
		if _, err := e.Select(context.Background(), r).Run(func(eval.Row) bool {
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if rows == 0 {
		t.Fatal("the fan-out yielded no row")
	}
	if got > 46 {
		t.Errorf("two-target fan-out: %.0f allocations, want at most 46", got)
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
	res, err := selectAll(context.Background(), e, req(
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
	res, err := selectAll(context.Background(), e, req(
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
