package federate

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/rdf"
)

// ctxStream yields scripted solutions but — like a real HTTP body read —
// fails with the context's error as soon as the attempt context dies.
type ctxStream struct {
	sols []eval.Solution
	i    int
	ctx  context.Context
}

func (s *ctxStream) NextRow(vars []string, row eval.Row) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.i >= len(s.sols) {
		return io.EOF
	}
	for i, v := range vars {
		row[i] = s.sols[s.i][v]
	}
	s.i++
	return nil
}
func (s *ctxStream) RowBuffered() bool { return s.i < len(s.sols) }
func (s *ctxStream) Close() error      { return nil }

type ctxStreamClient struct {
	*fakeClient
	sols []eval.Solution
}

func (c *ctxStreamClient) SelectRowStream(ctx context.Context, url, query string) (eval.RowStream, error) {
	return &ctxStream{sols: c.sols, ctx: ctx}, nil
}

// TestSlowConsumerDoesNotBurnAttemptDeadline is the backpressure
// regression test: an endpoint streams its whole result instantly, but
// the consumer drains it far slower than the per-attempt deadline. Time
// spent blocked on the consumer must not count against the endpoint's
// attempt budget, so the sub-query completes cleanly.
func TestSlowConsumerDoesNotBurnAttemptDeadline(t *testing.T) {
	const n = 300
	const timeout = 100 * time.Millisecond
	sols := make([]eval.Solution, n)
	for i := range sols {
		sols[i] = eval.Solution{"a": rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))}
	}
	fc := &ctxStreamClient{fakeClient: newFakeClient(), sols: sols}
	e := NewExecutor(fc, nil, nil, Options{
		Concurrency:     2,
		EndpointTimeout: timeout,
		MaxRetries:      -1,
	})
	// An artificially slow reader: the total drain takes several times
	// the attempt deadline.
	start := time.Now()
	got := 0
	res, err := e.Select(context.Background(), req(
		Target{Dataset: "http://d/", Endpoint: "http://d/sparql"},
	)).Run(func(eval.Row) bool {
		got++
		time.Sleep(2 * time.Millisecond)
		return true
	})
	if err != nil {
		t.Fatalf("fan-out failed after %d solutions (%v elapsed): %v", got, time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("consumer was not slow enough to exercise the deadline (%v)", elapsed)
	}
	if got != n {
		t.Fatalf("received %d solutions, want %d", got, n)
	}
	if res.PerDataset[0].Err != nil {
		t.Fatalf("slow consumer charged to the endpoint: %v", res.PerDataset[0].Err)
	}
	if res.PerDataset[0].Solutions != n {
		t.Fatalf("endpoint answer = %d solutions, want %d", res.PerDataset[0].Solutions, n)
	}
}

// TestPausableDeadline unit-tests the active-time clock: paused time does
// not expire the budget, running time does, and expiry reports
// DeadlineExceeded.
func TestPausableDeadline(t *testing.T) {
	pd := newPausableDeadline(context.Background(), 50*time.Millisecond)
	defer pd.Stop()
	pd.Pause()
	time.Sleep(120 * time.Millisecond) // far past the nominal deadline
	select {
	case <-pd.Done():
		t.Fatal("deadline expired while paused")
	default:
	}
	if _, ok := pd.Deadline(); !ok {
		t.Fatal("pausable context must report a deadline")
	}
	pd.Resume()
	select {
	case <-pd.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline never expired after resume")
	}
	if err := pd.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
}

// TestPausableDeadlineParentCancel: parent cancellation propagates and is
// not misreported as a deadline expiry.
func TestPausableDeadlineParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pd := newPausableDeadline(ctx, time.Hour)
	defer pd.Stop()
	var expired atomic.Bool
	go func() {
		<-pd.Done()
		expired.Store(true)
	}()
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !expired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("parent cancellation did not propagate")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pd.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want Canceled", err)
	}
}
