package federate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
)

// ErrStreamClosed marks a sub-query abandoned because the consumer closed
// the stream (Limit reached, early break) — deliberate termination, not
// an upstream failure: it never marks the result Partial and never trips
// the fail-fast error.
var ErrStreamClosed = errors.New("federate: sub-query abandoned: stream closed by consumer")

// StreamingSelectClient is the executor's one way to an endpoint: it
// opens a SELECT whose rows decode incrementally from the wire into the
// executor's batches. *endpoint.Client satisfies it.
type StreamingSelectClient interface {
	SelectRowStream(ctx context.Context, endpointURL, queryText string) (eval.RowStream, error)
}

// Between a sub-query's decoder and the consumer rows move in batches
// (eval.RowBuf). A worker decodes into slabs of 1, 2, 4, … maxBatchRows
// rows — the first row leaves alone, a small answer pays for a small slab
// — and hands a batch on at maxBatchRows, at the slab's end, or when the
// stream has no further row buffered: the next one would wait on the
// network, so batching never holds a decoded row back. Both channels on
// the way (workers → merge → consumer) hold batchDepth batches, at most
// 64 rows per stage as the per-row channels did: a deeper window lets
// producers run ahead of the response writer and delays the first row.
const (
	maxBatchRows = 16
	batchDepth   = 4
)

// Stream is an in-flight federated SELECT: per-endpoint sub-queries are
// dispatching concurrently while the consumer pulls merged, deduplicated,
// owl:sameAs-canonicalised rows. The first row is available as soon as
// the first endpoint produces one — long before slow endpoints answer.
// After the stream ends, Summary reports the per-dataset outcomes.
type Stream struct {
	vars   []string
	out    chan eval.RowBuf
	cur    eval.RowBuf   // the batch Next is handing out
	i      int           // next row of cur
	done   chan struct{} // closed once res and err are final
	res    *Result
	err    error
	cancel context.CancelFunc

	// stopped records that the consumer closed the stream deliberately,
	// so the resulting sub-query cancellations are not misreported as
	// endpoint failures.
	stopped   atomic.Bool
	closeOnce sync.Once
}

// Vars returns the projection variable names, the slot table of the rows.
func (s *Stream) Vars() []string { return s.vars }

// Next returns the next merged row (row[i] binding Vars()[i], the zero
// Term for unbound), io.EOF at the end of the fan-out, or the fail-fast
// error that aborted it. The row is a read-only view into the current
// batch, valid until the next Next or Close: a caller that keeps rows
// copies them.
func (s *Stream) Next() (eval.Row, error) {
	for s.i >= s.cur.N {
		b, ok := <-s.out
		if !ok {
			<-s.done
			if s.err != nil {
				return nil, s.err
			}
			return nil, io.EOF
		}
		s.cur, s.i = b, 0
	}
	s.i++
	return s.cur.Row(s.i - 1), nil
}

// Close cancels the remaining upstream work and releases the stream. It
// is safe to call at any point and more than once; a consumer that stops
// early must call it so in-flight endpoint requests are torn down.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		s.stopped.Store(true)
		s.cancel()
		// Unblock the producer; the fan-out notices the cancellation and
		// winds down, closing out.
		go func() {
			for range s.out {
			}
		}()
	})
	return nil
}

// Fetch pushes the rows into yield until they end or yield returns false,
// then closes the stream: the stream as the leaf of an evaluator plan
// (eval.Remote), which runs under the context it was started with.
func (s *Stream) Fetch(_ context.Context, _ *eval.Seed, yield func(eval.Row) bool) error {
	defer s.Close()
	for {
		row, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil || !yield(row) {
			return err
		}
	}
}

// Summary reports the fan-out's outcome: per-dataset answers, duplicate
// count and the partial flag (Solutions is nil: the rows already flowed
// through the stream). It consumes whatever
// remains of the stream, then blocks until every worker has reported.
// The error is the fail-fast abort error, if any.
func (s *Stream) Summary() (*Result, error) {
	s.cur, s.i = eval.RowBuf{}, 0
	for range s.out { // drain: a blocked producer could never finish
	}
	<-s.done
	return s.res, s.err
}

// SelectStream starts the federated fan-out and returns immediately with
// the stream of merged solutions. The request's sub-queries dispatch
// through the usual pipeline — cached rewrite, bounded worker pool with
// in-order admission, per-endpoint concurrency bound, retries, circuit
// breakers — but each endpoint's response now flows through the
// owl:sameAs merge as it decodes, so the first merged solution is
// delivered while slower endpoints are still working. Cancelling ctx (or
// calling Close) aborts all in-flight sub-queries.
func (e *Executor) SelectStream(ctx context.Context, req Request) *Stream {
	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		vars:   req.Vars,
		out:    make(chan eval.RowBuf, batchDepth),
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go e.runFanout(ctx, req, s)
	return s
}

// runFanout executes the fan-out for one stream: admission, dispatch,
// merge, then the summary Result.
func (e *Executor) runFanout(ctx context.Context, req Request, s *Stream) {
	ctx, span := obs.StartSpan(ctx, "federate")
	span.SetInt("targets", int64(len(req.Targets)))
	m := &merger{reps: NewRepCache(e.coref)}
	solCh := make(chan eval.RowBuf, batchDepth)
	mergeDone := make(chan struct{})
	go m.run(ctx, solCh, s.out, mergeDone)

	subs := formatSubqueries(req)
	answers := make([]DatasetAnswer, len(req.Targets))
	sem := make(chan struct{}, e.opts.Concurrency)
	var (
		wg       sync.WaitGroup
		failMu   sync.Mutex
		firstErr error
	)
admit:
	for i, t := range req.Targets {
		// Admit first attempts in request order: the planner sorts targets
		// fastest-endpoint-first, and a free-for-all on the pool semaphore
		// would scramble that order. The acquired slot is handed to the
		// worker for its first dispatch.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(req.Targets); j++ {
				answers[j] = DatasetAnswer{Dataset: req.Targets[j].Dataset,
					Shard: req.Targets[j].Shard, Shards: req.Targets[j].Shards,
					Query: subs[j].text, Err: ctx.Err()}
			}
			break admit
		}
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			answers[i] = e.queryTarget(ctx, req, t, subs[i], solCh, sem)
			if answers[i].Err != nil && e.opts.FailFast {
				failMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("federate: %s: %w", t.Dataset, answers[i].Err)
					s.cancel()
				}
				failMu.Unlock()
			}
		}(i, t)
	}
	wg.Wait()
	close(solCh)
	<-mergeDone

	res := &Result{
		Vars:       req.Vars,
		PerDataset: answers,
		Duplicates: m.duplicates,
	}
	// A deliberate consumer Close cancels the fan-out; the resulting
	// context.Canceled answers are abandonment, not endpoint failures.
	stopped := s.stopped.Load()
	var failed, ok int
	for i := range answers {
		a := &answers[i]
		if a.Err != nil && stopped && errors.Is(a.Err, context.Canceled) {
			a.Err = ErrStreamClosed
			continue // neither failed nor ok: does not make the result Partial
		}
		if a.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	res.Partial = failed > 0 && ok > 0
	s.res = res
	if e.opts.FailFast && firstErr != nil &&
		!(stopped && errors.Is(firstErr, context.Canceled)) {
		s.err = firstErr
	}
	span.SetInt("duplicates", int64(res.Duplicates))
	span.SetBool("partial", res.Partial)
	span.End()
	close(s.done)
	close(s.out)
}
