package federate

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sparqlrw/internal/eval"
	"sparqlrw/internal/obs"
)

// ErrStreamClosed marks a sub-query abandoned because the consumer stopped
// the fan-out (its yield returned false: a limit reached, an early break)
// — deliberate termination, not an upstream failure: it never marks the
// result Partial and never trips the fail-fast error.
var ErrStreamClosed = errors.New("federate: sub-query abandoned: fan-out stopped by consumer")

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

// Fanout is one federated SELECT, built by Executor.Select and not yet
// dispatched: Run fans it out.
type Fanout struct {
	e   *Executor
	ctx context.Context
	req Request
}

// Select returns the fan-out of req under ctx; it dispatches nothing until
// Run. The request's sub-queries go through the usual pipeline — cached
// rewrite, bounded worker pool with in-order admission, per-endpoint
// concurrency bound, retries, circuit breakers — and each endpoint's
// response flows through the owl:sameAs merge as it decodes.
func (e *Executor) Select(ctx context.Context, req Request) Fanout {
	return Fanout{e: e, ctx: ctx, req: req}
}

// Run fans the request out and pushes the merged, deduplicated,
// owl:sameAs-canonicalised rows (row[i] binding Vars[i], the zero Term for
// unbound) into yield on the caller's goroutine until they end or yield
// returns false. The first row arrives as soon as the first endpoint
// produces one, long before slow endpoints answer. A row is a read-only
// view into a batch, valid until yield returns: a caller that keeps rows
// copies them.
//
// Run returns once every worker has reported: the per-dataset answers,
// duplicate count and partial flag (Solutions is nil: the rows went to
// yield), and the fail-fast error that aborted the fan-out, after which no
// row is yielded. A yield returning false cancels the work left; the
// sub-queries it cut read ErrStreamClosed. Cancelling the context aborts
// every in-flight sub-query.
func (f Fanout) Run(yield func(eval.Row) bool) (*Result, error) {
	ctx, cancel := context.WithCancelCause(f.ctx)
	defer cancel(nil)
	r := &fanoutRun{out: make(chan eval.RowBuf, batchDepth)}
	go f.e.runFanout(ctx, cancel, f.req, r)
	// Once the fan-out is cancelled (a stop, the fail-fast abort, the
	// caller's context) the batches left are only drained: the workers and
	// the merge end, and out closes.
	for b := range r.out {
		for i := 0; i < b.N && ctx.Err() == nil; i++ {
			if !yield(b.Row(i)) {
				cancel(ErrStreamClosed)
			}
		}
	}
	return r.res, r.err
}

// fanoutRun is what Run shares with its fan-out goroutine: the merged
// batches, and the outcome, final once out is closed.
type fanoutRun struct {
	out chan eval.RowBuf
	res *Result
	err error
}

// runFanout executes one fan-out: admission, dispatch, merge, then the
// summary Result. cancel is ctx's: the fail-fast abort cancels with its
// error, a stop (in Run) with ErrStreamClosed, and the first cause stands.
func (e *Executor) runFanout(ctx context.Context, cancel context.CancelCauseFunc, req Request, r *fanoutRun) {
	ctx, span := obs.StartSpan(ctx, "federate")
	span.SetInt("targets", int64(len(req.Targets)))
	m := &merger{reps: NewRepCache(e.coref)}
	solCh := make(chan eval.RowBuf, batchDepth)
	mergeDone := make(chan struct{})
	go m.run(ctx, solCh, r.out, mergeDone)

	subs := formatSubqueries(req)
	answers := make([]DatasetAnswer, len(req.Targets))
	sem := make(chan struct{}, e.opts.Concurrency)
	var wg sync.WaitGroup
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
				cancel(fmt.Errorf("federate: %s: %w", t.Dataset, answers[i].Err))
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
	// A stop's context.Canceled answers are abandonment, not endpoint
	// failures.
	cause := context.Cause(ctx)
	stopped := cause == ErrStreamClosed
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
	r.res = res
	if e.opts.FailFast && failed > 0 && !stopped {
		r.err = cause // the first failure's, or the caller's cancellation
	}
	span.SetInt("duplicates", int64(res.Duplicates))
	span.SetBool("partial", res.Partial)
	span.End()
	close(r.out)
}
