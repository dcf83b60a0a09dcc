package federate

import (
	"context"
	"errors"
	"fmt"

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
// network, so batching never holds a decoded row back. A slab of
// maxBatchRows rows is recycled: once Run has delivered its last batch it
// goes on the sink's free list, and a worker needing a full-size slab
// takes one from there before it allocates, so a long answer decodes into
// a few slabs in turn. The channel from the workers to Run holds
// batchDepth batches, at most 64 rows: a deeper window lets producers run
// ahead of the response writer and delays the first row.
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
// rewrite, bounded worker pool with in-order admission, retries, circuit
// breakers — and each endpoint's rows are owl:sameAs-canonicalised as
// they decode and deduplicated as Run receives them.
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
// Run's one loop admits the targets, deduplicates the workers' batches
// and yields their rows, so once the pool is full, admission of later
// targets pauses while the caller is inside yield.
//
// Run returns once every worker has reported: the per-dataset answers,
// duplicate count and partial flag (Solutions is nil: the rows went to
// yield), and the fail-fast error that aborted the fan-out, after which no
// row is yielded. A yield returning false cancels the work left; the
// sub-queries it cut read ErrStreamClosed. Cancelling the context aborts
// every in-flight sub-query.
func (f Fanout) Run(yield func(eval.Row) bool) (*Result, error) {
	e, req, n := f.e, f.req, len(f.req.Targets)
	// cancel's first cause stands: the fail-fast abort's error (a worker
	// cancels with it), a stop's ErrStreamClosed, the caller's own.
	ctx, cancel := context.WithCancelCause(f.ctx)
	defer cancel(nil)
	ctx, span := obs.StartSpan(ctx, "federate")
	span.SetInt("targets", int64(n))
	subs := formatSubqueries(req)
	answers := make([]DatasetAnswer, n)
	sem := make(chan struct{}, e.opts.Concurrency)
	dst := &sink{batches: make(chan batch, batchDepth)}
	reports := make(chan struct{}, n)
	lead := batch{RowBuf: req.Lead, target: -1}
	var m merger
	// A cancelled fan-out's batches are only drained. A row is valid only
	// until yield returns, so once the batch is delivered its slab, if
	// the batch ends one, goes back to the workers.
	deliver := func(b batch) {
		if ctx.Err() == nil {
			if req.Tap != nil && b.target >= 0 {
				req.Tap(b.target, b.RowBuf)
			}
			rows := m.merge(b.RowBuf)
			for i := 0; i < rows.N && ctx.Err() == nil; i++ {
				if !yield(rows.Row(i)) {
					cancel(ErrStreamClosed)
				}
			}
		}
		if b.slab != nil {
			dst.recycle(b.slab)
		}
	}
	next, running := 0, 0
	start := func() { // target next, on the pool slot just acquired
		go func(i int, t Target) {
			answers[i] = e.queryTarget(ctx, req, t, subs[i], lane{dst, i}, sem)
			// The failed worker cancels, not the loop: the caller may be
			// inside yield, and no row may follow the abort.
			if answers[i].Err != nil && e.opts.FailFast {
				cancel(fmt.Errorf("federate: %s: %w", t.Dataset, answers[i].Err))
			}
			reports <- struct{}{}
		}(next, req.Targets[next])
		next, running = next+1, running+1
	}
	// A cancelled fan-out admits nothing more and waits for its workers.
	for next < n || running > 0 {
		for ; next < n && ctx.Err() != nil; next++ {
			t := req.Targets[next]
			answers[next] = DatasetAnswer{Dataset: t.Dataset, Shard: t.Shard, Shards: t.Shards,
				Query: subs[next].text, Err: ctx.Err()}
		}
		// Admit first attempts in request order: the planner sorts targets
		// fastest-endpoint-first, and a free-for-all on the pool semaphore
		// would scramble that order. A free slot takes the next target
		// before any batch is yielded; only a full pool waits.
		var admit chan struct{}
		if next < n {
			admit = sem
		}
		select {
		case admit <- struct{}{}:
			start()
			continue
		default:
		}
		// The lead rows go first, once the pool is full or every target is
		// admitted.
		if lead.N > 0 {
			deliver(lead)
			lead.N = 0
			continue
		}
		select {
		case admit <- struct{}{}:
			start()
		case b := <-dst.batches:
			deliver(b)
		case <-reports:
			running--
		}
	}
	if lead.N > 0 { // no target to dispatch
		deliver(lead)
	}
	// Every worker has reported, so every batch it pushed is buffered.
	for len(dst.batches) > 0 {
		deliver(<-dst.batches)
	}

	res := &Result{Vars: req.Vars, PerDataset: answers, Duplicates: m.duplicates}
	cause := context.Cause(ctx)
	stopped := cause == ErrStreamClosed
	var failed, ok int
	for i := range answers {
		switch a := &answers[i]; {
		case a.Err == nil:
			ok++
		case stopped && errors.Is(a.Err, context.Canceled):
			// Abandoned, not failed: does not make the result Partial.
			a.Err = ErrStreamClosed
		default:
			failed++
		}
	}
	res.Partial = failed > 0 && ok > 0
	span.SetInt("duplicates", int64(res.Duplicates))
	span.SetBool("partial", res.Partial)
	span.End()
	if e.opts.FailFast && failed > 0 && !stopped {
		return res, cause // the first failure's, or the caller's cancellation
	}
	return res, nil
}
