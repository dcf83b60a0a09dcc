// Package federate owns federated SPARQL query execution for the
// mediator: the paper's "query all the available repositories" fan-out
// (Figures 4–5), grown from a sequential loop into a concurrent executor.
//
// A request carries parsed queries — the mediator's own parse, or what
// planner and decomposer derived from it — and text, the endpoints'
// interface, is made here. The pipeline per request is:
//
//	format  — each distinct sub-query is serialised once: what a native
//	          target receives, or, for a target that rewrites it, its
//	          shape (sparql.Lift) — the query part of the plan-cache key —
//	          and the instance IRIs lifted out of it;
//	plan    — per-target rewrite of the shape, query to query, cached as
//	          a template (core.Template, with its text) in an LRU plan
//	          cache with singleflight deduplication, so queries of one
//	          shape and concurrent identical requests rewrite once; a hit
//	          binds the template to the sub-query's own IRIs and splices
//	          them into the cached text, no rewrite and no formatting;
//	dispatch — a bounded worker pool sends each sub-query to its
//	          endpoint with a per-attempt deadline, retry-with-backoff,
//	          and a per-endpoint circuit breaker so one dead repository
//	          cannot stall or poison the whole fan-out;
//	merge   — each worker decodes its response into batches of
//	          positional rows, rewrites every IRI to the representative of
//	          its owl:sameAs class (through the executor's co-reference
//	          cache, RepCache — the mediator's one, shared by every
//	          fan-out — off the endpoint's clock) and hands them over a
//	          channel to the fan-out, which deduplicates and compacts each
//	          batch in place.
//
// A fan-out is one push call, Executor.Select(ctx, req).Run(yield), and
// runs on its caller's goroutine: Run admits, deduplicates and yields,
// and the only goroutines are the workers (one per dispatching target,
// and per hedge arm).
//
// The partial-result policy is configurable: best-effort (default)
// returns whatever the healthy endpoints answered and marks the result
// Partial; fail-fast cancels the fan-out on the first endpoint error.
// Endpoints() is the table of per-endpoint state the executor keeps —
// breaker, health model and counts — and Stats() its snapshot plus the
// plan-cache hit rate.
package federate

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"sparqlrw/internal/core"
	"sparqlrw/internal/eval"
	"sparqlrw/internal/funcs"
	"sparqlrw/internal/obs"
	"sparqlrw/internal/rdf"
	"sparqlrw/internal/sparql"
)

// RewriteFunc translates q for the given target dataset, through every
// alignment into it: the shape of a sub-query with lifted slots
// (core.Rewriter.RewriteShape), or with lifted 0 a sub-query itself, whose
// template's Query is then its rewriting. It must leave q as it found it:
// the targets of one fan-out share it, concurrently.
type RewriteFunc func(q *sparql.Query, lifted int, dataset string) (*core.Template, error)

// Options tune the executor. The zero value selects sane defaults; the
// endpoint table's health model has no options.
type Options struct {
	// Concurrency bounds the worker pool (default 8).
	Concurrency int
	// EndpointTimeout is the per-attempt deadline (default 10s).
	EndpointTimeout time.Duration
	// MaxRetries is how many times a failed attempt is re-dispatched
	// (default 1; set to -1 for zero retries).
	MaxRetries int
	// RetryBackoff is the pause before the first retry, doubled per
	// subsequent retry (default 50ms).
	RetryBackoff time.Duration
	// FailFast cancels the whole fan-out on the first endpoint error
	// instead of returning a best-effort partial result.
	FailFast bool
	// BreakerFailures is how many consecutive failures open an
	// endpoint's circuit (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open circuit rejects requests
	// before admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// CacheSize is the rewrite-plan LRU capacity, counted in rewritten
	// query shapes: one entry per shape and target data set (default 256;
	// set to -1 to disable caching).
	CacheSize int
	// Hedge enables hedged sub-queries: when a primary attempt runs past
	// the endpoint's observed p95 latency (from the endpoint table), a
	// backup dispatch goes to the target's healthiest other replica and
	// the first answer wins, the loser cancelled. While the primary's
	// circuit is open, that replica answers in its place.
	Hedge bool
	// HedgeMinDelay floors the hedge trigger so a cold p95 estimate (or
	// a very fast endpoint) cannot fire backups on every request
	// (default 25ms).
	HedgeMinDelay time.Duration
	// Registry receives the executor's metrics (latency and
	// time-to-first-solution histograms, the endpoint table's counts,
	// breaker states and health, plan cache counters). Nil creates a
	// private registry; the mediator passes its shared one.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.EndpointTimeout <= 0 {
		o.EndpointTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 1
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.BreakerFailures <= 0 {
		o.BreakerFailures = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 25 * time.Millisecond
	}
	return o
}

// Target is one repository a federated query fans out to.
type Target struct {
	// Dataset is the data set URI (the diagnostic label).
	Dataset string
	// Endpoint is the SPARQL endpoint URL.
	Endpoint string
	// NeedsRewrite says the query must be translated for this data set
	// (it uses a vocabulary the data set does not declare).
	NeedsRewrite bool
	// Query is the sub-query this target runs, before rewriting: the
	// request's query, a VALUES shard of it, a fragment's sub-query.
	// Targets share queries, and the executor only reads them.
	Query *sparql.Query
	// Timeout optionally tightens the per-attempt deadline below
	// Options.EndpointTimeout (0, or anything looser, keeps the default).
	Timeout time.Duration
	// Shard/Shards number this target among its data set's VALUES shards
	// (1-based; 0 when unsharded).
	Shard, Shards int
	// Replicas are alternate endpoint URLs serving the same data set,
	// the candidates hedged dispatch may race against Endpoint or, while
	// Endpoint's circuit is open, send the attempt to instead.
	Replicas []string
}

// Request is one federated SELECT.
type Request struct {
	// Vars are the query's projection variables, the slot table of the rows.
	Vars    []string
	Targets []Target
}

// DatasetAnswer is one data set's contribution to a federated query.
type DatasetAnswer struct {
	Dataset string
	// Shard/Shards carry the target's VALUES-shard numbering (0 = unsharded).
	Shard, Shards int
	// Query is the text sent to the endpoint: the sub-query formatted,
	// after rewriting when the data set's vocabulary differs (empty when
	// the rewrite failed).
	Query     string
	Solutions int
	// Attempts is how many dispatches the answer took (1 = no retry;
	// 0 = never dispatched, e.g. rewrite failure or open breaker).
	Attempts int
	// Latency is the wall time from first dispatch to final outcome.
	Latency time.Duration
	// TTFS is the time from the successful attempt's dispatch to its
	// first solution (0 when the answer was empty or failed).
	TTFS time.Duration
	Err  error
}

// Result merges the answers of all targeted data sets.
type Result struct {
	Vars      []string
	Solutions []eval.Solution
	// PerDataset reports each data set's raw contribution, before the
	// co-reference merge, in target order.
	PerDataset []DatasetAnswer
	// Duplicates is the number of solutions dropped by the co-reference
	// merge (the redundancy the paper says the repositories carry).
	Duplicates int
	// Partial is true when at least one data set failed while others
	// answered (only under the best-effort policy).
	Partial bool
}

// Executor runs federated queries. It is safe for concurrent use; its
// endpoint table, counters and plan cache accumulate across requests.
type Executor struct {
	client    StreamingSelectClient
	rewrite   RewriteFunc
	coref     *RepCache
	opts      Options
	cache     *PlanCache[*rewritePlan]
	metrics   *executorMetrics
	endpoints *EndpointTable
}

// NewExecutor builds an executor. rewrite may be nil when no target ever
// needs rewriting; coref may be nil to disable owl:sameAs smushing. A
// coref that is not a RepCache already is wrapped in one, which every
// fan-out of the executor shares.
func NewExecutor(client StreamingSelectClient, rewrite RewriteFunc, coref funcs.CorefSource, opts Options) *Executor {
	opts = opts.withDefaults()
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
		opts.Registry = reg
	}
	e := &Executor{
		client:    client,
		rewrite:   rewrite,
		coref:     NewRepCache(coref),
		opts:      opts,
		cache:     NewPlanCache[*rewritePlan](opts.CacheSize),
		metrics:   newExecutorMetrics(reg),
		endpoints: newEndpointTable(opts),
	}
	e.registerCollectors(reg)
	return e
}

// Options returns the executor's effective (defaulted) options.
func (e *Executor) Options() Options { return e.opts }

// Endpoints returns the executor's endpoint table: one record per endpoint
// holding its breaker and health model.
func (e *Executor) Endpoints() *EndpointTable { return e.endpoints }

// subquery is one distinct sub-query of a fan-out (targets share
// queries), formatted once for all its targets: text is what a native
// target receives; shape and slots, when a target rewrites it, are its
// shape and the IRIs lifted out of it (sparql.Lift).
type subquery struct {
	text  string
	shape *sparql.Template
	slots []rdf.Term
}

// formatSubqueries formats the fan-out's sub-queries: subs[i] is target
// i's.
func formatSubqueries(req Request) []*subquery {
	subs := make([]*subquery, len(req.Targets))
	byQuery := make(map[*sparql.Query]*subquery, 1)
	for i, t := range req.Targets {
		sq := byQuery[t.Query]
		if sq == nil {
			sq = &subquery{}
			byQuery[t.Query] = sq
		}
		if t.NeedsRewrite && sq.shape == nil {
			sq.shape, sq.slots = sparql.Lift(t.Query)
		}
		subs[i] = sq
	}
	for i, t := range req.Targets {
		if sq := subs[i]; !t.NeedsRewrite && sq.text == "" {
			if sq.shape != nil {
				sq.text = sq.shape.Execute(sq.slots)
			} else {
				sq.text = sparql.Format(t.Query)
			}
		}
	}
	return subs
}

// rewritePlan is a cached rewrite of one shape for one target: the
// template, and its rewritten shape's text with holes (nil when the
// template cannot bind).
type rewritePlan struct {
	tmpl *core.Template
	text *sparql.Template
}

// rewriteText returns the text target t's endpoint receives: its shape's
// cached plan bound to the sub-query's slot values, or, when the plan
// cannot bind them (or the shape did not rewrite), the rewriting of the
// sub-query itself, formatted. cached reports a plan-cache hit.
func (e *Executor) rewriteText(t Target, sq *subquery) (text string, cached bool, err error) {
	p, cached, err := e.cache.Do(PlanKey{sq.shape.Key(), t.Dataset}, func() (*rewritePlan, error) {
		tmpl, err := e.rewrite(sparql.LiftQuery(t.Query), len(sq.slots), t.Dataset)
		if err != nil {
			return nil, err
		}
		p := &rewritePlan{tmpl: tmpl}
		if tmpl.Query != nil {
			p.text = sparql.FormatTemplate(tmpl.Query)
		}
		return p, nil
	})
	if err == nil {
		if values, ok := p.tmpl.Bind(sq.slots); ok {
			return p.text.Execute(values), cached, nil
		}
	}
	tmpl, err := e.rewrite(t.Query, 0, t.Dataset)
	if err != nil {
		return "", cached, err
	}
	return sparql.Format(tmpl.Query), cached, nil
}

// queryTarget runs one target's sub-query: plan (cached rewrite), then
// dispatch with retries under the endpoint's breaker, streaming batches of
// rows into dst; sq is the target's entry of formatSubqueries. sem is the
// worker-pool semaphore: the caller pre-acquired one slot (in-order
// admission), which funds the first dispatch attempt; afterwards a slot is
// held only for the duration of each attempt, not across backoff sleeps,
// so retrying workers don't starve queued healthy targets.
func (e *Executor) queryTarget(ctx context.Context, req Request, t Target, sq *subquery, dst *sink, sem chan struct{}) (da DatasetAnswer) {
	held := true // the admission slot the caller acquired for us
	defer func() {
		if held {
			<-sem
		}
	}()
	ctx, span := obs.StartSpan(ctx, "subquery")
	span.SetString("op", "subquery")
	span.SetString("dataset", t.Dataset)
	span.SetString("endpoint", t.Endpoint)
	if t.Shards > 1 {
		span.SetString("shard", strconv.Itoa(t.Shard)+"/"+strconv.Itoa(t.Shards))
	}
	defer func() {
		span.SetInt("solutions", int64(da.Solutions))
		span.SetInt("attempts", int64(da.Attempts))
		if da.Err != nil {
			span.SetString("error", da.Err.Error())
		}
		span.End()
	}()
	da = DatasetAnswer{Dataset: t.Dataset, Shard: t.Shard, Shards: t.Shards, Query: sq.text}
	if t.NeedsRewrite {
		if e.rewrite == nil {
			da.Err = fmt.Errorf("federate: %s needs rewriting but no rewriter is configured", t.Dataset)
			return da
		}
		_, rwSpan := obs.StartSpan(ctx, "rewrite")
		var cached bool
		var err error
		da.Query, cached, err = e.rewriteText(t, sq)
		rwSpan.SetBool("cached", cached)
		rwSpan.End()
		if err != nil {
			da.Err = err
			return da
		}
	}

	rec := e.endpoints.entry(t.Endpoint)
	start := time.Now()
	defer func() { da.Latency = time.Since(start) }()
	for attempt := 0; attempt <= e.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			e.endpoints.count(&rec.retries)
			backoff := e.opts.RetryBackoff << (attempt - 1)
			span.SetFloat("backoffMs", float64(backoff.Microseconds())/1000)
			if !sleepCtx(ctx, backoff) {
				da.Err = ctx.Err()
				return da
			}
		}
		if done := e.attempt(ctx, rec, t, req.Vars, attempt, &da, dst, sem, &held); done {
			return da
		}
	}
	return da
}

// attempt performs one dispatch under a worker-pool slot (re-using the
// pre-acquired admission slot when *held, else acquiring one). It reports
// whether the target is finished (success, terminal error, or
// cancellation); false means "retry if the budget allows".
func (e *Executor) attempt(ctx context.Context, rec *endpointRecord, t Target, vars []string, attempt int, da *DatasetAnswer, dst *sink, sem chan struct{}, held *bool) bool {
	if !*held {
		select {
		case sem <- struct{}{}:
			*held = true
		case <-ctx.Done():
			da.Err = ctx.Err()
			return true
		}
	}
	defer func() { <-sem; *held = false }()
	timeout := e.opts.EndpointTimeout
	if t.Timeout > 0 && t.Timeout < timeout {
		timeout = t.Timeout
	}
	// The breaker check sits inside the slot, right before the dispatch,
	// so that an admitted half-open probe always reaches the dispatch and
	// reports Success or Failure — abandoning a probe would wedge the
	// breaker in half-open, rejecting the endpoint forever.
	var out armOutcome
	if rec.breaker.Allow() {
		// One dispatch, possibly hedged: when the primary attempt runs
		// past the endpoint's observed p95, a backup races it on the
		// healthiest replica and the first answer wins (see hedge.go).
		// The returned outcome is the winning arm's; the losing arm's
		// breaker and health bookkeeping is settled inside.
		out = e.dispatchMaybeHedged(ctx, rec, t, attempt, da.Query, vars, timeout, dst)
	} else {
		e.endpoints.count(&rec.rejected)
		// Under Hedge, a refused primary hands the attempt to the replica
		// a hedge would race, if that replica's breaker admits it: one
		// unhedged dispatch, settled on the replica's own record.
		backup := e.hedgeBackup(t)
		var brec *endpointRecord
		if backup != "" {
			if brec = e.endpoints.entry(backup); !brec.breaker.Allow() {
				e.endpoints.count(&brec.rejected)
				brec = nil
			}
		}
		if brec == nil {
			if da.Err == nil {
				da.Err = fmt.Errorf("%w: %s", ErrCircuitOpen, t.Endpoint)
			}
			return true
		}
		out = e.dispatchArm(ctx, "attempt", brec, da.Query, vars, attempt, timeout, dst, nil)
	}
	da.Attempts = attempt + 1
	if out.err == nil {
		e.settle(out)
		if out.count > 0 {
			e.metrics.ttfs.With(out.rec.url).Observe(out.ttfs.Seconds())
			da.TTFS = out.ttfs
		}
		da.Err = nil // a successful retry supersedes earlier failures
		da.Solutions = out.count
		return true
	}
	if ctx.Err() != nil {
		// The parent was cancelled (fail-fast abort, client disconnect, a
		// consumer with all it needs): the outcome is the cancellation, and
		// neither the breaker nor the failure counters blame the endpoint.
		// Cancel releases a half-open probe so the breaker cannot wedge.
		out.rec.breaker.Cancel()
		da.Err = ctx.Err()
		return true
	}
	e.settle(out)
	da.Err = out.err
	return false
}

// dispatch sends one sub-query and feeds its rows, over the slot table
// vars, to the fan-out's sink in batches (see maxBatchRows), returning how
// many rows were pushed, the time to the first one, and how many
// response-body bytes were read. Each row decodes off the wire straight
// into the batch being filled, and the batch's IRIs are rewritten to their
// owl:sameAs representatives in place before it is pushed — on the
// worker, beside the response writer, not on its goroutine — through the
// executor's representative cache (RepCache.canonicalise), whose lookups
// stop the attempt's clock pd. The response is never buffered whole. A
// failed attempt has pushed the rows it decoded; the retry re-pushes them
// and the fan-out's merge deduplicates.
func (e *Executor) dispatch(attemptCtx, parent context.Context, endpointURL, query string, vars []string, dst *sink, pd *pausableDeadline) (rows int, ttfs time.Duration, bytes int64, err error) {
	start, width := time.Now(), len(vars)
	ss, err := e.client.SelectRowStream(attemptCtx, endpointURL, query)
	if err != nil {
		return 0, 0, 0, err
	}
	defer ss.Close()
	// endpoint.SelectStream counts its response-body bytes; other
	// implementations just don't report the annotation.
	if counter, ok := ss.(interface{ Bytes() int64 }); ok {
		defer func() { bytes = counter.Bytes() }()
	}
	// A batch is a run of rows of one slab; the slab's tail serves the next.
	var slab []rdf.Term  // the current slab, from the batch being filled on
	var whole []rdf.Term // all of the current slab, if it is full-size
	n, slabRows := 0, 1  // rows in that batch; rows of the next slab
	for {
		if len(slab) < (n+1)*width { // only between batches: n is 0
			if whole = nil; slabRows < maxBatchRows {
				slab = make([]rdf.Term, slabRows*width)
			} else {
				whole = dst.slab(slabRows * width)
				slab = whole
			}
			slabRows = min(2*slabRows, maxBatchRows)
		}
		row := slab[n*width : (n+1)*width]
		err := ss.NextRow(vars, row)
		if err == nil {
			if n++; n < maxBatchRows && len(slab) >= (n+1)*width && ss.RowBuffered() {
				continue
			}
		}
		if n > 0 {
			if rows == 0 {
				ttfs = time.Since(start)
			}
			b := batch{RowBuf: eval.RowBuf{Width: width, N: n, Terms: slab[: n*width : n*width]}}
			if slab, n = slab[n*width:], 0; len(slab) == 0 {
				b.slab = whole // Run recycles it with this batch
			}
			e.coref.canonicalise(b.Terms, pd)
			if !dst.push(parent, b, pd) {
				return rows, ttfs, 0, parent.Err()
			}
			rows += b.N
		}
		if err == io.EOF {
			return rows, ttfs, 0, nil
		}
		if err != nil {
			return rows, ttfs, 0, err
		}
	}
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
