package federate

import (
	"context"
	"time"

	"sparqlrw/internal/obs"
)

// Hedged sub-queries: tail-latency hiding for replicated data sets.
//
// When Options.Hedge is on and a target carries replica endpoints, a
// dispatch that runs past the primary endpoint's observed p95 latency
// (the endpoint table's smoothed estimate, floored at HedgeMinDelay)
// launches one backup attempt against the healthiest replica. The
// primary's clock is the one latency samples are measured in, its active
// time (pausableDeadline.charged): time it spends blocked on the consumer
// or on owl:sameAs lookups does not count towards the hedge. Both arms
// canonicalise their rows and push them into the fan-out's one sink —
// Fanout.Run's deduplication collapses whatever both delivered — and the
// first arm to finish successfully wins; the loser is
// cancelled and joined before the dispatch returns, so both arms have
// ended when their worker reports, and Fanout.Run, which returns only
// once every worker has, leaves no arm running.
//
// Accounting rules:
//
//   - the winner's outcome feeds the answer, its endpoint's breaker,
//     health sample and counts (in attempt());
//   - a loser we cancelled gets Breaker.Cancel — being slower than the
//     race is not an endpoint fault;
//   - a loser that genuinely failed (or finished successfully just
//     after the winner) is settled with its own breaker/health/count
//     bookkeeping here, so hedging never hides replica failures;
//   - when both arms fail, the primary's error is reported and the
//     backup's failure is settled here.
//
// The backup intentionally skips the worker pool (the caller already
// holds a slot for this dispatch): a hedge exists to cut tail latency,
// and queueing it behind the very congestion it is escaping would defeat
// it. BreakerFailures still bounds the damage a misbehaving replica can
// cause.

// armOutcome is one dispatch arm's result.
type armOutcome struct {
	rec   *endpointRecord
	count int
	ttfs  time.Duration
	lat   time.Duration
	err   error
}

// dispatchArm runs one dispatch against one endpoint under its own
// span and pausable deadline, annotating the span like the pre-hedging
// attempt path did. A non-nil clock receives the deadline as the dispatch
// starts.
func (e *Executor) dispatchArm(ctx context.Context, spanName string, rec *endpointRecord, query string, vars []string, attemptN int, timeout time.Duration, dst *sink, clock chan<- *pausableDeadline) armOutcome {
	// The span wraps the dispatch and rides its context: the endpoint
	// client reads the span off the context to stamp the outbound
	// traceparent, so the endpoint's work hangs under exactly this arm
	// in the distributed trace.
	spanCtx, aSpan := obs.StartSpan(ctx, spanName)
	aSpan.SetInt("n", int64(attemptN+1))
	aSpan.SetString("endpoint", rec.url)
	// The deadline bounds the whole transfer: connect, first byte and the
	// incremental body read. The clock pauses while the worker is blocked
	// on a slow consumer or on owl:sameAs lookups: neither is the
	// endpoint's doing, so neither counts against its budget or its
	// latency sample, the active time.
	attemptCtx := newPausableDeadline(spanCtx, timeout)
	if clock != nil {
		clock <- attemptCtx
	}
	count, ttfs, bytes, err := e.dispatch(attemptCtx, ctx, rec.url, query, vars, dst, attemptCtx)
	lat := attemptCtx.charged()
	attemptCtx.Stop()
	aSpan.SetFloat("latencyMs", float64(lat.Microseconds())/1000)
	aSpan.SetInt("rows", int64(count))
	if bytes > 0 {
		aSpan.SetInt("bytes", bytes)
	}
	if count > 0 {
		aSpan.SetFloat("ttfsMs", float64(ttfs.Microseconds())/1000)
	}
	if err != nil {
		aSpan.SetString("error", err.Error())
	}
	aSpan.End()
	return armOutcome{rec: rec, count: count, ttfs: ttfs, lat: lat, err: err}
}

// hedgeBackup picks the backup endpoint for a target: the healthiest
// replica that is not the primary, or "" when hedging cannot apply.
func (e *Executor) hedgeBackup(t Target) string {
	if !e.opts.Hedge || len(t.Replicas) == 0 {
		return ""
	}
	candidates := make([]string, 0, len(t.Replicas))
	for _, r := range t.Replicas {
		if r != "" && r != t.Endpoint {
			candidates = append(candidates, r)
		}
	}
	return e.endpoints.Best(candidates)
}

// dispatchMaybeHedged performs one logical dispatch for a target:
// unhedged when hedging is off or no replica qualifies, otherwise the
// primary/backup race described at the top of this file. The returned
// outcome is the arm whose result the caller should account and report.
func (e *Executor) dispatchMaybeHedged(ctx context.Context, rec *endpointRecord, t Target, attemptN int, query string, vars []string, timeout time.Duration, dst *sink) armOutcome {
	backup := e.hedgeBackup(t)
	if backup == "" {
		return e.dispatchArm(ctx, "attempt", rec, query, vars, attemptN, timeout, dst, nil)
	}

	primCtx, cancelPrim := context.WithCancel(ctx)
	defer cancelPrim()
	primCh, clock := make(chan armOutcome, 1), make(chan *pausableDeadline, 1)
	go func() {
		primCh <- e.dispatchArm(primCtx, "attempt", rec, query, vars, attemptN, timeout, dst, clock)
	}()

	// The primary may run for its observed p95, floored at HedgeMinDelay,
	// of active time before the backup launches.
	delay := max(e.endpoints.ObservedP95(rec.url), e.opts.HedgeMinDelay)
	pd := <-clock
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for left := delay; left > 0; left = delay - pd.charged() {
		timer.Reset(left)
		select {
		case out := <-primCh:
			return out // finished under its p95: no hedge
		case <-timer.C:
		}
	}

	backupRec := e.endpoints.entry(backup)
	if !backupRec.breaker.Allow() {
		// The replica's circuit is open: no backup to race, wait the
		// primary out. (Allow admitted no half-open probe here — it
		// returned false — so there is nothing to release.)
		e.endpoints.count(&backupRec.rejected)
		return <-primCh
	}
	e.metrics.hedges.Inc()
	backCtx, cancelBack := context.WithCancel(ctx)
	defer cancelBack()
	backCh := make(chan armOutcome, 1)
	go func() {
		backCh <- e.dispatchArm(backCtx, "hedge", backupRec, query, vars, attemptN, timeout, dst, nil)
	}()

	var prim, back *armOutcome
	for prim == nil || back == nil {
		select {
		case o := <-primCh:
			prim = &o
			if o.err == nil {
				e.settleHedgeLoser(ctx, back, cancelBack, backCh)
				return o
			}
		case o := <-backCh:
			back = &o
			if o.err == nil {
				e.metrics.hedgeWins.Inc()
				e.settleHedgeLoser(ctx, prim, cancelPrim, primCh)
				return o
			}
		}
	}
	// Both arms failed: settle the backup's bookkeeping here and report
	// the primary's failure through the ordinary retry path.
	e.settleHedgeLoser(ctx, back, nil, nil)
	return *prim
}

// settleHedgeLoser books the losing arm: ended, its outcome; still
// running, it is cancelled and joined first. A near-simultaneous success
// counts as a success (its rows reached the merge anyway). A failure of an
// arm cancelled here, or under a cancelled fan-out, is no-fault whatever
// error the cancellation surfaced as (a body cut short reads as a decode
// error, not context.Canceled); any other failure is charged like any
// failed attempt.
func (e *Executor) settleHedgeLoser(ctx context.Context, ended *armOutcome, cancel context.CancelFunc, running <-chan armOutcome) {
	o := ended
	if o == nil {
		cancel()
		lost := <-running
		o = &lost
	}
	if o.err != nil && (ended == nil || ctx.Err() != nil) {
		o.rec.breaker.Cancel()
		return
	}
	e.settle(*o)
}

// settle books a finished arm — succeeded or failed, not abandoned — with
// its endpoint's record (counts, health model and breaker) and the
// latency histogram.
func (e *Executor) settle(o armOutcome) {
	e.endpoints.settle(o.rec, o.lat, o.count, o.err)
	e.metrics.latency.With(o.rec.url).Observe(o.lat.Seconds())
	if o.err != nil {
		o.rec.breaker.Failure()
		return
	}
	o.rec.breaker.Success()
}
