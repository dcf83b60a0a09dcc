package federate

import (
	"sparqlrw/internal/obs"
)

// executorMetrics are the executor's registry-backed instruments. They
// are the single source of truth for per-endpoint execution counters:
// Stats() reads them back, and the same registry renders them at
// /metrics, so the JSON snapshot and the Prometheus exposition cannot
// disagree.
type executorMetrics struct {
	attempts  *obs.CounterVec
	successes *obs.CounterVec
	failures  *obs.CounterVec
	retries   *obs.CounterVec
	rejected  *obs.CounterVec
	solutions *obs.CounterVec
	latency   *obs.HistogramVec
	ttfs      *obs.HistogramVec
	hedges    *obs.Counter
	hedgeWins *obs.Counter
}

func newExecutorMetrics(r *obs.Registry) *executorMetrics {
	return &executorMetrics{
		attempts: r.CounterVec("sparqlrw_federate_attempts_total",
			"Sub-query dispatch attempts per endpoint, including retries.", "endpoint"),
		successes: r.CounterVec("sparqlrw_federate_successes_total",
			"Sub-query attempts that returned results, per endpoint.", "endpoint"),
		failures: r.CounterVec("sparqlrw_federate_failures_total",
			"Sub-query attempts that errored, per endpoint.", "endpoint"),
		retries: r.CounterVec("sparqlrw_federate_retries_total",
			"Sub-query re-dispatches after a failed attempt, per endpoint.", "endpoint"),
		rejected: r.CounterVec("sparqlrw_federate_rejected_total",
			"Sub-queries refused by an open circuit breaker, per endpoint.", "endpoint"),
		solutions: r.CounterVec("sparqlrw_federate_solutions_total",
			"Solutions streamed off the wire per endpoint, before the co-reference merge.", "endpoint"),
		latency: r.HistogramVec("sparqlrw_federate_request_seconds",
			"Sub-query attempt latency per endpoint, in seconds.", nil, "endpoint"),
		ttfs: r.HistogramVec("sparqlrw_federate_ttfs_seconds",
			"Time from sub-query dispatch to its first solution, per endpoint, in seconds.", nil, "endpoint"),
		hedges: r.Counter("sparqlrw_federate_hedges_total",
			"Backup sub-queries dispatched because the primary ran past its observed p95."),
		hedgeWins: r.Counter("sparqlrw_federate_hedge_wins_total",
			"Hedged dispatches where the backup replica answered first."),
	}
}

// registerCollectors binds the function-backed families to this
// executor's plan cache and endpoint table. The mediator rebuilds its
// executor on reconfiguration while keeping one registry; re-registering
// replaces the callbacks, so the exposition always reads the live
// executor's state instead of double-booking it.
func (e *Executor) registerCollectors(r *obs.Registry) {
	r.CounterFunc("sparqlrw_plan_cache_hits_total",
		"Rewrite-plan cache hits.", func() float64 {
			hits, _ := e.cache.Metrics()
			return float64(hits)
		})
	r.CounterFunc("sparqlrw_plan_cache_misses_total",
		"Rewrite-plan cache misses.", func() float64 {
			_, misses := e.cache.Metrics()
			return float64(misses)
		})
	r.GaugeFunc("sparqlrw_plan_cache_entries",
		"Rewrite plans currently cached.", func() float64 {
			return float64(e.cache.Len())
		})
	e.endpoints.registerMetrics(r)
}
