package federate

import (
	"sparqlrw/internal/obs"
)

// executorMetrics are the executor's registry instruments that no record
// keeps: the latency histograms, which only /metrics reads, and the
// hedging counters. The per-endpoint counts live in the endpoint table.
type executorMetrics struct {
	latency   *obs.HistogramVec
	ttfs      *obs.HistogramVec
	hedges    *obs.Counter
	hedgeWins *obs.Counter
}

func newExecutorMetrics(r *obs.Registry) *executorMetrics {
	return &executorMetrics{
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
// executor's plan cache and endpoint table. Registering a family again
// replaces its callback, so a registry shared by several executors reads
// the one built last instead of double-booking them.
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

// Stats is a point-in-time snapshot of the executor: one row per endpoint
// from the endpoint table, the rewrite-plan cache's hit rate and the
// hedging counters.
type Stats struct {
	Endpoints    []EndpointHealth `json:"endpoints"`
	CacheHits    uint64           `json:"cacheHits"`
	CacheMisses  uint64           `json:"cacheMisses"`
	CacheHitRate float64          `json:"cacheHitRate"` // hits / (hits+misses), 0 when idle
	CacheEntries int              `json:"cacheEntries"`
	Hedges       uint64           `json:"hedges"`    // backup sub-queries dispatched
	HedgeWins    uint64           `json:"hedgeWins"` // hedged dispatches the backup won
}

// Stats assembles the snapshot, its endpoints sorted by URL.
func (e *Executor) Stats() Stats {
	st := Stats{
		Endpoints:    e.endpoints.Snapshot(),
		CacheEntries: e.cache.Len(),
		Hedges:       uint64(e.metrics.hedges.Value()),
		HedgeWins:    uint64(e.metrics.hedgeWins.Value()),
	}
	st.CacheHits, st.CacheMisses = e.cache.Metrics()
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	return st
}
