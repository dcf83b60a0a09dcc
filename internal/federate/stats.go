package federate

import (
	"sort"

	"sparqlrw/internal/obs"
)

// EndpointStats is one endpoint's cumulative execution counters.
type EndpointStats struct {
	Endpoint     string  `json:"endpoint"`
	Requests     uint64  `json:"requests"`     // dispatched attempts (incl. retries)
	Successes    uint64  `json:"successes"`    // attempts that returned results
	Failures     uint64  `json:"failures"`     // attempts that errored
	Retries      uint64  `json:"retries"`      // re-dispatches after a failed attempt
	Rejected     uint64  `json:"rejected"`     // requests refused by the circuit breaker
	Solutions    uint64  `json:"solutions"`    // solutions streamed off the wire
	AvgLatencyMS float64 `json:"avgLatencyMs"` // mean latency of completed attempts
	P95LatencyMS float64 `json:"p95LatencyMs"` // estimated 95th-percentile latency
	AvgTTFSMS    float64 `json:"avgTtfsMs"`    // mean time to first solution
	P95TTFSMS    float64 `json:"p95TtfsMs"`    // estimated 95th-percentile time to first solution
	Breaker      string  `json:"breaker"`      // closed | open | half-open
}

// Stats is a point-in-time snapshot of the executor's health: per-endpoint
// latency and retry counters, breaker states, and rewrite-cache hit rate.
type Stats struct {
	Endpoints    []EndpointStats `json:"endpoints"`
	CacheHits    uint64          `json:"cacheHits"`
	CacheMisses  uint64          `json:"cacheMisses"`
	CacheHitRate float64         `json:"cacheHitRate"` // hits / (hits+misses), 0 when idle
	CacheEntries int             `json:"cacheEntries"`
	Hedges       uint64          `json:"hedges"`    // backup sub-queries dispatched
	HedgeWins    uint64          `json:"hedgeWins"` // hedged dispatches the backup won
}

// Stats assembles a snapshot sorted by endpoint URL. It is a read-back
// view over the executor's metrics registry — the same instruments
// /metrics renders — so the JSON snapshot can never drift from the
// Prometheus exposition.
func (e *Executor) Stats() Stats {
	byURL := map[string]*EndpointStats{}
	get := func(url string) *EndpointStats {
		s, ok := byURL[url]
		if !ok {
			s = &EndpointStats{Endpoint: url}
			byURL[url] = s
		}
		return s
	}
	counter := func(v *obs.CounterVec, set func(*EndpointStats, uint64)) {
		v.Each(func(lvs []string, val float64) { set(get(lvs[0]), uint64(val)) })
	}
	counter(e.metrics.attempts, func(s *EndpointStats, v uint64) { s.Requests = v })
	counter(e.metrics.successes, func(s *EndpointStats, v uint64) { s.Successes = v })
	counter(e.metrics.failures, func(s *EndpointStats, v uint64) { s.Failures = v })
	counter(e.metrics.retries, func(s *EndpointStats, v uint64) { s.Retries = v })
	counter(e.metrics.rejected, func(s *EndpointStats, v uint64) { s.Rejected = v })
	counter(e.metrics.solutions, func(s *EndpointStats, v uint64) { s.Solutions = v })
	e.metrics.latency.Each(func(lvs []string, snap obs.HistogramSnapshot) {
		s := get(lvs[0])
		s.AvgLatencyMS = snap.Mean() * 1000
		s.P95LatencyMS = snap.Quantile(0.95) * 1000
	})
	e.metrics.ttfs.Each(func(lvs []string, snap obs.HistogramSnapshot) {
		s := get(lvs[0])
		s.AvgTTFSMS = snap.Mean() * 1000
		s.P95TTFSMS = snap.Quantile(0.95) * 1000
	})

	for _, eh := range e.endpoints.Snapshot() {
		if s, ok := byURL[eh.Endpoint]; ok {
			s.Breaker = eh.Breaker
		}
	}

	var out Stats
	for _, s := range byURL {
		if s.Breaker == "" {
			s.Breaker = BreakerClosed.String()
		}
		out.Endpoints = append(out.Endpoints, *s)
	}
	sort.Slice(out.Endpoints, func(i, j int) bool {
		return out.Endpoints[i].Endpoint < out.Endpoints[j].Endpoint
	})
	out.CacheHits, out.CacheMisses = e.cache.Metrics()
	out.CacheEntries = e.cache.Len()
	out.Hedges = uint64(e.metrics.hedges.Value())
	out.HedgeWins = uint64(e.metrics.hedgeWins.Value())
	if total := out.CacheHits + out.CacheMisses; total > 0 {
		out.CacheHitRate = float64(out.CacheHits) / float64(total)
	}
	return out
}
