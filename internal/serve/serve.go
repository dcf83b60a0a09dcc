// Package serve is the mediator's production serving tier: the layer in
// front of Mediator.Query that makes one rewriting mediator safe to put
// in front of many users. It bundles three concerns the paper's
// single-query prototype never needed:
//
//	admission — a tenant registry (API-key or header mapped, with a
//	            default anonymous tenant), per-tenant token-bucket rate
//	            limits and concurrency caps with a bounded wait queue,
//	            shedding load as 429/503 before any planning work runs;
//	caching   — a federated result cache keyed by the owl:sameAs
//	            canonicalised query, serving repeated SELECT/ASK queries
//	            without a single endpoint round trip — a repeated request
//	            text without a parse — size- and TTL-bounded, invalidated
//	            through the voiD/alignment KB subscription hooks;
//	policy    — per-tenant graph restrictions injected into the query
//	            algebra before planning, so access control rides the
//	            same rewriting pipeline as ontology integration.
//
// The tier is deliberately stateless across processes: every structure
// here is an in-memory derivative of configuration or of cacheable
// upstream answers, so horizontally scaled mediator replicas need no
// coordination.
package serve

import (
	"time"

	"sparqlrw/internal/obs"
)

// Options configure a serving tier. The zero value enables the result
// cache with its defaults and an unlimited anonymous tenant.
type Options struct {
	// Tenants is the tenant configuration (see LoadTenants). Nil means
	// "anonymous only, unlimited".
	Tenants *TenantsConfig
	// CacheSize is the result cache's entry capacity (default 512; set
	// to -1 to disable result caching entirely).
	CacheSize int
	// CacheTTL bounds an entry's lifetime (default 5 minutes).
	CacheTTL time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 512
	}
	if o.CacheTTL <= 0 {
		o.CacheTTL = 5 * time.Minute
	}
	return o
}

// Tier is one process's serving tier: tenant registry, admission
// control and the federated result cache, with their instruments bound
// into the shared metrics registry.
type Tier struct {
	Tenants   *TenantRegistry
	Admission *Admission
	// Cache is nil when result caching is disabled (CacheSize < 0).
	Cache *ResultCache

	opts Options
}

// NewTier builds a serving tier and registers its metrics. reg may be
// nil (no instruments).
func NewTier(opts Options, reg *obs.Registry) *Tier {
	opts = opts.withDefaults()
	t := &Tier{
		Tenants: NewTenantRegistry(opts.Tenants),
		opts:    opts,
	}
	t.Admission = NewAdmission(t.Tenants)
	if opts.CacheSize > 0 {
		t.Cache = NewResultCache(opts.CacheSize, opts.CacheTTL)
	}
	t.register(reg)
	return t
}

// Options returns the tier's effective (defaulted) options.
func (t *Tier) Options() Options { return t.opts }

// register binds the tier's instruments into the registry. Plain
// counters and function-backed families both render from the first
// scrape on, so dashboards and the check-metrics smoke test see the
// series at zero before any traffic arrives.
func (t *Tier) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.Admission.metrics = newAdmissionMetrics(reg)
	reg.GaugeFuncVec("sparqlrw_serve_inflight",
		"Admitted queries currently executing, per tenant.",
		[]string{"tenant"}, func(emit func([]string, float64)) {
			for _, ts := range t.Admission.Snapshot() {
				emit([]string{ts.Tenant}, float64(ts.InFlight))
			}
		})
	if t.Cache == nil {
		return
	}
	reg.CounterFunc("sparqlrw_result_cache_hits_total",
		"Federated result cache hits.", func() float64 {
			return float64(t.Cache.Metrics().Hits)
		})
	reg.CounterFunc("sparqlrw_result_cache_misses_total",
		"Federated result cache misses.", func() float64 {
			return float64(t.Cache.Metrics().Misses)
		})
	reg.CounterFunc("sparqlrw_result_cache_evictions_total",
		"Federated result cache entries evicted (capacity or TTL).", func() float64 {
			return float64(t.Cache.Metrics().Evictions)
		})
	reg.CounterFunc("sparqlrw_result_cache_invalidations_total",
		"Federated result cache entries dropped by KB invalidation.", func() float64 {
			return float64(t.Cache.Metrics().Invalidations)
		})
	reg.GaugeFunc("sparqlrw_result_cache_entries",
		"Federated results currently cached.", func() float64 {
			return float64(t.Cache.Len())
		})
}

// CacheStats is the result cache's snapshot for Stats consumers.
type CacheStats struct {
	CacheMetrics
	Entries int `json:"entries"`
	// HitRate is hits / (hits+misses), 0 when idle.
	HitRate float64 `json:"hitRate"`
}

// Stats is the tier's observability snapshot: every tenant's admission
// state plus the result cache's counters (nil when caching is off).
type Stats struct {
	Tenants []TenantStats `json:"tenants"`
	Cache   *CacheStats   `json:"cache,omitempty"`
}

// Stats snapshots the tier.
func (t *Tier) Stats() Stats {
	st := Stats{Tenants: t.Admission.Snapshot()}
	if t.Cache != nil {
		cs := &CacheStats{CacheMetrics: t.Cache.Metrics(), Entries: t.Cache.Len()}
		if total := cs.Hits + cs.Misses; total > 0 {
			cs.HitRate = float64(cs.Hits) / float64(total)
		}
		st.Cache = cs
	}
	return st
}

// Flush drops every cached result — the voiD and alignment KB Subscribe
// hooks' entry point (a change to either can alter any answer).
func (t *Tier) Flush() {
	if t.Cache != nil {
		t.Cache.Flush()
	}
}
