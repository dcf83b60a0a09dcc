package federate

import (
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"sparqlrw/internal/obs"
	"sparqlrw/internal/plan"
)

// The endpoint table is everything the executor knows about each endpoint
// URL, kept in one record: its circuit breaker, a health model fed by
// every settled attempt and background probe, and the endpoint's counts
// (attempts, successes, failures, retries, breaker rejections,
// solutions). Hedged dispatch reads an endpoint's smoothed p95 and score
// from it, the planner its smoothed median and breaker
// (plan.Endpoints), and Stats().Federation.Endpoints, /api/health, the
// dashboard and the per-endpoint sparqlrw_federate_*_total and
// sparqlrw_endpoint_* series its snapshot. The table lives and dies with
// its executor.

// The health model's constants.
const (
	// healthWindow is how many recent latency samples feed each quantile
	// estimate.
	healthWindow = 64
	// healthAlpha is the EWMA smoothing factor: the weight of the newest
	// observation.
	healthAlpha = 0.3
	// refLatency is the p95 at which the latency factor of the score
	// halves: score ∝ ref/(ref+p95).
	refLatency = 500 * time.Millisecond
)

// EndpointHealth is one endpoint's row of the table: smoothed latency
// quantiles, error rate, breaker state, the composite score in [0,1] that
// ranks endpoints for dispatch decisions (1 = healthy), and the
// endpoint's counts since the table was made.
type EndpointHealth struct {
	Endpoint  string  `json:"endpoint"`
	Score     float64 `json:"score"`
	P50MS     float64 `json:"p50Ms"`
	P95MS     float64 `json:"p95Ms"`
	ErrorRate float64 `json:"errorRate"`
	Breaker   string  `json:"breaker"`   // closed | open | half-open
	Attempts  uint64  `json:"attempts"`  // settled dispatch attempts, retries included
	Successes uint64  `json:"successes"` // attempts that returned results
	Failures  uint64  `json:"failures"`  // attempts that errored
	Retries   uint64  `json:"retries"`   // re-dispatches after a failed attempt
	Rejected  uint64  `json:"rejected"`  // dispatches an open circuit refused
	Solutions uint64  `json:"solutions"` // solutions streamed off the wire, before the merge

	Probes        uint64    `json:"probes,omitempty"`
	ProbeFailures uint64    `json:"probeFailures,omitempty"`
	LastSeen      time.Time `json:"lastSeen,omitzero"`
	LastError     string    `json:"lastError,omitempty"`
}

// EndpointTable holds one record per endpoint URL under one lock. All
// methods are safe for concurrent use.
type EndpointTable struct {
	breakerFailures int
	breakerCooldown time.Duration

	mu   sync.Mutex
	recs map[string]*endpointRecord
}

// The planner reads the table.
var _ plan.Endpoints = (*EndpointTable)(nil)

// endpointRecord is one endpoint's entry. url and breaker are set when
// the record is made and never replaced, so they are read without the
// table's lock; the rest is guarded by it.
type endpointRecord struct {
	url     string
	breaker *Breaker

	samples          [healthWindow]float64 // seconds; ring of the latest latencies
	sorted           [healthWindow]float64 // the ring's n samples in order
	n, next          int                   // samples held; the slot the next one takes
	ewmaP50, ewmaP95 float64               // seconds, smoothed across observations
	ewmaErr          float64               // smoothed failure indicator in [0,1]

	attempts, successes, failures uint64
	retries, rejected, solutions  uint64
	probes, probeFailures         uint64
	lastSeen                      time.Time
	lastError                     string
}

func newEndpointTable(o Options) *EndpointTable {
	return &EndpointTable{
		breakerFailures: o.BreakerFailures,
		breakerCooldown: o.BreakerCooldown,
		recs:            make(map[string]*endpointRecord),
	}
}

// get returns url's record, making it on first use; t.mu must be held.
func (t *EndpointTable) get(url string) *endpointRecord {
	r, ok := t.recs[url]
	if !ok {
		r = &endpointRecord{url: url, breaker: NewBreaker(t.breakerFailures, t.breakerCooldown)}
		t.recs[url] = r
	}
	return r
}

// entry returns url's record, making it on first use.
func (t *EndpointTable) entry(url string) *endpointRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.get(url)
}

// Ensure lists an endpoint (with a neutral score) before any traffic
// reaches it. The mediator calls this for every configured endpoint.
func (t *EndpointTable) Ensure(url string) {
	if url != "" {
		t.entry(url)
	}
}

// RecordProbe feeds one background ASK probe's outcome into the
// endpoint's health. Probes keep latency estimates fresh for idle
// endpoints.
func (t *EndpointTable) RecordProbe(url string, latency time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.get(url)
	r.probes++
	if err != nil {
		r.probeFailures++
	}
	r.observe(latency, err)
}

// settle books one finished attempt with r: its counts, and its outcome
// into r's health.
func (t *EndpointTable) settle(r *endpointRecord, latency time.Duration, solutions int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.attempts++
	if err != nil {
		r.failures++
	} else {
		r.successes++
		r.solutions += uint64(solutions)
	}
	r.observe(latency, err)
}

// count adds one to a count of a record's that no outcome settles (its
// retries, its rejections) under the table's lock.
func (t *EndpointTable) count(n *uint64) {
	t.mu.Lock()
	*n++
	t.mu.Unlock()
}

// observe updates the latency window and the EWMAs with one outcome; the
// table's lock must be held.
func (r *endpointRecord) observe(latency time.Duration, err error) {
	r.lastSeen = time.Now()
	if err != nil {
		r.lastError = err.Error()
	}

	if latency > 0 {
		r.insert(latency.Seconds())
		p50, p95 := sortedQuantiles(r.sorted[:r.n])
		if r.n == 1 {
			r.ewmaP50, r.ewmaP95 = p50, p95
		} else {
			r.ewmaP50 = healthAlpha*p50 + (1-healthAlpha)*r.ewmaP50
			r.ewmaP95 = healthAlpha*p95 + (1-healthAlpha)*r.ewmaP95
		}
	}

	e01 := 0.0
	if err != nil {
		e01 = 1
	}
	r.ewmaErr = healthAlpha*e01 + (1-healthAlpha)*r.ewmaErr
}

// insert puts one sample into the ring, over the oldest once it is full,
// and keeps the sorted copy in step: the oldest leaves it and the new one
// enters it each by a binary search and a memmove.
func (r *endpointRecord) insert(sample float64) {
	sorted := r.sorted[:r.n]
	if r.n == healthWindow {
		i, _ := slices.BinarySearch(sorted, r.samples[r.next])
		sorted = slices.Delete(sorted, i, i+1)
	} else {
		r.n++
	}
	i, _ := slices.BinarySearch(sorted, sample)
	sorted = sorted[:len(sorted)+1] // within the array: no allocation
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = sample
	r.samples[r.next] = sample
	r.next = (r.next + 1) % healthWindow
}

// sortedQuantiles returns the nearest-rank p50 and p95 of sorted samples.
func sortedQuantiles(sorted []float64) (p50, p95 float64) {
	rank := func(q float64) float64 {
		return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
	}
	return rank(0.50), rank(0.95)
}

// health snapshots r; the table's lock must be held. The score multiplies
// three independent penalties:
//
//	availability — 1 minus the EWMA error rate (probes included);
//	latency      — ref/(ref+p95), halving at refLatency;
//	breaker      — 1 closed, 0.5 half-open, 0 open.
//
// An endpoint nothing has been observed about scores a neutral 1.
func (r *endpointRecord) health() EndpointHealth {
	state := r.breaker.State()
	breakerFactor := 1.0
	switch state {
	case BreakerOpen:
		breakerFactor = 0
	case BreakerHalfOpen:
		breakerFactor = 0.5
	}
	ref := refLatency.Seconds()
	latFactor := ref / (ref + r.ewmaP95)
	return EndpointHealth{
		Endpoint:      r.url,
		Score:         math.Round((1-r.ewmaErr)*latFactor*breakerFactor*1000) / 1000,
		P50MS:         r.ewmaP50 * 1000,
		P95MS:         r.ewmaP95 * 1000,
		ErrorRate:     r.ewmaErr,
		Breaker:       state.String(),
		Attempts:      r.attempts,
		Successes:     r.successes,
		Failures:      r.failures,
		Retries:       r.retries,
		Rejected:      r.rejected,
		Solutions:     r.solutions,
		Probes:        r.probes,
		ProbeFailures: r.probeFailures,
		LastSeen:      r.lastSeen,
		LastError:     r.lastError,
	}
}

// Snapshot returns every known endpoint's health, sorted by endpoint URL.
func (t *EndpointTable) Snapshot() []EndpointHealth {
	t.mu.Lock()
	out := make([]EndpointHealth, 0, len(t.recs))
	for _, r := range t.recs {
		out = append(out, r.health())
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b EndpointHealth) int { return strings.Compare(a.Endpoint, b.Endpoint) })
	return out
}

// ObservedP95 returns the endpoint's smoothed 95th-percentile attempt
// latency, or 0 when nothing has been observed — the signal hedged
// dispatch fires off.
func (t *EndpointTable) ObservedP95(url string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.recs[url]; ok {
		return time.Duration(r.ewmaP95 * float64(time.Second))
	}
	return 0
}

// Observed reports the endpoint's smoothed median attempt latency (0 when
// nothing has been observed) and whether its circuit is open: what the
// planner orders dispatch and sets deadlines by.
func (t *EndpointTable) Observed(url string) (p50 time.Duration, open bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.recs[url]; ok {
		return time.Duration(r.ewmaP50 * float64(time.Second)), r.breaker.State() == BreakerOpen
	}
	return 0, false
}

// Best ranks the candidate endpoints by their current health score and
// returns the healthiest — the hedged-dispatch replica picker. An
// endpoint the table knows nothing about scores a neutral 1, and ties
// break towards the earlier candidate.
func (t *EndpointTable) Best(candidates []string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	best, bestScore := "", -1.0
	for _, c := range candidates {
		score := 1.0
		if r, ok := t.recs[c]; ok {
			score = r.health().Score
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// registerMetrics exposes the table as Prometheus series on r: the
// breaker state, the six per-endpoint counts and the four
// sparqlrw_endpoint_* health families, each read from a snapshot at
// scrape time.
func (t *EndpointTable) registerMetrics(r *obs.Registry) {
	r.GaugeFuncVec("sparqlrw_federate_breaker_state",
		"Circuit-breaker state per endpoint (1 for the current state).",
		[]string{"endpoint", "state"}, func(emit func([]string, float64)) {
			for _, eh := range t.Snapshot() {
				emit([]string{eh.Endpoint, eh.Breaker}, 1)
			}
		})
	for _, fam := range []struct {
		name, help string
		counter    bool
		value      func(EndpointHealth) float64
	}{
		{"sparqlrw_federate_attempts_total", "Sub-query dispatch attempts per endpoint, including retries.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Attempts) }},
		{"sparqlrw_federate_successes_total", "Sub-query attempts that returned results, per endpoint.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Successes) }},
		{"sparqlrw_federate_failures_total", "Sub-query attempts that errored, per endpoint.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Failures) }},
		{"sparqlrw_federate_retries_total", "Sub-query re-dispatches after a failed attempt, per endpoint.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Retries) }},
		{"sparqlrw_federate_rejected_total", "Sub-queries refused by an open circuit breaker, per endpoint.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Rejected) }},
		{"sparqlrw_federate_solutions_total", "Solutions streamed off the wire per endpoint, before the co-reference merge.",
			true, func(eh EndpointHealth) float64 { return float64(eh.Solutions) }},
		{"sparqlrw_endpoint_health_score", "Composite endpoint health score in [0,1] (1 = healthy).",
			false, func(eh EndpointHealth) float64 { return eh.Score }},
		{"sparqlrw_endpoint_latency_p50_seconds", "EWMA-smoothed median sub-query latency per endpoint.",
			false, func(eh EndpointHealth) float64 { return eh.P50MS / 1000 }},
		{"sparqlrw_endpoint_latency_p95_seconds", "EWMA-smoothed 95th-percentile sub-query latency per endpoint.",
			false, func(eh EndpointHealth) float64 { return eh.P95MS / 1000 }},
		{"sparqlrw_endpoint_error_rate", "EWMA-smoothed sub-query failure rate per endpoint in [0,1].",
			false, func(eh EndpointHealth) float64 { return eh.ErrorRate }},
	} {
		register := r.GaugeFuncVec
		if fam.counter {
			register = r.CounterFuncVec
		}
		register(fam.name, fam.help, []string{"endpoint"}, func(emit func([]string, float64)) {
			for _, eh := range t.Snapshot() {
				emit([]string{eh.Endpoint}, fam.value(eh))
			}
		})
	}
}
