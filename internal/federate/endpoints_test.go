package federate

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"sparqlrw/internal/obs"
)

func newTestTable() *EndpointTable { return newEndpointTable(Options{}.withDefaults()) }

// observeAttempt feeds one settled attempt into the table, as the
// executor's settle does.
func observeAttempt(tab *EndpointTable, url string, latency time.Duration, err error) {
	tab.settle(tab.entry(url), latency, 0, err)
}

func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestEndpointTableScoresAndQuantiles(t *testing.T) {
	tab := newTestTable()
	const n = 30
	for i := 0; i < n; i++ {
		observeAttempt(tab, "http://fast/sparql", 10*time.Millisecond, nil)
		observeAttempt(tab, "http://slow/sparql", 800*time.Millisecond, nil)
		observeAttempt(tab, "http://flaky/sparql", 10*time.Millisecond, errors.New("boom"))
	}
	byURL := map[string]EndpointHealth{}
	for _, eh := range tab.Snapshot() {
		byURL[eh.Endpoint] = eh
	}
	fast, slow, flaky := byURL["http://fast/sparql"], byURL["http://slow/sparql"], byURL["http://flaky/sparql"]

	// A constant latency smooths to itself.
	if !near(fast.P50MS, 10) || !near(fast.P95MS, 10) {
		t.Errorf("fast quantiles = p50 %v p95 %v, want 10/10", fast.P50MS, fast.P95MS)
	}
	if fast.Attempts != n || fast.Failures != 0 || fast.ErrorRate != 0 {
		t.Errorf("fast counters = %+v", fast)
	}
	if want := 1 - math.Pow(1-healthAlpha, n); flaky.Failures != n || !near(flaky.ErrorRate, want) || flaky.LastError != "boom" {
		t.Errorf("flaky counters = %+v, want error rate %v", flaky, want)
	}
	// Health ordering: a fast healthy endpoint beats a slow one beats an
	// always-failing one.
	if !(fast.Score > slow.Score && slow.Score > flaky.Score) {
		t.Errorf("score order fast %v > slow %v > flaky %v violated",
			fast.Score, slow.Score, flaky.Score)
	}
	if flaky.Score != 0 {
		t.Errorf("always-failing score = %v, want 0", flaky.Score)
	}
	if fast.Score <= 0.9 {
		t.Errorf("fast healthy endpoint score = %v, want > 0.9", fast.Score)
	}
	if p95 := tab.ObservedP95("http://slow/sparql"); (p95 - 800*time.Millisecond).Abs() > time.Microsecond {
		t.Errorf("ObservedP95 = %v, want 800ms", p95)
	}
	if p50, open := tab.Observed("http://slow/sparql"); (p50-800*time.Millisecond).Abs() > time.Microsecond || open {
		t.Errorf("Observed = %v, %v, want 800ms, closed", p50, open)
	}
}

func TestEndpointTableWindowAndEWMA(t *testing.T) {
	tab := newTestTable()
	// Fill the window with slow samples, then push as many fast ones: the
	// window forgets, the EWMA converges down gradually.
	for i := 0; i < healthWindow; i++ {
		observeAttempt(tab, "e", time.Second, nil)
	}
	first := tab.ObservedP95("e")
	for i := 0; i < healthWindow; i++ {
		observeAttempt(tab, "e", 10*time.Millisecond, nil)
	}
	after := tab.ObservedP95("e")
	if after >= first {
		t.Errorf("p95 did not decay: %v -> %v", first, after)
	}
	if after < 10*time.Millisecond {
		t.Errorf("p95 undershot the observed latencies: %v", after)
	}

	// Error rate recovers after successes.
	observeAttempt(tab, "f", time.Millisecond, errors.New("x"))
	rateAfterFailure := snapshotFor(t, tab, "f").ErrorRate
	for i := 0; i < 10; i++ {
		observeAttempt(tab, "f", time.Millisecond, nil)
	}
	if got := snapshotFor(t, tab, "f").ErrorRate; got >= rateAfterFailure || got < 0 {
		t.Errorf("error rate did not recover: %v -> %v", rateAfterFailure, got)
	}
}

// TestSortedWindowMatchesSorting: the sorted copy the ring keeps gives
// the p50 and p95 that sorting the window at each sample gives, over
// random sequences longer than the window, ties included.
func TestSortedWindowMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for seq := range 50 {
		var r endpointRecord
		for i := range healthWindow*3 + seq {
			sample := float64(rng.IntN(40)) / 1000 // few values: ties
			if seq%2 == 1 {
				sample = rng.ExpFloat64()
			}
			r.insert(sample)
			window := slices.Clone(r.samples[:r.n])
			slices.Sort(window)
			rank := func(q float64) float64 { return window[max(int(math.Ceil(q*float64(len(window))))-1, 0)] }
			p50, p95 := sortedQuantiles(r.sorted[:r.n])
			if p50 != rank(0.50) || p95 != rank(0.95) {
				t.Fatalf("sequence %d, sample %d: p50, p95 = %v, %v; sorting the window gives %v, %v", seq, i, p50, p95, rank(0.50), rank(0.95))
			}
			if !slices.Equal(r.sorted[:r.n], window) {
				t.Fatalf("sequence %d, sample %d: sorted copy %v, window %v", seq, i, r.sorted[:r.n], window)
			}
		}
	}
}

// TestEndpointRecordHoldsBreaker: the breaker the executor trips is the
// one the record's health, score and planner view report.
func TestEndpointRecordHoldsBreaker(t *testing.T) {
	tab := newTestTable()
	rec := tab.entry("e")
	var clk *fakeClock
	rec.breaker, clk = newTestBreaker(1, time.Minute)
	observeAttempt(tab, "e", 10*time.Millisecond, nil)
	base := snapshotFor(t, tab, "e").Score

	rec.breaker.Failure()
	eh := snapshotFor(t, tab, "e")
	if eh.Breaker != "open" || eh.Score != 0 {
		t.Errorf("open breaker: %+v (base score %v)", eh, base)
	}
	if _, open := tab.Observed("e"); !open {
		t.Error("Observed does not report the open circuit")
	}
	clk.advance(time.Minute)
	rec.breaker.Allow() // the cooled-down breaker admits its half-open probe
	eh = snapshotFor(t, tab, "e")
	if eh.Breaker != "half-open" || eh.Score >= base || eh.Score <= 0 {
		t.Errorf("half-open breaker: score %v, want in (0, %v)", eh.Score, base)
	}
}

func TestEndpointTableEnsureAndProbes(t *testing.T) {
	tab := newTestTable()
	tab.Ensure("http://idle/sparql")
	tab.Ensure("")
	if n := len(tab.Snapshot()); n != 1 {
		t.Fatalf("snapshot lists %d endpoints, want 1", n)
	}
	eh := snapshotFor(t, tab, "http://idle/sparql")
	if eh.Score != 1 || eh.Attempts != 0 || eh.Breaker != "closed" {
		t.Errorf("idle endpoint = %+v, want neutral score 1", eh)
	}
	tab.RecordProbe("http://idle/sparql", 20*time.Millisecond, nil)
	eh = snapshotFor(t, tab, "http://idle/sparql")
	if eh.Probes != 1 || eh.Attempts != 0 {
		t.Errorf("probe not counted separately: %+v", eh)
	}
	if eh.P50MS == 0 {
		t.Error("probe latency did not feed the quantile estimate")
	}
}

func TestEndpointTableMetrics(t *testing.T) {
	tab := newTestTable()
	r := obs.NewRegistry()
	tab.registerMetrics(r)
	observeAttempt(tab, "http://a/sparql", 100*time.Millisecond, nil)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`sparqlrw_federate_breaker_state{endpoint="http://a/sparql",state="closed"} 1`,
		`sparqlrw_endpoint_health_score{endpoint="http://a/sparql"}`,
		`sparqlrw_endpoint_latency_p50_seconds{endpoint="http://a/sparql"} 0.1`,
		`sparqlrw_endpoint_latency_p95_seconds{endpoint="http://a/sparql"} 0.1`,
		`sparqlrw_endpoint_error_rate{endpoint="http://a/sparql"} 0`,
		"# TYPE sparqlrw_federate_attempts_total counter\n" + `sparqlrw_federate_attempts_total{endpoint="http://a/sparql"} 1`,
		`sparqlrw_federate_successes_total{endpoint="http://a/sparql"} 1`,
		`sparqlrw_federate_failures_total{endpoint="http://a/sparql"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func snapshotFor(t *testing.T, tab *EndpointTable, endpoint string) EndpointHealth {
	t.Helper()
	for _, eh := range tab.Snapshot() {
		if eh.Endpoint == endpoint {
			return eh
		}
	}
	t.Fatalf("endpoint %q missing from snapshot", endpoint)
	return EndpointHealth{}
}
