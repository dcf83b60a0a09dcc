package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},
		{ten, 95, 10},
		{ten, 90, 9},
		{ten, 10, 1},
		{ten, 1, 1},
		{ten, 100, 10},
		{[]float64{7}, 50, 7},
		{[]float64{1, 2, 3}, 50, 2},
		{nil, 50, 0},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestFailedSamplesCountAsWorstLatency(t *testing.T) {
	samples := []sample{
		{latency: time.Millisecond, ok: true},
		{latency: 2 * time.Millisecond, ok: true},
		{latency: time.Microsecond}, // failed fast: still the worst
	}
	lat := latenciesMS(samples, func(s sample) time.Duration { return s.latency })
	if want := []float64{1, 2, failedLatencyMS}; !reflect.DeepEqual(lat, want) {
		t.Fatalf("latencies = %v, want %v", lat, want)
	}
}

func TestSpanUnionAndSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	ep := func(from, to int) span { return span{Name: "endpoint:x", Start: at(from), End: at(to)} }
	for _, tc := range []struct {
		name                 string
		endpoints            []span
		busy, blocking, self time.Duration
	}{
		{"no endpoint spans: all self", nil, 0, 0, 100 * time.Millisecond},
		{"serial hops add up", []span{ep(10, 20), ep(30, 50)},
			30 * time.Millisecond, 30 * time.Millisecond, 70 * time.Millisecond},
		{"parallel hops count once", []span{ep(10, 40), ep(20, 30), ep(35, 60)},
			65 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond},
		{"spans are clipped to the request", []span{ep(-20, 10), ep(90, 130)},
			70 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond},
		{"unsorted input", []span{ep(60, 70), ep(10, 20)},
			20 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond},
	} {
		rt := requestTrace{request: span{Name: "request", Start: at(0), End: at(100)}, endpoints: tc.endpoints}
		if got := rt.busy(); got != tc.busy {
			t.Errorf("%s: busy = %v, want %v", tc.name, got, tc.busy)
		}
		if got := rt.blocking(); got != tc.blocking {
			t.Errorf("%s: blocking = %v, want %v", tc.name, got, tc.blocking)
		}
		if got := rt.self(); got != tc.self {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.self)
		}
	}
}

func TestGroupByRequestLeavesOutBackgroundSpans(t *testing.T) {
	req := requestSpan(0, 7)
	traceID, parent := splitTraceparent(req.traceparent())
	if traceID != req.TraceID || parent != req.SpanID {
		t.Fatalf("traceparent %q does not carry the span's ids", req.traceparent())
	}
	spans := []span{
		req,
		{Name: "endpoint:kisti", TraceID: req.TraceID},
		{Name: "endpoint:metrics", TraceID: "someone-else"},
	}
	requests := groupByRequest(spans)
	if len(requests) != 1 || len(requests[0].endpoints) != 1 || requests[0].endpoints[0].Name != "endpoint:kisti" {
		t.Fatalf("grouped %v, want one request with its one endpoint span", requests)
	}
}

// sequences returns every client's first n draws of a workload.
func sequences(s spec, seed int64, n int) [][]int {
	out := make([][]int, loadClients)
	for c := range out {
		poolSize := 2 * hotPoolHalf
		if !s.hot {
			poolSize = universePersons
		}
		next := s.draws(poolSize, clientRNG(seed, c))
		for i := 0; i < n; i++ {
			out[c] = append(out[c], next())
		}
	}
	return out
}

func TestSequencesAreDeterministicInTheSeed(t *testing.T) {
	for _, name := range []string{"fig1-coauthors", "hot-churn"} {
		s, _ := specByName(name)
		a, b := sequences(s, 1, 500), sequences(s, 1, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different sequences", name)
		}
		if reflect.DeepEqual(a, sequences(s, 2, 500)) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequences", name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: both clients walk the same sequence", name)
		}
	}
	// One walk of the permutation visits every person exactly once.
	fig1, _ := specByName("fig1-coauthors")
	seen := map[int]bool{}
	for _, i := range sequences(fig1, 3, universePersons)[0] {
		seen[i] = true
	}
	if len(seen) != universePersons {
		t.Errorf("one permutation walk visited %d of %d persons", len(seen), universePersons)
	}
}

func TestHotPoolMixesBothQueryKinds(t *testing.T) {
	fed, err := bootFederation(true)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.close()
	hot, _ := specByName("hot-churn")
	pool := hot.pool(oracle{fed.u})
	if len(pool) != 2*hotPoolHalf {
		t.Fatalf("pool has %d queries, want %d", len(pool), 2*hotPoolHalf)
	}
	crossVocabulary := 0
	for _, q := range pool[:hotPoolHalf] { // the popular half of the Zipf ranks
		if len(q.vars) == 3 {
			crossVocabulary++
		}
	}
	if crossVocabulary == 0 || crossVocabulary == hotPoolHalf {
		t.Errorf("%d of the %d most popular queries are cross-vocabulary: the kinds are not mixed", crossVocabulary, hotPoolHalf)
	}
}

// TestSmokeEveryWorkload runs each workload's closed loop for 200 ms
// against a freshly booted federation: every answer must match ground
// truth, on the cold paths and through cache, views and writes.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			fed, err := bootFederation(s.hot)
			if err != nil {
				t.Fatal(err)
			}
			defer fed.close()
			if s.hot {
				s.writeEvery = 100 // a 200 ms run must cross a write
			}
			d := newDriver(s, 1, fed)
			defer d.close()
			if s.hot {
				if err := d.primeViews(ctx); err != nil {
					t.Fatal(err)
				}
			}
			p := d.pass(ctx, loadClients, limit{deadline: time.Now().Add(200 * time.Millisecond)}, false)
			if len(p.samples) == 0 {
				t.Fatal("no operation completed")
			}
			if p.failed() > 0 {
				t.Fatalf("%d of %d operations failed; first: %s", p.failed(), len(p.samples), p.firstFailure)
			}
			if s.hot && len(p.writes) == 0 {
				t.Error("no write happened")
			}
			if got := fed.endpointRequests(); got == 0 {
				t.Error("the endpoint taps counted no request")
			}
		})
	}
}

// TestTracedPassAccountsForTheRequest runs a short traced pass and checks
// that every declared per-layer metric is reported and that the budget's
// rows and the unattributed remainder add up to the request median.
func TestTracedPassAccountsForTheRequest(t *testing.T) {
	s, _ := specByName("xvocab-join")
	s.tracedOps = 20
	fed, err := bootFederation(s.hot)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.close()
	d := newDriver(s, 1, fed)
	defer d.close()
	res := &result{}
	if err := d.tracedPass(context.Background(), res, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted != 3*s.tracedOps { // untraced, traced, untraced
		t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.FirstFailure)
	}
	for _, def := range perLayerDefs {
		if _, ok := res.PerLayer[def.name]; !ok {
			t.Errorf("per-layer metric %s not reported", def.name)
		}
	}
	if rt := res.PerLayer["endpoint.roundtrips"].Value; rt < 2 {
		t.Errorf("endpoint.roundtrips = %v: the taps did not attribute the mediator's sub-queries", rt)
	}
	sum := res.PerLayer["unattributed_ms"].Value
	for _, b := range res.Budget {
		sum += b.MS
	}
	if want := res.PerLayer["request.p50_ms"].Value; math.Abs(sum-want) > 1e-9 {
		t.Errorf("budget rows + unattributed = %v ms, request median = %v ms", sum, want)
	}
}

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json's names, units
// and reasons in step with the metrics and workloads the program reports.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: reason has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, e := range bf.EndToEnd {
		if e.Name != endToEndDefs[i].name || e.Unit != endToEndDefs[i].unit {
			t.Errorf("end-to-end metric %d: declared %s [%s], reported %s [%s]", i, e.Name, e.Unit, endToEndDefs[i].name, endToEndDefs[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, e := range bf.PerLayer {
		if e.Name != perLayerDefs[i].name || e.Unit != perLayerDefs[i].unit {
			t.Errorf("per-layer metric %d: declared %s [%s], reported %s [%s]", i, e.Name, e.Unit, perLayerDefs[i].name, perLayerDefs[i].unit)
		}
	}
}
