package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sparqlrw/internal/mediate"
)

// The load the benchmark applies. nproc is 2 and a SPARQL caller waits
// for its answer, so the loop is closed with one client per core.
const (
	loadClients = 2
	warmUp      = 2 * time.Second
	// setupRounds is how many times one run sets the federation up; the
	// median is reported, since a single boot is a short, noisy interval.
	setupRounds = 3
	viewsReady  = 20 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric; BENCHMARK.json repeats these with direction
// and bound, and a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ttfs_p50_ms", "ms"},
	{"allocs_per_row", "1/row"},
	{"roundtrips_per_query", "1/query"},
	{"setup_s", "s"},
}

var perLayerDefs = []metricDef{
	{"request.p50_ms", "ms"},
	{"endpoint.roundtrips", "1/query"},
	{"endpoint.rows_in", "rows/query"},
	{"endpoint.bytes_in", "B/query"},
	{"endpoint.busy_ms", "ms"},
	{"endpoint.blocking_ms", "ms"},
	{"mediator.self_ms", "ms"},
	{"serve.local_ratio", "ratio"},
	{"serve.local_p50_ms", "ms"},
	{"serve.federated_p50_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"view.hits", "count"},
	{"view.refreshes", "count"},
	{"federate.plan_cache_hits", "count"},
	{"federate.plan_cache_misses", "count"},
	{"kb.update_ms", "ms"},
	{"sparql.parse_us", "us"},
	{"sparql.parse_allocs", "1/call"},
	{"serve.restrict_us", "us"},
	{"serve.restrict_allocs", "1/call"},
	{"core.rewrite_us", "us"},
	{"core.rewrite_allocs", "1/call"},
	{"plan.select_us", "us"},
	{"plan.select_allocs", "1/call"},
	{"decompose.decompose_us", "us"},
	{"decompose.decompose_allocs", "1/call"},
	{"srjson.decode_us_per_row", "us/row"},
	{"srjson.decode_allocs_per_row", "1/row"},
	{"federate.canon_us_per_row", "us/row"},
	{"federate.canon_allocs_per_row", "1/row"},
	{"srjson.encode_us_per_row", "us/row"},
	{"srjson.encode_allocs_per_row", "1/row"},
	{"mediate.query_ms", "ms"},
	{"mediate.query_allocs", "1/call"},
	{"unattributed_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"trace_overhead_pct", "%"},
}

// budgetRow is one line of a workload's latency budget: a layer's
// isolated cost scaled to one request.
type budgetRow struct {
	Layer   string  `json:"layer"`
	PerUnit float64 `json:"perUnitUs"` // isolated cost per call or row
	Units   float64 `json:"unitsPerRequest"`
	MS      float64 `json:"ms"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`

	// Operations of every pass after warm-up: timed, traced, untraced.
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`

	// Timed run (absent when only the traced pass was asked for).
	EndToEnd     map[string]metric `json:"endToEnd,omitempty"`
	TimedSamples int               `json:"timedSamples,omitempty"`
	// LatencyP99MS is information only: it does not repeat within a
	// tenth on a shared 2-core machine.
	LatencyP99MS float64   `json:"latencyP99Ms,omitempty"`
	Writes       int       `json:"writes,omitempty"`
	SetupS       []float64 `json:"setupSeconds,omitempty"`

	// Traced pass and isolated calls (absent when only timed).
	PerLayer       map[string]metric `json:"perLayer,omitempty"`
	TracedRequests int               `json:"tracedRequests,omitempty"`
	Budget         []budgetRow       `json:"budget,omitempty"`

	FirstFailure string `json:"firstFailure,omitempty"`
}

// count adds one pass's operations to the run's totals.
func (r *result) count(p passResult) {
	r.Attempted += len(p.samples)
	r.Failed += p.failed()
	r.Succeeded = r.Attempted - r.Failed
	if r.FirstFailure == "" {
		r.FirstFailure = p.firstFailure
	}
}

// setUp boots the federation and warms it to steady state, checking
// every warm-up answer against ground truth. It returns the time both
// took together: the benchmark's set-up time.
func setUp(ctx context.Context, s spec, seed int64) (*federation, *driver, time.Duration, error) {
	start := time.Now()
	fed, err := bootFederation(s.hot)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(s, seed, fed)
	if err := d.warmUp(ctx); err != nil {
		d.close()
		fed.close()
		return nil, nil, 0, fmt.Errorf("%s warm-up: %w", s.name, err)
	}
	return fed, d, time.Since(start), nil
}

// warmUp drives the workload to steady state, checking every answer.
func (d *driver) warmUp(ctx context.Context) error {
	start := time.Now()
	if d.spec.hot {
		if err := d.primeViews(ctx); err != nil {
			return err
		}
	}
	if rest := warmUp - time.Since(start); rest > 0 {
		p := d.pass(ctx, loadClients, limit{deadline: time.Now().Add(rest)}, false)
		if p.failed() > 0 {
			return fmt.Errorf("%d of %d answers failed; first: %s", p.failed(), len(p.samples), p.firstFailure)
		}
	}
	return nil
}

// primeViews asks every pool query twice on the cold path and waits until
// the views report ready. The second asking carries a limit no answer
// reaches: the result cache keys on the limit, so the request misses the
// cache and the view tier sees the shape a second time, which is what
// materializes it. (Under the workload's own traffic that never happens:
// the cache absorbs every repeat, and each alignment write drops the
// shapes seen once.)
func (d *driver) primeViews(ctx context.Context) error {
	for _, limit := range []int{0, 1 << 20} {
		for _, q := range d.pool {
			q.limit = limit
			if _, msg := d.query(q, ""); msg != "" {
				return fmt.Errorf("%s: %s", personLine(q.text), msg)
			}
		}
	}
	return waitViewsReady(ctx, d.fed.m)
}

func waitViewsReady(ctx context.Context, m *mediate.Mediator) error {
	deadline := time.Now().Add(viewsReady)
	for {
		if vs := m.Stats().Views; vs != nil && len(vs.Views) > 0 {
			ready := true
			for _, v := range vs.Views {
				ready = ready && v.State == "ready"
			}
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("views not ready after %s", viewsReady)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// runWorkload runs one workload: set-up, then the timed run with all
// benchmark tracing off (timed), then the traced pass and the isolated
// layer calls (traced). traceDir receives the span file.
func runWorkload(ctx context.Context, s spec, seed int64, seconds int, timed, traced bool, traceDir string) (*result, error) {
	res := &result{Workload: s.name, Seed: seed, Seconds: seconds}

	// Set up several times and keep the last deployment for the run.
	rounds := 1
	if timed {
		rounds = setupRounds
	}
	var fed *federation
	var d *driver
	for i := 0; i < rounds; i++ {
		if fed != nil {
			d.close()
			fed.close()
		}
		var took time.Duration
		var err error
		fed, d, took, err = setUp(ctx, s, seed)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, took.Seconds())
	}
	defer fed.close()
	defer d.close()

	if timed {
		d.timedRun(ctx, seconds, res)
	}
	if traced {
		if err := d.tracedPass(ctx, res, traceDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedRun is the measured interval: loadClients closed-loop clients for
// the given number of seconds, no spans recorded, no traceparent sent.
func (d *driver) timedRun(ctx context.Context, seconds int, res *result) {
	var m0, m1 runtime.MemStats
	rt0 := d.fed.endpointRequests()
	runtime.ReadMemStats(&m0)
	p := d.pass(ctx, loadClients, limit{deadline: time.Now().Add(time.Duration(seconds) * time.Second)}, false)
	runtime.ReadMemStats(&m1)
	rt1 := d.fed.endpointRequests()

	res.count(p)
	res.TimedSamples = len(p.samples)
	res.Writes = len(p.writes)
	lat := latenciesMS(p.samples, func(s sample) time.Duration { return s.latency })
	ttfs := latenciesMS(p.samples, func(s sample) time.Duration { return s.ttfs })
	res.LatencyP99MS = percentile(lat, 99)
	res.EndToEnd = withUnits(endToEndDefs, map[string]float64{
		"throughput_qps":       float64(len(p.samples)-p.failed()) / p.elapsed.Seconds(),
		"latency_p50_ms":       percentile(lat, 50),
		"latency_p95_ms":       percentile(lat, 95),
		"ttfs_p50_ms":          percentile(ttfs, 50),
		"allocs_per_row":       ratio(float64(m1.Mallocs-m0.Mallocs), float64(p.rows())),
		"roundtrips_per_query": ratio(float64(rt1-rt0), float64(len(p.samples))),
		"setup_s":              median(res.SetupS),
	})
}

// withUnits pairs each declared metric with its measured value. A value
// that is missing, or one that was never declared, is a bug in this file.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	if len(values) != len(defs) {
		panic(fmt.Sprintf("%d metrics measured, %d declared", len(values), len(defs)))
	}
	out := make(map[string]metric, len(defs))
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			panic("declared metric not measured: " + def.name)
		}
		out[def.name] = metric{v, def.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass is the fixed-count, one-client pass with the benchmark's
// tracing on, the same pass with it off before and after (the ratio of
// the two speeds is the tracing overhead; running the untraced pass on
// both sides cancels drift), and the isolated layer calls; from these it
// derives the per-layer metrics and the latency budget.
func (d *driver) tracedPass(ctx context.Context, res *result, traceDir string) error {
	untraced := []passResult{d.pass(ctx, 1, limit{ops: d.spec.tracedOps}, false)}
	before := d.fed.m.Stats()
	d.fed.rec.on.Store(true)
	tp := d.pass(ctx, 1, limit{ops: d.spec.tracedOps}, true)
	spans, err := d.fed.rec.take()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	after := d.fed.m.Stats()
	res.count(tp)
	if traceDir != "" {
		if err := writeSpans(filepath.Join(traceDir, "trace-"+d.spec.name+".json"), spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	untraced = append(untraced, d.pass(ctx, 1, limit{ops: d.spec.tracedOps}, false))

	requests := groupByRequest(spans)
	res.TracedRequests = len(requests)
	n := float64(len(requests))
	var reqMS, busyMS, blockMS, selfMS, localMS, fedMS []float64
	var roundtrips, rowsIn, bytesIn, rowsOut float64
	for _, r := range requests {
		dur := ms(r.request.End.Sub(r.request.Start))
		reqMS = append(reqMS, dur)
		busyMS = append(busyMS, ms(r.busy()))
		blockMS = append(blockMS, ms(r.blocking()))
		selfMS = append(selfMS, ms(r.self()))
		roundtrips += float64(len(r.endpoints))
		rowsOut += float64(r.request.Rows)
		for _, e := range r.endpoints {
			rowsIn += float64(e.Rows)
			bytesIn += float64(e.Bytes)
		}
		if len(r.endpoints) == 0 {
			localMS = append(localMS, dur) // answered by the result cache or a view
		} else {
			fedMS = append(fedMS, dur)
		}
	}

	lc, err := isolatedLayers(d.fed.m, d.layerTexts(), layerBodiesOf(requests))
	if err != nil {
		return err
	}

	var writeMS []float64
	for _, w := range tp.writes {
		writeMS = append(writeMS, ms(w))
	}
	delta := func(a, b uint64) float64 { return float64(b - a) }
	var cacheHits, cacheMisses, viewHits, viewRefreshes float64
	if before.Serving != nil && before.Serving.Cache != nil && after.Serving != nil && after.Serving.Cache != nil {
		cacheHits = delta(before.Serving.Cache.Hits, after.Serving.Cache.Hits)
		cacheMisses = delta(before.Serving.Cache.Misses, after.Serving.Cache.Misses)
	}
	if before.Views != nil && after.Views != nil {
		viewHits = delta(before.Views.Hits, after.Views.Hits)
		viewRefreshes = delta(before.Views.Refreshes, after.Views.Refreshes)
	}
	planHits := delta(before.Federation.CacheHits, after.Federation.CacheHits)
	planMisses := delta(before.Federation.CacheMisses, after.Federation.CacheMisses)
	var plans, decompositions float64
	if before.Planner != nil && after.Planner != nil {
		plans = delta(before.Planner.Plans, after.Planner.Plans)
	}
	if before.Decompose != nil && after.Decompose != nil {
		decompositions = delta(before.Decompose.Decompositions, after.Decompose.Decompositions)
	}

	// The budget: what the median traced request's time is made of, as
	// far as measurements taken from outside can say.
	reqP50 := median(reqMS)
	row := func(layer string, c cost, units float64) budgetRow {
		return budgetRow{Layer: layer, PerUnit: c.us, Units: units, MS: c.us * units / 1e3}
	}
	res.Budget = []budgetRow{
		row("sparql.parse", lc.parse, 1),
		row("serve.restrict", lc.restrict, 0), // the anonymous tenant carries no policy
		row("core.rewrite", lc.rewrite, ratio(planMisses, n)),
		row("plan.select", lc.planSelect, ratio(plans, n)),
		row("decompose.decompose", lc.decompose, ratio(decompositions, n)),
		row("srjson.decode", lc.decode, ratio(rowsIn, n)),
		row("federate.canon", lc.canon, ratio(rowsIn, n)),
		row("srjson.encode", lc.encode, ratio(rowsOut, n)),
		row("client.decode", lc.decode, ratio(rowsOut, n)),
		{Layer: "endpoint.blocking", Units: 1, MS: median(blockMS)},
	}
	attributed := 0.0
	for _, b := range res.Budget {
		attributed += b.MS
	}
	unattributed := reqP50 - attributed

	// Same operations, one client: time per operation with tracing on
	// against tracing off.
	var untracedOps int
	var untracedTime time.Duration
	for _, up := range untraced {
		res.count(up)
		untracedOps += len(up.samples)
		untracedTime += up.elapsed
	}
	tracedPerOp := ratio(tp.elapsed.Seconds(), float64(len(tp.samples)))
	untracedPerOp := ratio(untracedTime.Seconds(), float64(untracedOps))

	res.PerLayer = withUnits(perLayerDefs, map[string]float64{
		"request.p50_ms":                reqP50,
		"endpoint.roundtrips":           ratio(roundtrips, n),
		"endpoint.rows_in":              ratio(rowsIn, n),
		"endpoint.bytes_in":             ratio(bytesIn, n),
		"endpoint.busy_ms":              median(busyMS),
		"endpoint.blocking_ms":          median(blockMS),
		"mediator.self_ms":              median(selfMS),
		"serve.local_ratio":             ratio(float64(len(localMS)), n),
		"serve.local_p50_ms":            median(localMS),
		"serve.federated_p50_ms":        median(fedMS),
		"serve.cache_hits":              cacheHits,
		"serve.cache_misses":            cacheMisses,
		"view.hits":                     viewHits,
		"view.refreshes":                viewRefreshes,
		"federate.plan_cache_hits":      planHits,
		"federate.plan_cache_misses":    planMisses,
		"kb.update_ms":                  median(writeMS),
		"sparql.parse_us":               lc.parse.us,
		"sparql.parse_allocs":           lc.parse.allocs,
		"serve.restrict_us":             lc.restrict.us,
		"serve.restrict_allocs":         lc.restrict.allocs,
		"core.rewrite_us":               lc.rewrite.us,
		"core.rewrite_allocs":           lc.rewrite.allocs,
		"plan.select_us":                lc.planSelect.us,
		"plan.select_allocs":            lc.planSelect.allocs,
		"decompose.decompose_us":        lc.decompose.us,
		"decompose.decompose_allocs":    lc.decompose.allocs,
		"srjson.decode_us_per_row":      lc.decode.us,
		"srjson.decode_allocs_per_row":  lc.decode.allocs,
		"federate.canon_us_per_row":     lc.canon.us,
		"federate.canon_allocs_per_row": lc.canon.allocs,
		"srjson.encode_us_per_row":      lc.encode.us,
		"srjson.encode_allocs_per_row":  lc.encode.allocs,
		"mediate.query_ms":              lc.query.us / 1e3,
		"mediate.query_allocs":          lc.query.allocs,
		"unattributed_ms":               unattributed,
		"unattributed_share":            ratio(unattributed, reqP50),
		"trace_overhead_pct":            (ratio(tracedPerOp, untracedPerOp) - 1) * 100,
	})
	return nil
}

// layerTexts is the query sample the isolated calls run over: the first
// distinct queries of client 0's sequence.
func (d *driver) layerTexts() []string {
	next := d.spec.draws(len(d.pool), clientRNG(d.seed, 0))
	seen := map[int]bool{}
	var texts []string
	for tries := 0; len(texts) < layerQueries && len(seen) < len(d.pool) && tries < 100*layerQueries; tries++ {
		i := next()
		if !seen[i] {
			seen[i] = true
			texts = append(texts, d.pool[i].text)
		}
	}
	return texts
}

// layerBodiesOf picks the captured endpoint bodies the row layers are
// measured on: those of the first requests, in request order.
func layerBodiesOf(requests []requestTrace) [][]byte {
	sort.SliceStable(requests, func(a, b int) bool {
		return requests[a].request.Start.Before(requests[b].request.Start)
	})
	var bodies [][]byte
	for _, r := range requests {
		for _, e := range r.endpoints {
			if len(bodies) == layerBodies {
				return bodies
			}
			bodies = append(bodies, e.body)
		}
	}
	return bodies
}
