package obs

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"testing"
)

// goldenRegistry builds the registry whose exposition is pinned in
// testdata/metrics.golden: one of every family kind, exact-binary float
// observations so the sum renders deterministically.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("t_requests_total", "Total requests.").Add(3)
	r.Gauge("t_inflight", "In-flight queries.").Set(2)
	v := r.CounterVec("t_attempts_total", "Attempts per endpoint.", "endpoint")
	v.With("http://a.example/sparql").Add(4)
	v.With("http://b.example/sparql").Inc()
	h := r.Histogram("t_latency_seconds", "Latency with \"quotes\" and back\\slash help.", []float64{0.25, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(2)
	r.GaugeFuncVec("t_breaker_state", "Breaker state per endpoint.",
		[]string{"endpoint", "state"}, func(emit func([]string, float64)) {
			emit([]string{"http://a.example/sparql", "closed"}, 1)
		})
	r.CounterFunc("t_cache_hits_total", "Plan cache hits.", func() float64 { return 7 })
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}

func TestExpositionParsesAsPrometheusText(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheusText(&buf)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	if f := byName["t_attempts_total"]; f.Type != "counter" || len(f.Samples) != 2 {
		t.Errorf("t_attempts_total = %+v, want counter with 2 samples", f)
	} else if f.Samples[0].Labels["endpoint"] != "http://a.example/sparql" || f.Samples[0].Value != 4 {
		t.Errorf("t_attempts_total sample 0 = %+v", f.Samples[0])
	}
	if f := byName["t_cache_hits_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 7 {
		t.Errorf("t_cache_hits_total = %+v", f)
	}

	// Histogram samples must fold into the t_latency_seconds family with
	// cumulative buckets ending at the total count.
	h := byName["t_latency_seconds"]
	if h.Type != "histogram" {
		t.Fatalf("t_latency_seconds type = %q", h.Type)
	}
	var infBucket, count float64
	for _, s := range h.Samples {
		switch {
		case s.Name == "t_latency_seconds_bucket" && s.Labels["le"] == "+Inf":
			infBucket = s.Value
		case s.Name == "t_latency_seconds_count":
			count = s.Value
		}
	}
	if infBucket != 3 || count != 3 {
		t.Errorf("le=+Inf bucket = %v, _count = %v, want both 3", infBucket, count)
	}
	if strings.Contains(h.Help, `\\`) {
		t.Errorf("help not unescaped by parser: %q", h.Help)
	}
}

func TestParsePrometheusTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`m{label=unquoted} 1`,
		`m{label="unterminated} 1`,
		`m{label="x"} notafloat`,
		"# TYPE m frobnicator",
		`{label="x"} 1`,
	} {
		if _, err := ParsePrometheusText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheusText(%q) succeeded, want error", bad)
		}
	}
}

func TestGetOrCreateSurvivesReRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(5)
	// A rebuilt subsystem registers the same family again and must see the
	// accumulated total, not a fresh zero.
	if got := r.Counter("c_total", "help").Value(); got != 5 {
		t.Errorf("re-registered counter = %v, want 5", got)
	}

	calls := 0
	r.GaugeFunc("g_fn", "help", func() float64 { calls++; return 1 })
	r.GaugeFunc("g_fn", "help", func() float64 { calls += 100; return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Only the replacement callback runs: re-binding, not double-booking.
	if calls != 100 {
		t.Errorf("callback calls = %d, want 100 (replacement only)", calls)
	}
	if !strings.Contains(buf.String(), "g_fn 2\n") {
		t.Errorf("exposition missing replaced value:\n%s", buf.String())
	}
}

func TestRegistryPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("m", "help")
	mustPanic("type change", func() { r.Gauge("m", "help") })
	r.CounterVec("v", "help", "endpoint")
	mustPanic("label change", func() { r.CounterVec("v", "help", "dataset") })
	mustPanic("arity change", func() { r.CounterVec("v", "help", "endpoint", "shard") })
	mustPanic("wrong label count", func() { r.CounterVec("v", "help", "endpoint").With("a", "b") })
}

// TestRegistryConcurrency hammers every mutation path against concurrent
// scrapes; run with -race (the Makefile does) to prove the registry and
// trace ring are data-race free under parallel queries.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	ring := NewTraceRing(8)
	const workers = 8
	const iters = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "help")
			g := r.Gauge("hammer_inflight", "help")
			cv := r.CounterVec("hammer_by_endpoint_total", "help", "endpoint")
			hv := r.HistogramVec("hammer_seconds", "help", nil, "endpoint")
			endpoint := []string{"a", "b", "c"}[w%3]
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				cv.With(endpoint).Inc()
				hv.With(endpoint).Observe(float64(i) / 100)
				g.Add(-1)

				tctx, trace := NewTrace(context.Background(), "query")
				ctx, span := StartSpan(tctx, "subquery")
				span.SetString("endpoint", endpoint)
				_, inner := StartSpan(ctx, "attempt")
				inner.End()
				span.End()
				trace.Finish()
				ring.Add(trace)
				ring.Get(trace.ID())
				ring.Recent(4)
			}
		}(w)
	}
	// Concurrent scrapers.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("hammer_total", "help").Value(); got != workers*iters {
		t.Errorf("hammer_total = %v, want %d", got, workers*iters)
	}
	var exp bytes.Buffer
	if err := r.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheusText(&exp)
	if err != nil {
		t.Fatal(err)
	}
	var histCount float64
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == "hammer_seconds_count" {
				histCount += s.Value
			}
		}
	}
	if histCount != workers*iters {
		t.Errorf("histogram observations = %v, want %d", histCount, workers*iters)
	}
	if got := len(ring.Recent(0)); got != 8 {
		t.Errorf("ring holds %d traces, want capacity 8", got)
	}
}

// TestPrometheusLabelEscapeRoundTrip pins the exposition's label-value
// escaping against the parser's unescaping: every value the registry can
// emit — embedded quotes, backslashes, newlines, and adversarial
// combinations like a literal `\n` two-character sequence — must survive
// a WritePrometheus → ParsePrometheusText round trip byte-identically.
func TestPrometheusLabelEscapeRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`with "quotes"`,
		`back\slash`,
		"new\nline",
		`trailing backslash \`,
		`literal \n two chars`,
		`\"escaped-quote-lookalike`,
		"mix\\\"of\nall three",
		`""`,
		`\\`,
	}
	r := NewRegistry()
	v := r.CounterVec("t_escape_total", "Escape round-trip.", "val")
	for i, val := range values {
		v.With(val).Add(float64(i + 1))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheusText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("registry's own exposition does not parse: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name != "t_escape_total" {
			continue
		}
		for _, s := range f.Samples {
			got[s.Labels["val"]] = s.Value
		}
	}
	for i, val := range values {
		v, ok := got[val]
		if !ok {
			t.Errorf("label value %q lost in round trip; parsed values: %v", val, got)
			continue
		}
		if want := float64(i + 1); v != want {
			t.Errorf("label value %q = %v, want %v", val, v, want)
		}
	}
	if len(got) != len(values) {
		t.Errorf("parsed %d distinct label values, want %d (collision after escaping?)", len(got), len(values))
	}
}

// TestParsePrometheusTextEscapes pins the parser's unescaping against
// hand-written exposition lines, independent of the writer.
func TestParsePrometheusTextEscapes(t *testing.T) {
	in := `m{a="q\"uote",b="back\\slash",c="new\nline"} 1` + "\n"
	fams, err := ParsePrometheusText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("parsed %+v, want one family with one sample", fams)
	}
	labels := fams[0].Samples[0].Labels
	for key, want := range map[string]string{
		"a": `q"uote`,
		"b": `back\slash`,
		"c": "new\nline",
	} {
		if labels[key] != want {
			t.Errorf("label %s = %q, want %q", key, labels[key], want)
		}
	}
}

// TestParsePrometheusTextRejectsBadEscapes pins the error paths of the
// escape machinery.
func TestParsePrometheusTextRejectsBadEscapes(t *testing.T) {
	for _, bad := range []string{
		`m{a="dangling\"} 1`,       // escape eats the closing quote
		`m{a="bad\t escape"} 1`,    // \t is not a valid exposition escape
		`m{a="unterminated\\"} 1x`, // trailing junk after value
	} {
		if _, err := ParsePrometheusText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheusText(%q) succeeded, want error", bad)
		}
	}
}
