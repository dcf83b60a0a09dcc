// Package obs is the mediator's zero-dependency observability substrate:
// a Prometheus-text-format metrics registry (counters, gauges,
// fixed-bucket histograms), a lightweight per-query span tree carried via
// context.Context, and a ring buffer of finished traces. Every layer of
// the federation pipeline (federate, plan, decompose, mediate) registers
// its counters here. State that lives elsewhere — the endpoint table's
// per-endpoint counts, cache sizes — is registered as function-backed
// families read at scrape time, so Mediator.Stats() and the /metrics
// exposition read the same numbers and nothing is booked twice.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds, in seconds —
// 1 ms to 10 s, the spread between a warm local endpoint and a timed-out
// remote one.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry is a set of named metric families. Constructors are
// get-or-create: registering a name that already exists returns the
// existing family (components handed one registry share its families,
// and a mediator's Handler built twice counts into the same series), and
// panics if the type or label names differ — that is a programming error,
// not runtime state.
// All methods are safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	maxSeries int // per-family series cap; 0 = unbounded
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OverflowLabel is the label value series beyond a family's series cap
// collapse into.
const OverflowLabel = "other"

// SetMaxSeriesPerFamily caps how many distinct label-value combinations
// each labelled family may hold. Endpoint and dataset label values come
// from voiD, which may list arbitrarily many datasets; without a cap the
// registry — and its /metrics exposition — grows without bound. Once a
// family reaches n series, new combinations collapse into a single
// series whose every label value is OverflowLabel ("other"); the
// overflow series itself does not count against the cap. n <= 0 removes
// the cap. Applies to existing and future families.
func (r *Registry) SetMaxSeriesPerFamily(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxSeries = n
	for _, f := range r.families {
		f.mu.Lock()
		f.maxSeries = n
		f.mu.Unlock()
	}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric family: a set of series distinguished by
// label values, or a callback evaluated at collection time.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu        sync.Mutex
	series    map[string]*series
	maxSeries int // distinct label combinations before collapsing to "other"

	// fn, when non-nil, makes this a function-backed family: samples are
	// produced by the callback at collection time (cache sizes, breaker
	// states — state that already lives elsewhere and must not be
	// double-booked). Re-registering replaces the callback, so a rebuilt
	// subsystem re-binds the family to its fresh state.
	fn func(emit func(labelValues []string, value float64))

	buckets []float64 // histogram families only
}

// series is one (family, label values) time series.
type series struct {
	labelValues []string
	bits        atomic.Uint64 // float64 bits (counter / gauge value)
	hist        *histogramData
}

func (s *series) add(d float64) {
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (s *series) set(v float64) { s.bits.Store(math.Float64bits(v)) }

func (s *series) value() float64 { return math.Float64frombits(s.bits.Load()) }

// seriesKey joins label values with an unprintable separator.
func seriesKey(lvs []string) string { return strings.Join(lvs, "\xff") }

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels,
		series: make(map[string]*series), buckets: buckets,
		maxSeries: r.maxSeries,
	}
	r.families[name] = f
	return f
}

// overflowValues returns the all-"other" label values for a family.
func (f *family) overflowValues() []string {
	lvs := make([]string, len(f.labels))
	for i := range lvs {
		lvs[i] = OverflowLabel
	}
	return lvs
}

func (f *family) get(lvs []string) *series {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d",
			f.name, len(f.labels), len(lvs)))
	}
	key := seriesKey(lvs)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		// At the series cap, collapse new label combinations into the
		// shared "other" series (which is exempt from the cap) instead of
		// growing the exposition without bound.
		if f.maxSeries > 0 && len(f.labels) > 0 && f.atCapLocked() {
			overflow := f.overflowValues()
			key = seriesKey(overflow)
			if s, ok = f.series[key]; ok {
				return s
			}
			lvs = overflow
		}
		s = &series{labelValues: append([]string(nil), lvs...)}
		if f.typ == typeHistogram {
			s.hist = newHistogramData(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// atCapLocked reports whether the family has reached its series cap,
// not counting the overflow series. Called with f.mu held.
func (f *family) atCapLocked() bool {
	n := len(f.series)
	if _, ok := f.series[seriesKey(f.overflowValues())]; ok {
		n--
	}
	return n >= f.maxSeries
}

// each visits a snapshot of the family's series, sorted by label values.
func (f *family) each(visit func(s *series)) {
	f.mu.Lock()
	snap := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		snap = append(snap, s)
	}
	f.mu.Unlock()
	sort.Slice(snap, func(i, j int) bool {
		return seriesKey(snap[i].labelValues) < seriesKey(snap[j].labelValues)
	})
	for _, s := range snap {
		visit(s)
	}
}

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.add(1) }

// Add adds d (d must be >= 0 for the exposition to stay a valid counter).
func (c *Counter) Add(d float64) { c.s.add(d) }

// Value reads the current total.
func (c *Counter) Value() float64 { return c.s.value() }

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.s.set(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d float64) { g.s.add(d) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.s.value() }

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{s: r.family(name, help, typeCounter, nil, nil).get(nil)}
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{s: r.family(name, help, typeGauge, nil, nil).get(nil)}
}

// Histogram registers (or finds) an unlabelled histogram with the given
// upper bucket bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{h: r.family(name, help, typeHistogram, nil, buckets).get(nil).hist}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(lvs ...string) *Counter { return &Counter{s: v.f.get(lvs)} }

// Each visits every series with its label values and current total.
func (v *CounterVec) Each(visit func(labelValues []string, value float64)) {
	v.f.each(func(s *series) { visit(s.labelValues, s.value()) })
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(lvs ...string) *Gauge { return &Gauge{s: v.f.get(lvs)} }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labelled histogram family (nil
// buckets selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram {
	return &Histogram{h: v.f.get(lvs).hist}
}

// GaugeFunc registers a gauge whose value is computed at collection time
// by fn. Re-registering the same name replaces fn, so a rebuilt subsystem
// re-binds the gauge to its fresh state instead of double-booking it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, typeGauge, nil, nil).bind(func(emit func([]string, float64)) { emit(nil, fn()) })
}

// CounterFunc registers a counter whose value is read at collection time
// by fn — for totals that already live elsewhere (the plan cache's
// hit/miss counters) and must not be double-booked. Re-registering
// replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, typeCounter, nil, nil).bind(func(emit func([]string, float64)) { emit(nil, fn()) })
}

// GaugeFuncVec registers a labelled gauge family whose samples are
// produced at collection time by collect (per-endpoint breaker states).
// Re-registering replaces collect.
func (r *Registry) GaugeFuncVec(name, help string, labels []string, collect func(emit func(labelValues []string, value float64))) {
	r.family(name, help, typeGauge, labels, nil).bind(collect)
}

// CounterFuncVec registers a labelled counter family whose samples are
// produced at collection time by collect: per-endpoint totals the
// endpoint table keeps. Re-registering replaces collect.
func (r *Registry) CounterFuncVec(name, help string, labels []string, collect func(emit func(labelValues []string, value float64))) {
	r.family(name, help, typeCounter, labels, nil).bind(collect)
}

// bind makes f function-backed, replacing any earlier callback.
func (f *family) bind(collect func(emit func(labelValues []string, value float64))) {
	f.mu.Lock()
	f.fn = collect
	f.mu.Unlock()
}

// histogramData is the mutable core of a histogram: per-bucket counters
// plus the running sum. Observations are lock-free; a scrape reads each
// bucket atomically (Prometheus scrapes tolerate the skew).
type histogramData struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogramData(bounds []float64) *histogramData {
	return &histogramData{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogramData) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram accumulates observations into fixed buckets. It is write-only:
// the buckets are read by the exposition alone.
type Histogram struct{ h *histogramData }

// Observe records one value (for latency histograms, in seconds).
func (h *Histogram) Observe(v float64) { h.h.observe(v) }

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), families and series sorted for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		writeFamily(&b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeFamily(b *strings.Builder, f *family) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	if fn != nil {
		type sample struct {
			lvs []string
			v   float64
		}
		var samples []sample
		fn(func(lvs []string, v float64) {
			samples = append(samples, sample{append([]string(nil), lvs...), v})
		})
		sort.Slice(samples, func(i, j int) bool {
			return seriesKey(samples[i].lvs) < seriesKey(samples[j].lvs)
		})
		for _, s := range samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.lvs), formatFloat(s.v))
		}
		return
	}

	f.each(func(s *series) {
		if f.typ == typeHistogram {
			writeHistogramSeries(b, f, s)
			return
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues), formatFloat(s.value()))
	})
}

func writeHistogramSeries(b *strings.Builder, f *family, s *series) {
	h := s.hist
	// Fresh copies: appending "le" to shared label slices would alias
	// their backing arrays across series.
	bucketLabels := append(append([]string(nil), f.labels...), "le")
	bucketValues := func(le string) []string {
		return append(append([]string(nil), s.labelValues...), le)
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelString(bucketLabels, bucketValues(formatFloat(bound))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
		labelString(bucketLabels, bucketValues("+Inf")), cum)
	sum := math.Float64frombits(h.sumBits.Load())
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues), formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues), cum)
}

// labelString renders {k1="v1",k2="v2"}, or "" when there are no labels.
func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
